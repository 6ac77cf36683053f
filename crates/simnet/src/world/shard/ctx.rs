//! The node-side API of the windowed engine.

use super::exec::{GlobalView, PassOutput};
use super::node::{LinkStatus, MsgBody, NodeEvent, ShardNode, ID_NODE_SHIFT};
#[cfg(doc)]
use super::ShardAgent;
use crate::agent::Ctx;
use crate::geometry::Point;
use crate::node::{AttemptId, DisconnectReason, LinkId, NodeId, TimerToken};
use crate::payload::Payload;
use crate::radio::RadioTech;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::world::SendError;

/// The windowed node-side API handed to [`ShardAgent`] callbacks — the
/// sharded mirror of [`NodeCtx`](crate::world::NodeCtx); its calls are
/// [`Ctx`]'s.
pub struct ShardCtx<'a> {
    pub(super) now: SimTime,
    pub(super) node: &'a mut ShardNode,
    pub(super) view: &'a GlobalView<'a>,
    pub(super) out: &'a mut PassOutput,
}

impl Ctx for ShardCtx<'_> {
    #[inline]
    fn now(&self) -> SimTime {
        self.now
    }

    #[inline]
    fn node_id(&self) -> NodeId {
        self.node.id
    }

    fn position(&self) -> Point {
        self.view.position(self.node.id, self.now)
    }

    #[inline]
    fn rng(&mut self) -> &mut SimRng {
        &mut self.node.rng
    }

    fn schedule(&mut self, after: SimDuration, token: TimerToken) {
        let epoch = self.node.epoch;
        self.node
            .queue
            .schedule(self.now + after, NodeEvent::Timer { token, epoch });
    }

    fn start_inquiry(&mut self, tech: RadioTech) {
        if !self.node.radio.techs.contains(tech) {
            return;
        }
        assert!(
            tech != RadioTech::Gprs,
            "sharded world supports range-bounded technologies only (Bluetooth/WLAN)"
        );
        let done = self.now + self.view.radio.profile(tech).inquiry_duration;
        self.node.radio.begin_inquiry(tech, done);
        self.node.counters.inquiries_started += 1;
        let epoch = self.node.epoch;
        self.node
            .queue
            .schedule(done, NodeEvent::InquiryComplete { tech, epoch });
    }

    fn set_discoverable(&mut self, tech: RadioTech, on: bool) {
        self.node.radio.set_discoverable(tech, on);
    }

    fn connect(&mut self, peer: NodeId, tech: RadioTech) -> AttemptId {
        let attempt = AttemptId((self.node.id.as_raw() << ID_NODE_SHIFT) | self.node.next_attempt);
        self.node.next_attempt += 1;
        self.node.counters.connect_attempts += 1;
        let latency = self.view.radio.profile(tech).sample_setup_latency(&mut self.node.rng);
        let epoch = self.node.epoch;
        self.node.queue.schedule(
            self.now + latency,
            NodeEvent::ConnectResolve {
                attempt,
                peer,
                tech,
                epoch,
            },
        );
        attempt
    }

    fn send(&mut self, link: LinkId, payload: Payload) -> Result<(), SendError> {
        let Some(half) = self.node.links.get_mut(&link) else {
            return Err(SendError::UnknownLink);
        };
        if half.status != LinkStatus::Open {
            return Err(SendError::Closed);
        }
        let profile = self.view.radio.profile(half.tech);
        let delay = profile.transmission_delay(payload.len());
        self.node.counters.messages_sent += 1;
        self.node.counters.bytes_sent += payload.len() as u64;
        let entry = &mut self.out.tech_msgs[half.tech.index()];
        entry.0 += 1;
        entry.1 += payload.len() as u64;
        if let Some(hist) = self.out.payload_hist.as_mut() {
            hist.observe(payload.len() as u64);
        }
        let at = self.view.visible_at(self.now + delay);
        half.last_delivery = half.last_delivery.max(at);
        let peer = half.peer;
        self.node
            .emit(self.out, self.view, at, peer, MsgBody::Data { link, payload });
        Ok(())
    }

    fn close(&mut self, link: LinkId) {
        let Some(half) = self.node.links.get_mut(&link) else {
            return;
        };
        if half.status != LinkStatus::Open {
            return;
        }
        half.status = LinkStatus::ClosedLocal;
        let peer = half.peer;
        self.node
            .notify_disconnected(self.now, link, peer, DisconnectReason::LocalClosed);
        self.node
            .emit(self.out, self.view, self.now, peer, MsgBody::Closed { link });
    }

    fn link_quality(&mut self, link: LinkId) -> Option<u8> {
        let half = self.node.links.get(&link).copied()?;
        if half.status != LinkStatus::Open {
            return None;
        }
        self.node.counters.quality_samples += 1;
        let distance = self.view.distance(self.node.id, half.peer, self.now);
        self.view
            .radio
            .profile(half.tech)
            .sample_quality(distance, &mut self.node.rng)
    }
}
