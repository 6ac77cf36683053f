//! Message delivery and disconnect ordering.
//!
//! This layer owns the rules about *when* payloads and close notifications
//! become visible: gracefully closed links flush their in-flight payloads
//! (socket buffers drain) while physical breaks lose them, and a close
//! notification never overtakes data written before the close. Each link
//! counts its payloads in flight and remembers its latest scheduled delivery,
//! so enforcing the latter is a field read, not a scan.

use super::{Event, World};
use crate::faults::{BurstOutcome, LifecycleKind};
use crate::link::InFlightMessage;
use crate::node::{DisconnectReason, LinkId, NodeId};
use crate::radio::RadioTech;
use crate::time::SimDuration;

impl World {
    pub(super) fn deliver(&mut self, mut in_flight: InFlightMessage) {
        // Whatever happens to it below, this payload is off the link: a
        // closed link whose last payload this was leaves the table here.
        let state = self
            .links
            .get_mut(in_flight.link)
            .expect("a link stays in the table while a payload is in flight on it");
        state.in_flight -= 1;
        // Payloads already in flight when an endpoint closed the link
        // gracefully are still delivered (the socket buffer flushes); only a
        // physical break (out of range, crash) loses them.
        let deliverable = state.open || state.closed_gracefully;
        let from = in_flight.from;
        let to = state.peer_of(from).expect("only an endpoint transmits on a link");
        self.links.drop_if_drained(in_flight.link);
        if !deliverable || !self.is_alive(to) {
            self.metrics.record_message_lost(to);
            return;
        }
        // Payloads travelling a flapping pair during its down phase are lost
        // like any physical break. Checked before bursts: the predicate is
        // pure arithmetic, so no burst randomness is drawn for a payload the
        // flap already killed.
        if self.faults.has_flaps() && self.faults.link_flapped_down(from, to, self.now) {
            self.metrics.record_message_lost(to);
            return;
        }
        // Payloads crossing an active partition cut are lost like any other
        // physical break. Pure window arithmetic behind the emptiness guard,
        // so partition-free worlds pay one branch and draw nothing.
        if self.adversary.has_partitions() && self.adversary.partitioned(from, to, self.now) {
            self.adversary.stats.partition_drops += 1;
            self.metrics.record_message_lost(to);
            return;
        }
        // Loss/corruption bursts from installed fault plans. The guard keeps
        // burst-free worlds off this path entirely, so they draw no fault
        // randomness and behave byte-identically to a build without it.
        if self.faults.has_bursts() {
            match self.faults.sample_burst(from, to, self.now) {
                Some(BurstOutcome::Drop) => {
                    self.metrics.record_message_lost(to);
                    return;
                }
                Some(BurstOutcome::Corrupt) => {
                    // Copy-on-write: the shared payload may still be queued
                    // on other links (or held by the sender), so the burst
                    // mutates a private copy and only this delivery sees the
                    // flipped bits.
                    let mut bytes = in_flight.payload.to_vec();
                    self.faults.corrupt_payload(&mut bytes);
                    in_flight.payload = bytes.into();
                }
                None => {}
            }
        }
        // Byzantine compromise: frames *sent by* a compromised node may be
        // rewritten in flight by the forge, and every frame *delivered to*
        // one is sniffed as replay material. Guarded like bursts so worlds
        // without hostiles skip both calls.
        if self.adversary.has_hostiles() {
            // Forge-built injections are already hostile; only organic frames
            // from a compromised sender go through the tamper pass.
            if !in_flight.injected {
                if let Some(hostile) = self.adversary.tamper(from, &in_flight.payload, self.now) {
                    in_flight.payload = hostile;
                }
            }
            self.adversary.sniff(to, &in_flight.payload, self.now);
        }
        self.metrics.record_message_delivered(to);
        let InFlightMessage { link, payload, .. } = in_flight;
        self.agent_call(to, |agent, ctx| agent.on_message(ctx, link, from, payload));
    }

    pub(super) fn check_link(&mut self, link: LinkId) {
        let (a, b, tech, open, has_override, exhausted) = match self.links.get(link) {
            Some(l) => (
                l.a,
                l.b,
                l.tech,
                l.open,
                l.quality_override.is_some(),
                l.quality_override.map(|ov| ov.exhausted_at(self.now)).unwrap_or(false),
            ),
            None => return, // closed and drained: nothing to check
        };
        if !open {
            // Already closed: never reschedule the check; the entry leaves
            // the table once its in-flight payloads drain.
            return;
        }
        let a_alive = self.is_alive(a);
        let b_alive = self.is_alive(b);
        let radio_dark = !self.radio_enabled(a, tech) || !self.radio_enabled(b, tech);
        let flapped_down = self.faults.has_flaps() && self.faults.link_flapped_down(a, b, self.now);
        let cut = self.adversary.has_partitions() && self.adversary.partitioned(a, b, self.now);
        let physically_broken = radio_dark
            || flapped_down
            || cut
            || if has_override {
                exhausted
            } else {
                !self.in_range(a, b, tech)
            };
        if !a_alive || !b_alive || physically_broken {
            if let Some(state) = self.links.get_mut(link) {
                state.open = false;
            }
            self.metrics.record_link_broken(a);
            self.metrics.record_link_broken(b);
            let reason_for = |peer_alive: bool| {
                if peer_alive {
                    DisconnectReason::OutOfRange
                } else {
                    DisconnectReason::PeerFailed
                }
            };
            if a_alive {
                self.agent_call(a, |agent, ctx| {
                    agent.on_disconnected(ctx, link, b, reason_for(b_alive));
                });
            }
            if b_alive {
                self.agent_call(b, |agent, ctx| {
                    agent.on_disconnected(ctx, link, a, reason_for(a_alive));
                });
            }
            self.links.drop_if_drained(link);
            return;
        }
        let next = self.now + self.config.link_check_interval;
        self.scheduler.schedule(next, Event::LinkCheck { link });
    }

    pub(super) fn graceful_disconnect(&mut self, link: LinkId, closer: NodeId) {
        // Preserve FIFO ordering with respect to payloads already in flight
        // towards the peer: the close notification must not overtake data
        // written before the close (socket buffers drain first).
        let now = self.now;
        let peer = match self.links.get_mut(link) {
            Some(state) if state.in_flight > 0 && state.last_delivery >= now => {
                let after = state.last_delivery + SimDuration::from_micros(1);
                self.scheduler.schedule(after, Event::Disconnect { link, closer });
                return;
            }
            Some(state) if state.open => {
                state.open = false;
                state.closed_gracefully = true;
                state.peer_of(closer)
            }
            _ => return,
        };
        if let Some(peer) = peer {
            self.agent_call(peer, |agent, ctx| {
                agent.on_disconnected(ctx, link, closer, DisconnectReason::PeerClosed);
            });
        }
        self.links.drop_if_drained(link);
    }

    /// Powers a node off: every open link it participates in breaks and the
    /// surviving peers are notified with
    /// [`DisconnectReason::PeerFailed`]. The node leaves the spatial index,
    /// stops answering inquiries and its pending timers/attempts die; it can
    /// come back through [`World::restart_node`] (or a scheduled
    /// [`FaultPlan`](crate::faults::FaultPlan) restart).
    ///
    /// # Panics
    ///
    /// Must not be called from inside an agent callback.
    pub fn crash_node(&mut self, node: NodeId) {
        match self.topology.slot(node) {
            Some(slot) if slot.radio.alive => self.topology.power_off(node),
            _ => return,
        }
        self.faults.record(self.now, node, LifecycleKind::NodeDown);
        let affected: Vec<(LinkId, NodeId)> = self
            .links
            .open_links_of(node)
            .into_iter()
            .filter_map(|id| self.links.get(id).and_then(|l| l.peer_of(node)).map(|peer| (id, peer)))
            .collect();
        for (link, peer) in affected {
            if let Some(state) = self.links.get_mut(link) {
                state.open = false;
            }
            self.metrics.record_link_broken(peer);
            self.metrics.record_link_broken(node);
            self.agent_call(peer, |agent, ctx| {
                agent.on_disconnected(ctx, link, node, DisconnectReason::PeerFailed);
            });
            self.links.drop_if_drained(link);
        }
    }

    /// Breaks every open link of `node` that runs over `tech` (the radio
    /// went dark). Unlike a crash both endpoints are still running, so both
    /// are notified — with `OutOfRange`, the same reason a coverage loss
    /// produces, which routes the break into the identical recovery paths.
    pub(super) fn break_links_on_tech(&mut self, node: NodeId, tech: RadioTech) {
        let affected: Vec<(LinkId, NodeId)> = self
            .links
            .open_links_of(node)
            .into_iter()
            .filter_map(|id| {
                self.links
                    .get(id)
                    .filter(|l| l.tech == tech)
                    .and_then(|l| l.peer_of(node))
                    .map(|peer| (id, peer))
            })
            .collect();
        for (link, peer) in affected {
            if let Some(state) = self.links.get_mut(link) {
                state.open = false;
            }
            self.metrics.record_link_broken(node);
            self.metrics.record_link_broken(peer);
            self.agent_call(node, |agent, ctx| {
                agent.on_disconnected(ctx, link, peer, DisconnectReason::OutOfRange);
            });
            self.agent_call(peer, |agent, ctx| {
                agent.on_disconnected(ctx, link, node, DisconnectReason::OutOfRange);
            });
            self.links.drop_if_drained(link);
        }
    }
}
