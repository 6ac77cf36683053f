//! Message delivery and disconnect ordering.
//!
//! This layer owns the rules about *when* payloads and close notifications
//! become visible: gracefully closed links flush their in-flight payloads
//! (socket buffers drain) while physical breaks lose them, and a close
//! notification never overtakes data written before the close. Each link
//! counts its payloads in flight and remembers its latest scheduled delivery,
//! so enforcing the latter is a field read, not a scan.

use super::{Event, World};
use crate::faults::LifecycleKind;
#[cfg(debug_assertions)]
use crate::link::audit_skipped_polls;
use crate::link::{next_poll, range_exit_poll, InFlightMessage, LinkState};
use crate::node::{DisconnectReason, LinkId, NodeId};
use crate::radio::RadioTech;
use crate::time::{SimDuration, SimTime};

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
        // like any physical break. The predicate is pure arithmetic.
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
        // Byzantine compromise: frames *sent by* a compromised node may be
        // rewritten in flight by the forge, and every frame *delivered to*
        // one is sniffed as replay material. Guarded so worlds without
        // hostiles skip both calls.
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

    /// The time-dependent part of the check predicate, as of `at`: the pair
    /// is in a flap's down phase, the link's quality override has run out or,
    /// without one, the endpoints are out of coverage. Everything else that
    /// ends a link (crash, radio outage, partition) breaks it explicitly.
    fn coverage_lost(&self, link: &LinkState, at: SimTime) -> bool {
        if self.faults.has_flaps() && self.faults.link_flapped_down(link.a, link.b, at) {
            return true;
        }
        match link.quality_override {
            Some(ov) => ov.exhausted_at(at),
            None => match (
                self.topology.position_of(link.a, at),
                self.topology.position_of(link.b, at),
            ) {
                (Some(pa), Some(pb)) => !self.pair_in_range(pa, pb, link.tech),
                _ => true,
            },
        }
    }

    /// The next instant at which `link` has to be looked at — the first poll
    /// on its own `established_at + k·interval` grid at which
    /// [`World::coverage_lost`] could say yes — or `None` when no passing of
    /// time can break it. May be early, never late: the check re-evaluates
    /// the predicate and asks again.
    fn next_check(&self, link: &LinkState) -> Option<SimTime> {
        let (now, interval) = (self.now, self.config.link_check_interval);
        let poll = |earliest| next_poll(link.established_at, interval, now, earliest);
        if self.faults.has_flaps() && self.faults.flap_covers(link.a, link.b) {
            return Some(poll(now));
        }
        if let Some(ov) = link.quality_override {
            return ov.exhaustion().map(poll);
        }
        let plan_a = &self.topology.slot(link.a)?.plan;
        let plan_b = &self.topology.slot(link.b)?.plan;
        if link.tech == RadioTech::Gprs {
            // Cellular coverage ends in a dead zone, not at a distance.
            let exposed =
                !self.config.gprs_dead_zones.is_empty() && (plan_a.moving_after(now) || plan_b.moving_after(now));
            return exposed.then(|| poll(now));
        }
        let range_m = self.config.radio.profile(link.tech).range_m;
        range_exit_poll(plan_a, plan_b, range_m, link.established_at, interval, now)
    }

    /// Queues a check of the open link `link` at [`World::next_check`] unless
    /// one is already pending at or before that instant. Called when the link
    /// is set up, after every check that passes and whenever something that
    /// can bring the instant forward is installed (an override, a flap).
    pub(super) fn arm_check(&mut self, link: LinkId) {
        let Some(state) = self.links.get(link).filter(|l| l.open) else {
            return;
        };
        let Some(at) = self.next_check(state) else {
            return;
        };
        if state.next_check.is_some_and(|pending| pending <= at) {
            return;
        }
        self.links.get_mut(link).expect("looked up above").next_check = Some(at);
        self.scheduler.schedule(at, Event::LinkCheck { link });
    }

    /// An open link has live endpoints with the radio on and no cut between
    /// them (those break links explicitly), and none of the polls it skipped
    /// would have broken it ([`audit_skipped_polls`]; every event up to and
    /// including `now` has run).
    #[cfg(debug_assertions)]
    pub(super) fn audit_checks(&self) {
        let (now, interval) = (self.now, self.config.link_check_interval);
        let ahead = now + SimDuration::from_micros(1);
        for link in self.links.open() {
            let (id, a, b) = (link.id, link.a, link.b);
            assert!(
                self.radio_enabled(a, link.tech) && self.radio_enabled(b, link.tech),
                "{id:?} is open on a dead node or a dark radio"
            );
            assert!(
                !(self.adversary.has_partitions() && self.adversary.partitioned(a, b, now)),
                "{id:?} is open across a partition cut"
            );
            audit_skipped_polls(id, link.next_check, now, ahead, interval, |at| {
                self.coverage_lost(link, at)
            });
        }
    }

    pub(super) fn check_link(&mut self, link: LinkId) {
        let Some(state) = self.links.get(link) else {
            return; // closed and drained: nothing to check
        };
        // A closed link is never checked again (the entry leaves the table
        // once its in-flight payloads drain), and neither is one whose check
        // was re-armed for an earlier instant after this event was queued.
        if !state.open || state.next_check != Some(self.now) {
            return;
        }
        let (a, b, tech) = (state.a, state.b, state.tech);
        let dead = !self.is_alive(a) || !self.is_alive(b);
        let radio_dark = !self.radio_enabled(a, tech) || !self.radio_enabled(b, tech);
        let cut = self.adversary.has_partitions() && self.adversary.partitioned(a, b, self.now);
        if dead || radio_dark || cut || self.coverage_lost(state, self.now) {
            self.break_link(link, a, b);
            return;
        }
        self.links.get_mut(link).expect("looked up above").next_check = None;
        self.arm_check(link);
    }

    /// Breaks an open link: it is closed, counted broken at both ends, and
    /// `first` then `second` hear of it — [`DisconnectReason::OutOfRange`]
    /// while the other end is alive, [`DisconnectReason::PeerFailed`] when
    /// it is not (a dead end hears nothing: `agent_call` skips it). The one
    /// way a link breaks on `World`; a graceful close is not a break.
    pub(super) fn break_link(&mut self, link: LinkId, first: NodeId, second: NodeId) {
        if let Some(state) = self.links.get_mut(link) {
            state.open = false;
        }
        self.metrics.record_link_broken(first);
        self.metrics.record_link_broken(second);
        for (to, peer) in [(first, second), (second, first)] {
            let reason = if self.is_alive(peer) {
                DisconnectReason::OutOfRange
            } else {
                DisconnectReason::PeerFailed
            };
            self.agent_call(to, |agent, ctx| agent.on_disconnected(ctx, link, peer, reason));
        }
        self.links.drop_if_drained(link);
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
        self.break_links_of(node, |_| true);
    }

    /// Breaks every open link of `node` that `which` picks, in ascending
    /// link id, through [`World::break_link`] with `node` first. A radio
    /// outage picks its technology's links: both ends are still running, so
    /// both hear `OutOfRange`, the reason a coverage loss gives, which
    /// routes the break into the identical recovery paths.
    pub(super) fn break_links_of(&mut self, node: NodeId, which: impl Fn(&LinkState) -> bool) {
        let affected: Vec<(LinkId, NodeId)> = self
            .links
            .open_links_of(node)
            .into_iter()
            .filter_map(|id| {
                let link = self.links.get(id).filter(|l| which(l))?;
                link.peer_of(node).map(|peer| (id, peer))
            })
            .collect();
        for (link, peer) in affected {
            self.break_link(link, node, peer);
        }
    }
}
