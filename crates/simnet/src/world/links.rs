//! Link bookkeeping: the active link table, the per-node link index, the
//! per-link in-flight index, pending connection attempts and retired-link
//! tombstones.
//!
//! Hot paths (`links_of`, the in-flight scan in disconnect ordering,
//! `crash_node`) are indexed so their cost scales with one node's links and
//! one link's in-flight messages instead of the world totals. A link whose
//! endpoints have both been notified of its closure and whose last in-flight
//! payload has drained is *retired*: its mutable [`LinkState`] is dropped and
//! replaced by a compact tombstone, so long runs no longer accumulate dead
//! state in the hot tables while `links_of`/`link_info`/`send` keep
//! answering exactly as before.
//!
//! Tombstones themselves are reclaimed by a **generation-based compaction**:
//! every tombstone records the epoch (incarnation counter) each endpoint had
//! when the link retired, and once *both* endpoints have crashed past those
//! epochs the tombstone — and its `by_node` index entries — is dropped for
//! good. The guard is what makes this invisible: a [`LinkId`] only ever
//! reaches an agent through callbacks within one life, and a crash bumps the
//! epoch, so by the time both recorded epochs are stale no live agent can
//! still name the link. Long churn runs therefore hold a bounded working
//! set instead of an ever-growing graveyard.

use std::collections::{BTreeMap, BTreeSet};

use super::{Event, World};
use crate::link::{InFlightMessage, LinkInfo, LinkState, PendingAttempt};
use crate::node::{AttemptId, ConnectError, IncomingConnection, LinkId, NodeId};
use crate::radio::RadioTech;
use crate::time::SimTime;

/// Compact record of a fully closed-and-drained link, kept so read APIs and
/// `send` error classification remain byte-identical after retirement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RetiredLink {
    pub(crate) a: NodeId,
    pub(crate) b: NodeId,
    pub(crate) tech: RadioTech,
    pub(crate) established_at: SimTime,
    /// Epoch of `a` at retirement; the tombstone is compactable on `a`'s
    /// side once `a` has crashed past this generation.
    pub(crate) a_epoch: u64,
    /// Epoch of `b` at retirement.
    pub(crate) b_epoch: u64,
}

impl RetiredLink {
    fn info(&self, id: LinkId) -> LinkInfo {
        LinkInfo {
            id,
            initiator: self.a,
            acceptor: self.b,
            tech: self.tech,
            established_at: self.established_at,
            open: false,
        }
    }
}

/// The link layer of the world.
#[derive(Default)]
pub(crate) struct LinkTable {
    /// Open links plus closed links that are not yet drained/retired.
    active: BTreeMap<LinkId, LinkState>,
    /// Tombstones of retired links.
    retired: BTreeMap<LinkId, RetiredLink>,
    /// Every link (active or retired) a node has ever been an endpoint of.
    by_node: BTreeMap<NodeId, BTreeSet<LinkId>>,
    /// Connection attempts awaiting resolution.
    pub(crate) attempts: BTreeMap<AttemptId, PendingAttempt>,
    /// Payloads currently travelling, by message id.
    in_flight: BTreeMap<u64, InFlightMessage>,
    /// Message ids in flight per link.
    in_flight_by_link: BTreeMap<LinkId, BTreeSet<u64>>,
    /// Lifetime count of tombstones reclaimed by compaction.
    compacted: u64,
    next_link: u64,
    next_attempt: u64,
    next_msg: u64,
}

impl LinkTable {
    pub(crate) fn new() -> Self {
        LinkTable::default()
    }

    pub(crate) fn next_link_id(&mut self) -> LinkId {
        let id = LinkId(self.next_link);
        self.next_link += 1;
        id
    }

    pub(crate) fn next_attempt_id(&mut self) -> AttemptId {
        let id = AttemptId(self.next_attempt);
        self.next_attempt += 1;
        id
    }

    pub(crate) fn next_msg_id(&mut self) -> u64 {
        let id = self.next_msg;
        self.next_msg += 1;
        id
    }

    /// Inserts a freshly established link and indexes both endpoints.
    pub(crate) fn insert(&mut self, state: LinkState) {
        self.by_node.entry(state.a).or_default().insert(state.id);
        self.by_node.entry(state.b).or_default().insert(state.id);
        self.active.insert(state.id, state);
    }

    pub(crate) fn get(&self, link: LinkId) -> Option<&LinkState> {
        self.active.get(&link)
    }

    pub(crate) fn get_mut(&mut self, link: LinkId) -> Option<&mut LinkState> {
        self.active.get_mut(&link)
    }

    /// True if the link once existed but has been closed — either still in
    /// the active table awaiting drain, or already retired.
    pub(crate) fn is_closed(&self, link: LinkId) -> bool {
        match self.active.get(&link) {
            Some(state) => !state.open,
            None => self.retired.contains_key(&link),
        }
    }

    /// Snapshot of a link, open, closed or retired.
    pub(crate) fn info(&self, link: LinkId) -> Option<LinkInfo> {
        if let Some(state) = self.active.get(&link) {
            return Some(LinkInfo::from(state));
        }
        self.retired.get(&link).map(|r| r.info(link))
    }

    /// Snapshots of every link (open, closed or retired) with `node` as an
    /// endpoint, ascending by link id — the order the old full-table scan
    /// produced.
    pub(crate) fn infos_of(&self, node: NodeId) -> Vec<LinkInfo> {
        let Some(ids) = self.by_node.get(&node) else {
            return Vec::new();
        };
        ids.iter().filter_map(|id| self.info(*id)).collect()
    }

    /// `(id, a, b)` of every open link, ascending by link id. Used by the
    /// partition-start sweep that breaks links across a fresh cut.
    pub(crate) fn open_link_endpoints(&self) -> Vec<(LinkId, NodeId, NodeId)> {
        self.active
            .values()
            .filter(|l| l.open)
            .map(|l| (l.id, l.a, l.b))
            .collect()
    }

    /// Ids of the *open* links `node` participates in, ascending.
    pub(crate) fn open_links_of(&self, node: NodeId) -> Vec<LinkId> {
        let Some(ids) = self.by_node.get(&node) else {
            return Vec::new();
        };
        ids.iter()
            .filter(|id| self.active.get(id).map(|l| l.open).unwrap_or(false))
            .copied()
            .collect()
    }

    /// Registers a payload as travelling on a link.
    pub(crate) fn send_in_flight(&mut self, msg: u64, message: InFlightMessage) {
        self.in_flight_by_link.entry(message.link).or_default().insert(msg);
        self.in_flight.insert(msg, message);
    }

    /// Removes and returns a travelling payload (delivery or loss). The
    /// caller must follow up with [`World::retire_link_if_drained`] on the
    /// returned message's link.
    pub(crate) fn take_in_flight(&mut self, msg: u64) -> Option<InFlightMessage> {
        let message = self.in_flight.remove(&msg)?;
        if let Some(set) = self.in_flight_by_link.get_mut(&message.link) {
            set.remove(&msg);
            if set.is_empty() {
                self.in_flight_by_link.remove(&message.link);
            }
        }
        Some(message)
    }

    /// Latest scheduled delivery time among payloads in flight on `link`,
    /// if any. Cost is proportional to that link's in-flight count.
    pub(crate) fn last_delivery_on(&self, link: LinkId) -> Option<SimTime> {
        self.in_flight_by_link
            .get(&link)?
            .iter()
            .filter_map(|msg| self.in_flight.get(msg).map(|m| m.deliver_at))
            .max()
    }

    /// Endpoints of `link` iff it is in the active table, closed, and fully
    /// drained — i.e. ready to retire. Open links, still-draining links and
    /// already-retired links return `None`.
    pub(crate) fn drained_endpoints(&self, link: LinkId) -> Option<(NodeId, NodeId)> {
        let state = self.active.get(&link)?;
        if state.open || self.in_flight_by_link.contains_key(&link) {
            return None;
        }
        Some((state.a, state.b))
    }

    /// Drops a closed-and-drained link from the active table, leaving a
    /// compact tombstone stamped with each endpoint's current epoch. The
    /// caller ([`World::retire_link_if_drained`]) checks drain-readiness via
    /// [`LinkTable::drained_endpoints`] and supplies the epochs.
    pub(crate) fn retire(&mut self, link: LinkId, a_epoch: u64, b_epoch: u64) {
        let Some(state) = self.active.remove(&link) else {
            return;
        };
        self.retired.insert(
            link,
            RetiredLink {
                a: state.a,
                b: state.b,
                tech: state.tech,
                established_at: state.established_at,
                a_epoch,
                b_epoch,
            },
        );
    }

    /// Tombstones indexed under `node`: `(link, a, a_epoch, b, b_epoch)` per
    /// retired link, in ascending link-id order.
    pub(crate) fn retired_links_of(&self, node: NodeId) -> Vec<(LinkId, NodeId, u64, NodeId, u64)> {
        let Some(ids) = self.by_node.get(&node) else {
            return Vec::new();
        };
        ids.iter()
            .filter_map(|id| self.retired.get(id).map(|r| (*id, r.a, r.a_epoch, r.b, r.b_epoch)))
            .collect()
    }

    /// Compacts one tombstone away entirely: the retired entry and both
    /// `by_node` index entries are removed and the link id becomes unknown
    /// to every read API. Only call once no live agent can still name the
    /// link (both endpoints crashed past their recorded epochs).
    pub(crate) fn remove_retired(&mut self, link: LinkId) {
        let Some(r) = self.retired.remove(&link) else {
            return;
        };
        for node in [r.a, r.b] {
            if let Some(set) = self.by_node.get_mut(&node) {
                set.remove(&link);
                if set.is_empty() {
                    self.by_node.remove(&node);
                }
            }
        }
        self.compacted += 1;
    }

    /// Number of links still in the active table (open or draining).
    /// Diagnostic for tests and `benchmark/`.
    pub(crate) fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Number of currently open links (the telemetry `links_open` gauge).
    pub(crate) fn open_count(&self) -> usize {
        self.active.values().filter(|l| l.open).count()
    }

    /// Number of retired tombstones. Diagnostic for tests and `benchmark/`.
    pub(crate) fn retired_count(&self) -> usize {
        self.retired.len()
    }

    /// Total tombstones reclaimed by generation-based compaction over the
    /// world's lifetime. Diagnostic for tests and `benchmark/`.
    pub(crate) fn compacted_count(&self) -> u64 {
        self.compacted
    }
}

impl World {
    /// Retires a closed link once both endpoints have been notified and its
    /// last in-flight payload has drained, stamping the tombstone with each
    /// endpoint's current epoch so generation-based compaction can tell when
    /// no live agent can still name the link. No-op for open, still-draining
    /// or already-retired links.
    pub(super) fn retire_link_if_drained(&mut self, link: LinkId) {
        let Some((a, b)) = self.links.drained_endpoints(link) else {
            return;
        };
        let epoch = |world: &World, node: NodeId| world.topology.slot(node).map(|s| s.epoch).unwrap_or(0);
        let (a_epoch, b_epoch) = (epoch(self, a), epoch(self, b));
        self.links.retire(link, a_epoch, b_epoch);
    }

    /// Generation-based tombstone compaction, run when `node` crashes (its
    /// epoch has just been bumped): every tombstone indexed under `node`
    /// whose *other* endpoint has also crashed past its recorded epoch is
    /// unreferencable by any live agent and is dropped from the retired
    /// table and both `by_node` index entries. Pure bookkeeping — no events,
    /// no RNG draws — so traces are byte-identical with or without it.
    pub(super) fn compact_retired_links_of(&mut self, node: NodeId) {
        let epoch = |world: &World, n: NodeId| world.topology.slot(n).map(|s| s.epoch).unwrap_or(u64::MAX);
        let reclaimable: Vec<LinkId> = self
            .links
            .retired_links_of(node)
            .into_iter()
            .filter(|&(_, a, a_epoch, b, b_epoch)| epoch(self, a) > a_epoch && epoch(self, b) > b_epoch)
            .map(|(link, ..)| link)
            .collect();
        for link in reclaimable {
            self.links.remove_retired(link);
        }
    }

    /// Resolves a pending connection attempt: checks liveness, radio set and
    /// range, samples the technology fault, asks the target's agent, and on
    /// acceptance establishes the link and starts its periodic check cycle.
    pub(super) fn resolve_attempt(&mut self, attempt: AttemptId) {
        let pending = match self.links.attempts.remove(&attempt) {
            Some(p) => p,
            None => return,
        };
        let PendingAttempt {
            id,
            from,
            to,
            tech,
            epoch,
            ..
        } = pending;

        let fail = |world: &mut World, error: ConnectError| {
            world.metrics.record_connect_failure(from);
            world.agent_call(from, |agent, ctx| {
                agent.on_connect_failed(ctx, id, to, tech, error);
            });
        };

        if !self.is_alive(from) {
            return;
        }
        match self.topology.slot(from) {
            // The attempt was started in a previous life of the initiator;
            // the reborn agent must not receive its callbacks.
            Some(slot) if slot.epoch != epoch => return,
            // The initiator's own radio went dark mid-attempt: a local
            // technology failure.
            Some(slot) if slot.radio_off.contains(&tech) => {
                fail(self, ConnectError::Fault);
                return;
            }
            Some(_) => {}
            None => return,
        }
        let target_ok = self
            .topology
            .slot(to)
            .map(|s| s.alive && s.techs.contains(&tech) && !s.radio_off.contains(&tech))
            .unwrap_or(false);
        if !target_ok {
            fail(self, ConnectError::Unreachable);
            return;
        }
        if !self.in_range(from, to, tech) {
            fail(self, ConnectError::OutOfRange);
            return;
        }
        // A flapping pair in its down phase refuses connections exactly like
        // a range loss. Guarded so flap-free worlds skip the scan entirely.
        if self.faults.has_flaps() && self.faults.link_flapped_down(from, to, self.now) {
            fail(self, ConnectError::OutOfRange);
            return;
        }
        // An active partition cut refuses connections the same way.
        if self.adversary.has_partitions() && self.adversary.partitioned(from, to, self.now) {
            fail(self, ConnectError::OutOfRange);
            return;
        }
        let profile = self.config.radio.profile(tech).clone();
        let faulted = {
            let slot = match self.topology.slot_mut(from) {
                Some(s) => s,
                None => return,
            };
            profile.sample_setup_fault(&mut slot.rng)
        };
        if faulted {
            fail(self, ConnectError::Fault);
            return;
        }

        let link = self.links.next_link_id();
        let accepted = self
            .agent_call(to, |agent, ctx| {
                agent.on_incoming_connection(ctx, IncomingConnection { from, tech, link })
            })
            .unwrap_or(false);
        if !accepted {
            fail(self, ConnectError::Rejected);
            return;
        }
        self.links.insert(LinkState {
            id: link,
            a: from,
            b: to,
            tech,
            established_at: self.now,
            open: true,
            closed_gracefully: false,
            quality_override: None,
        });
        self.metrics.record_connect_established(from);
        let check_at = self.now + self.config.link_check_interval;
        self.scheduler.schedule(check_at, Event::LinkCheck { link });
        self.agent_call(from, |agent, ctx| {
            agent.on_connected(ctx, id, link, to, tech);
        });
    }
}
