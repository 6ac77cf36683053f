//! Link bookkeeping: the table of live links and the per-node link index.
//!
//! The table holds a link while it is open or while a payload sent on it is
//! still travelling; the moment it is closed and drained it leaves both maps,
//! so the table's size follows the links that exist, not the links that ever
//! existed. Link ids are handed out in sequence, which is all the memory a
//! dropped link needs: an id below the counter that is not in the table was
//! closed. Payloads in flight and pending connection requests are not rows
//! here — each travels inside the one event that will resolve it — and a
//! link only counts what it has in flight.
//!
//! Every link opens and closes an entry in both maps, so neither is a
//! B-tree. The links themselves sit in a [`FastMap`] (link ids are made by
//! the simulator, so the cheap hash is sound) whose iteration order no caller
//! may observe: the one walk whose order reaches agents, the partition
//! sweep's [`LinkTable::open_link_endpoints`], sorts by id. Every other
//! ordered walk goes through the per-node index, an [`IdTable`] per raw node
//! id that lists the node's links in ascending id, so `links_of`,
//! `crash_node` and the disconnect ordering cost one node's links instead of
//! the world total.

use super::World;
use crate::hash::FastMap;
use crate::link::{LinkInfo, LinkState, PendingAttempt};
use crate::node::{AttemptId, ConnectError, IncomingConnection, LinkId, NodeId};
use crate::table::IdTable;
use crate::time::SimTime;

/// The link layer of the world.
#[derive(Default)]
pub(crate) struct LinkTable {
    /// Open links plus closed links with a payload still in flight.
    active: FastMap<LinkId, LinkState>,
    /// The links in `active`, by the raw id of each endpoint.
    by_node: Vec<IdTable<LinkId, ()>>,
    next_link: u64,
    next_attempt: u64,
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

    /// The ids of the links in the table with `node` as an endpoint,
    /// ascending.
    fn ids_of(&self, node: NodeId) -> impl Iterator<Item = LinkId> + '_ {
        self.by_node
            .get(node.as_raw() as usize)
            .into_iter()
            .flat_map(IdTable::keys)
    }

    /// Inserts a freshly established link and indexes both endpoints.
    pub(crate) fn insert(&mut self, state: LinkState) {
        for node in [state.a, state.b] {
            let raw = node.as_raw() as usize;
            if raw >= self.by_node.len() {
                self.by_node.resize_with(raw + 1, IdTable::default);
            }
            self.by_node[raw].insert(state.id, ());
        }
        self.active.insert(state.id, state);
    }

    pub(crate) fn get(&self, link: LinkId) -> Option<&LinkState> {
        self.active.get(&link)
    }

    pub(crate) fn get_mut(&mut self, link: LinkId) -> Option<&mut LinkState> {
        self.active.get_mut(&link)
    }

    /// True if the link id was handed out and the link is no longer open —
    /// still draining in the table, or already dropped from it.
    pub(crate) fn is_closed(&self, link: LinkId) -> bool {
        match self.active.get(&link) {
            Some(state) => !state.open,
            None => link.0 < self.next_link,
        }
    }

    /// Snapshot of an open or still-draining link.
    pub(crate) fn info(&self, link: LinkId) -> Option<LinkInfo> {
        self.active.get(&link).map(LinkInfo::from)
    }

    /// Snapshots of every open or still-draining link with `node` as an
    /// endpoint, ascending by link id.
    pub(crate) fn infos_of(&self, node: NodeId) -> Vec<LinkInfo> {
        self.ids_of(node).filter_map(|id| self.info(id)).collect()
    }

    /// `(id, a, b)` of every open link, ascending by link id. Used by the
    /// partition-start sweep that breaks links across a fresh cut, in this
    /// order; the sort is what keeps the hash map's order unobserved.
    pub(crate) fn open_link_endpoints(&self) -> Vec<(LinkId, NodeId, NodeId)> {
        let mut open: Vec<_> = self.open().map(|l| (l.id, l.a, l.b)).collect();
        open.sort_unstable_by_key(|&(id, _, _)| id);
        open
    }

    /// Ids of the *open* links `node` participates in, ascending.
    pub(crate) fn open_links_of(&self, node: NodeId) -> Vec<LinkId> {
        self.ids_of(node)
            .filter(|id| self.active.get(id).is_some_and(|l| l.open))
            .collect()
    }

    /// Drops `link` from the table and the node index once it is closed and
    /// nothing sent on it is still in flight. Call after closing a link and
    /// after taking a payload off one; a no-op for open, draining or
    /// already-dropped links.
    pub(crate) fn drop_if_drained(&mut self, link: LinkId) {
        let Some(state) = self.active.get(&link) else {
            return;
        };
        if state.open || state.in_flight > 0 {
            return;
        }
        for node in [state.a, state.b] {
            if let Some(ids) = self.by_node.get_mut(node.as_raw() as usize) {
                ids.remove(&link);
            }
        }
        self.active.remove(&link);
    }

    /// Number of links in the table (open or draining). Diagnostic for tests
    /// and `benchmark/`.
    pub(crate) fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Number of currently open links (the telemetry `links_open` gauge).
    pub(crate) fn open_count(&self) -> usize {
        self.open().count()
    }

    /// Every open link, in no particular order.
    pub(crate) fn open(&self) -> impl Iterator<Item = &LinkState> {
        self.active.values().filter(|l| l.open)
    }

    /// Checks that the two maps describe the same links and that every
    /// per-node table is sorted and holds no storage while empty, and
    /// returns the number of payloads in flight across all links.
    #[cfg(debug_assertions)]
    pub(crate) fn audit(&self) -> u64 {
        for (raw, ids) in self.by_node.iter().enumerate() {
            ids.audit();
            let node = NodeId::from_raw(raw as u64);
            for id in ids.keys() {
                let state = self.active.get(&id);
                assert!(
                    state.is_some_and(|l| l.has_endpoint(node)),
                    "{node} indexes {id:?}, which is not a live link of it"
                );
            }
        }
        for state in self.active.values() {
            assert!(
                state.open || state.in_flight > 0,
                "{:?} is closed and drained",
                state.id
            );
            for node in [state.a, state.b] {
                let ids = self.by_node.get(node.as_raw() as usize);
                let indexed = ids.is_some_and(|ids| ids.contains_key(&state.id));
                assert!(indexed, "{:?} is not indexed under {node}", state.id);
            }
        }
        self.active.values().map(|l| u64::from(l.in_flight)).sum()
    }
}

impl World {
    /// Resolves a pending connection attempt: checks liveness, radio set and
    /// range, samples the technology fault, asks the target's agent, and on
    /// acceptance establishes the link and queues its first check, if the
    /// link is one that time can break.
    pub(super) fn resolve_attempt(&mut self, pending: PendingAttempt) {
        let PendingAttempt {
            id,
            from,
            to,
            tech,
            epoch,
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
            Some(slot) if slot.radio.radio_off.contains(tech) => {
                fail(self, ConnectError::Fault);
                return;
            }
            Some(_) => {}
            None => return,
        }
        if !self.radio_enabled(to, tech) {
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
            in_flight: 0,
            last_delivery: SimTime::ZERO,
            next_check: None,
        });
        self.metrics.record_connect_established(from);
        self.arm_check(link);
        self.agent_call(from, |agent, ctx| {
            agent.on_connected(ctx, id, link, to, tech);
        });
    }
}
