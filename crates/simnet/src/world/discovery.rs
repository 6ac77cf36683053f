//! Device discovery: inquiry completion and neighbourhood queries.
//!
//! For range-bounded technologies, candidate peers come from one walk of the
//! spatial grid around the asker instead of a scan over every node in the
//! world; the exact filters (liveness, radio set, discoverability, the
//! Bluetooth inquiry asymmetry, the precise range predicate) then run on each
//! candidate in place. A fixed candidate is range-checked from the position
//! its bucket entry carries before its slot is read; a walker's plan is read
//! as before. The grid is brought up to the current instant before every
//! walk, so no speed bound is needed. The survivors are sorted by node id —
//! the order the full scan visited them — so the candidate list, and
//! therefore every RNG draw made while sampling misses and qualities, is
//! identical to the pre-index implementation. Infrastructure technologies
//! (GPRS) have no radius to bound the walk with and keep the full scan.

use super::World;
use crate::geometry::Point;
use crate::node::NodeId;
use crate::radio::{RadioProfile, RadioState, RadioTech};
use crate::time::SimTime;

impl World {
    /// The radius to bound a grid query with, or `None` when the technology's
    /// coverage predicate is not radius-shaped and only the full scan is
    /// exact. GPRS coverage is decided by dead zones regardless of distance
    /// (even if someone configures a finite `range_m` on its profile), so it
    /// never uses the grid.
    fn grid_query_radius(&self, tech: RadioTech) -> Option<f64> {
        if tech == RadioTech::Gprs {
            return None;
        }
        self.config.radio.profile(tech).range_m
    }

    /// Ground-truth list of nodes within radio range of `node` for `tech`
    /// (regardless of discoverability, but excluding nodes whose radio a
    /// fault has forced dark — they cannot communicate at all). Used by
    /// experiments that need the true topology to compare discovery results
    /// against. Empty when `node` itself is crashed or its radio is dark.
    pub fn neighbors_in_range(&self, node: NodeId, tech: RadioTech) -> Vec<NodeId> {
        let pos = match self.position_of(node) {
            Some(p) => p,
            None => return Vec::new(),
        };
        if !self.radio_enabled(node, tech) {
            return Vec::new();
        }
        let range = match self.grid_query_radius(tech) {
            Some(r) => r,
            None => return self.neighbors_in_range_reference(node, tech),
        };
        self.topology.refresh_grid(self.now);
        let near = self.grid_peers(node, pos, range, tech, |radio| radio.enabled(tech));
        near.into_iter().map(|(id, _)| id).collect()
    }

    /// Reference implementation of [`World::neighbors_in_range`] that scans
    /// every node instead of consulting the spatial index. Kept as the
    /// oracle the determinism tests compare the grid path against; results
    /// are always identical.
    pub fn neighbors_in_range_reference(&self, node: NodeId, tech: RadioTech) -> Vec<NodeId> {
        let pos = match self.position_of(node) {
            Some(p) => p,
            None => return Vec::new(),
        };
        if !self.radio_enabled(node, tech) {
            return Vec::new();
        }
        self.topology
            .nodes
            .iter()
            .filter(|other| other.id != node && other.radio.enabled(tech))
            .filter(|other| !(self.adversary.has_partitions() && self.adversary.partitioned(node, other.id, self.now)))
            .filter(|other| self.pair_in_range(pos, other.plan.position_at(self.now), tech))
            .map(|other| other.id)
            .collect()
    }

    pub(super) fn complete_inquiry(&mut self, node: NodeId, tech: RadioTech) {
        let pos = match self.position_of(node) {
            Some(p) => p,
            None => return,
        };
        if !self.is_alive(node) {
            return;
        }
        let profile = self.config.radio.profile(tech);
        let now = self.now;

        // Collect candidate peers first (immutable pass), then sample
        // miss/quality with the inquirer's RNG. Candidates are ordered by
        // node id in both paths, so the RNG draw sequence is stable. An
        // inquirer whose own radio a fault forced dark scans into the void:
        // the completion callback still fires, with no hits.
        let candidates: Vec<(NodeId, f64)> = if !self.radio_enabled(node, tech) {
            Vec::new()
        } else {
            match self.grid_query_radius(tech) {
                Some(range) => self.inquiry_candidates_grid(node, pos, range, tech, profile, now),
                None => self.inquiry_candidates_scan(node, pos, tech, profile, now),
            }
        };

        let Some(slot) = self.topology.slot_mut(node) else {
            return;
        };
        let hits = profile.sample_inquiry(candidates, &mut slot.rng);
        // The scan is over: the node becomes discoverable again.
        slot.radio.end_inquiry(tech, now);
        self.metrics.record_inquiry_hits(node, hits.len() as u64);
        self.agent_call(node, |agent, ctx| agent.on_inquiry_complete(ctx, tech, hits));
    }

    /// Inquiry candidates for a range-bounded technology, via the grid.
    fn inquiry_candidates_grid(
        &self,
        node: NodeId,
        pos: Point,
        range: f64,
        tech: RadioTech,
        profile: &RadioProfile,
        now: SimTime,
    ) -> Vec<(NodeId, f64)> {
        let span = self.profiler().begin();
        self.topology.refresh_grid(now);
        self.profiler().end(crate::telemetry::Phase::GridRefresh, span);
        self.grid_peers(node, pos, range, tech, |radio| {
            radio.answers_inquiry(tech, profile, now)
        })
    }

    /// The one grid walk both queries take: every node but `node`, not cut
    /// off from it by a partition, whose radio `passes`, within `range` of
    /// `pos` on `tech` at the current instant — with its distance, in id
    /// order. The grid must be refreshed to now.
    fn grid_peers(
        &self,
        node: NodeId,
        pos: Point,
        range: f64,
        tech: RadioTech,
        passes: impl Fn(&RadioState) -> bool,
    ) -> Vec<(NodeId, f64)> {
        let (now, profile) = (self.now, self.config.radio.profile(tech));
        let mut peers = Vec::new();
        self.topology.for_each_near(pos, range, |entry| {
            let id = entry.node();
            // A fixed candidate out of range is dropped before its slot is read.
            let fixed_distance = entry.fixed_at().map(|at| pos.distance(at));
            if id == node || fixed_distance.is_some_and(|d| !profile.in_range(d)) {
                return;
            }
            if self.adversary.has_partitions() && self.adversary.partitioned(node, id, now) {
                return;
            }
            let Some(other) = self.topology.slot(id) else {
                return;
            };
            if !passes(&other.radio) {
                return;
            }
            let distance = fixed_distance.unwrap_or_else(|| pos.distance(other.plan.position_at(now)));
            if profile.in_range(distance) {
                peers.push((id, distance));
            }
        });
        peers.sort_unstable_by_key(|&(id, _)| id);
        peers
    }

    /// Inquiry candidates for an infrastructure technology (no radius to
    /// bound a grid query): the full scan, with coverage decided by dead
    /// zones through [`World::pair_in_range`].
    fn inquiry_candidates_scan(
        &self,
        node: NodeId,
        pos: Point,
        tech: RadioTech,
        profile: &RadioProfile,
        now: SimTime,
    ) -> Vec<(NodeId, f64)> {
        self.topology
            .nodes
            .iter()
            .filter(|other| other.id != node && other.radio.answers_inquiry(tech, profile, now))
            .filter(|other| !(self.adversary.has_partitions() && self.adversary.partitioned(node, other.id, now)))
            .filter_map(|other| {
                let other_pos = other.plan.position_at(now);
                self.pair_in_range(pos, other_pos, tech)
                    .then(|| (other.id, pos.distance(other_pos)))
            })
            .collect()
    }
}
