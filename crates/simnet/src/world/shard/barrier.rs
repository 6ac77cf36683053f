//! What the coordinator does between passes: the window start, the barrier,
//! the load fold, the debug audit, and the folds a run ends or samples with.

use super::node::LinkStatus;
use super::ShardedWorld;
use crate::faults::FaultStats;
use crate::metrics::export_world_frame;
use crate::node::NodeId;
use crate::radio::RadioTech;
use crate::telemetry::{Histogram, PAYLOAD_SIZE_BOUNDS};
use crate::time::SimTime;
use crate::world::partition::imbalance;

impl ShardedWorld {
    /// Emits a frame if a sample boundary was crossed: the aggregates every
    /// run ends by assembling, plus the gauges. Each is a commutative sum (or
    /// histogram merge) over node state at the barrier, which does not depend
    /// on the shard layout, so the recorded series are identical at any shard
    /// count.
    pub(super) fn sample_telemetry(&mut self) {
        let due = self.telemetry.as_ref().map(|t| t.due(self.now)).unwrap_or(false);
        if !due {
            return;
        }
        self.assemble();
        let mut alive = 0usize;
        let mut open_halves = 0usize;
        let mut payload = Histogram::new(PAYLOAD_SIZE_BOUNDS);
        for shard in &self.shards {
            for node in shard.nodes.iter().filter_map(|n| n.as_deref()) {
                alive += usize::from(node.radio.alive);
                open_halves += node
                    .links
                    .values()
                    .filter(|half| half.status == LinkStatus::Open)
                    .count();
            }
            if let Some(hist) = shard.out.payload_hist.as_ref() {
                payload.merge(hist);
            }
        }
        let now = self.now;
        let tel = self.telemetry.as_mut().expect("checked above");
        let (global, per_tech) = (self.metrics.global(), self.metrics.per_tech());
        let links_open = open_halves as f64 / 2.0;
        export_world_frame(tel, alive, links_open, global, &self.stats, per_tech, Some(payload));
        if self.shard_series {
            for (s, (&load, &occ)) in self.pstats.loads.iter().zip(&self.pstats.occupancy).enumerate() {
                let label = format!("s{s}");
                tel.set_gauge("shard", "load", Some(&label), load as f64);
                tel.set_gauge("shard", "occupancy", Some(&label), occ as f64);
            }
            tel.set_gauge("shard", "imbalance", None, self.pstats.last_imbalance);
            tel.set_counter("shard", "rebalances", None, self.pstats.rebalances);
        }
        tel.sample(now);
    }

    /// Brings the spatial index up to the window start. Nodes added since the
    /// last one enter it here, not in [`ShardedWorld::add_node`]: building a
    /// world stays a plain append per node.
    pub(super) fn refresh_grid(&mut self) {
        for raw in self.grid.node_count()..self.plans.len() {
            self.grid
                .insert(NodeId::from_raw(raw as u64), &self.plans[raw], self.now);
        }
        self.grid.refresh(self.now, |id| &self.plans[id.as_raw() as usize]);
    }

    /// Brings the published snapshot up to the window start: every node
    /// whose state changed during the last pass was noted by its shard.
    pub(super) fn apply_snapshot_deltas(&mut self) {
        for shard in &mut self.shards {
            for (raw, published) in shard.snapshot_delta.drain(..) {
                self.snapshot[raw] = published;
            }
        }
    }

    /// The window barrier: fold the shards' loads (and maybe re-cut the
    /// stripes), migrate ownership to the stripe containing each node's
    /// position at `t1`, then route every outbox message to the inbox of the
    /// shard that owns its addressee. Sorting and queueing the mail is the
    /// owner's job, inside its next pass.
    pub(super) fn barrier(&mut self, t1: SimTime) {
        #[cfg(debug_assertions)]
        self.audit(t1);
        let recut = self.fold_loads();
        if self.shards.len() > 1 {
            // A fixed node leaves its stripe only when the stripes move.
            if recut {
                for raw in 0..self.plans.len() {
                    self.rehome(raw, t1);
                }
            } else {
                for i in 0..self.movers.len() {
                    self.rehome(self.movers[i], t1);
                }
            }
        }
        for s in 0..self.shards.len() {
            let mut outbox = std::mem::take(&mut self.shards[s].out.outbox);
            for msg in outbox.drain(..) {
                let raw = msg.to.as_raw() as usize;
                let owner = &mut self.shards[self.owner[raw] as usize];
                owner.note_pending(raw, msg.at);
                owner.inbox.push(msg);
            }
            self.shards[s].out.outbox = outbox;
        }
    }

    /// Consistency audit, run by every debug build at each barrier: the pass
    /// consumed its inbox and left exact head times, each shard's owned count
    /// is its occupied slots, every link and attempt
    /// table is sorted and holds no storage while empty, and no open
    /// initiator half has been left unwatched past an instant at which it
    /// could leave range (`link::audit_skipped_polls`; the events before `t1`
    /// have run).
    #[cfg(debug_assertions)]
    fn audit(&self, t1: SimTime) {
        let interval = self.config.link_check_interval;
        for shard in &self.shards {
            assert!(shard.inbox.is_empty(), "a pass consumes its whole inbox");
            let occupied = shard.nodes.iter().filter(|n| n.is_some()).count();
            assert_eq!(shard.owned, occupied as u64, "owned count out of step");
            for (raw, &due) in shard.due.iter().enumerate() {
                let head = shard.nodes[raw].as_deref().and_then(|n| n.queue.peek_time());
                assert_eq!(due, head.unwrap_or(SimTime::MAX), "stale head time for node {raw}");
            }
            for node in shard.nodes.iter().filter_map(|n| n.as_deref()) {
                node.links.audit();
                node.pending.audit();
                let own = &self.plans[node.id.as_raw() as usize];
                for (link, half) in node.links.iter() {
                    if !half.initiator || half.status != LinkStatus::Open {
                        continue;
                    }
                    let peer = &self.plans[half.peer.as_raw() as usize];
                    let profile = self.config.radio.profile(half.tech);
                    crate::link::audit_skipped_polls(link, half.next_check, t1, t1, interval, |at| {
                        !profile.in_range(own.position_at(at).distance(peer.position_at(at)))
                    });
                }
            }
        }
    }

    /// Hands node `raw` to the shard whose stripe contains its position at `t1`.
    fn rehome(&mut self, raw: usize, t1: SimTime) {
        let current = self.owner[raw] as usize;
        let target = self.stripe_of(self.plans[raw].position_at(t1)) as usize;
        if target == current {
            return;
        }
        let node = self.shards[current].nodes[raw].take().expect("owned");
        let due = std::mem::replace(&mut self.shards[current].due[raw], SimTime::MAX);
        self.shards[current].owned -= 1;
        self.shards[target].nodes[raw] = Some(node);
        self.shards[target].owned += 1;
        self.shards[target].note_pending(raw, due);
        self.owner[raw] = target as u32;
    }

    /// Folds the window that just ended into the partition stats — a shard's
    /// load is the nodes it owns plus the events its pass ran — and, when
    /// the hysteresis gate fires, re-cuts the stripes along those loads.
    /// Both counts are simulation state (how many nodes a stripe holds, how
    /// many events they ran), so the cut sequence is a deterministic function
    /// of seed + state: never wall clock or thread identity. Returns whether the
    /// stripes were re-cut.
    fn fold_loads(&mut self) -> bool {
        let pstats = &mut self.pstats;
        pstats.occupancy.clear();
        pstats.occupancy.extend(self.shards.iter().map(|s| s.owned));
        pstats.loads.clear();
        pstats
            .loads
            .extend(self.shards.iter_mut().map(|s| s.owned + std::mem::take(&mut s.events)));
        pstats.windows += 1;
        pstats.last_imbalance = imbalance(&pstats.loads);
        let recut = self.gate.observe(pstats.last_imbalance);
        if recut {
            self.partition.rebalance(&pstats.loads);
            pstats.rebalances += 1;
        }
        recut
    }

    /// Rebuilds the aggregated metrics, fault stats and lifecycle stream
    /// from the per-node tallies (fault ones only where a node has any).
    /// Sums are commutative and the lifecycle is sorted canonically, so the
    /// result is independent of shard layout.
    pub(super) fn assemble(&mut self) {
        self.metrics.reset();
        self.stats = FaultStats::default();
        self.lifecycle.clear();
        for shard in &self.shards {
            for node in shard.nodes.iter().filter_map(|n| n.as_deref()) {
                self.metrics.absorb_node(node.id, &node.counters);
                if let Some(faults) = node.faults.as_deref() {
                    self.stats.absorb(&faults.stats);
                    self.lifecycle.extend_from_slice(&faults.lifecycle);
                }
            }
            for (idx, &(messages, bytes)) in shard.out.tech_msgs.iter().enumerate() {
                self.metrics.absorb_tech(RadioTech::ALL[idx], messages, bytes);
            }
        }
        // Stable sort: each node's events are already time-ordered, so
        // (time, node) yields the canonical merged stream.
        self.lifecycle.sort_by_key(|e| (e.at, e.node.as_raw()));
    }
}
