//! Density-adaptive stripe partitioning for the sharded world.
//!
//! PR 7's [`ShardedWorld`](super::shard::ShardedWorld) cuts the simulated
//! area into vertical stripes of **equal width**. That is the right default
//! for a uniformly populated city, but a flash crowd converging on one
//! district piles most nodes — and most events — onto one shard while the
//! others idle at every window barrier: parallel speedup is bounded by the
//! most loaded worker, not the mean. This module supplies the three pieces
//! that make the partition *adaptive*, each a pure function of simulation
//! state so the decision sequence is a deterministic property of the run:
//!
//! * [`DensityHistogram`] — a coarse, weighted histogram of node positions
//!   along the stripe axis, rebuilt at each window barrier from per-node
//!   load weights (`1 + events processed this window`).
//! * [`PartitionMap`] — the stripe boundaries themselves plus the
//!   position→stripe lookup, replacing the fixed equal-width formula.
//! * [`HysteresisController`] — the gate that triggers a re-cut only after
//!   the measured imbalance has exceeded a threshold for K *consecutive*
//!   windows, so steady cities never pay migration or re-cut costs.
//!
//! None of this can affect simulation results: the partition decides which
//! thread executes a node, never what the node observes (the PR 7
//! invariant), and every input to the cut — positions from compiled motion
//! plans, per-node event counts — is itself independent of the shard
//! layout. Boundaries are therefore a function of seed + state alone:
//! traces stay byte-identical at any shard count with adaptivity on or
//! off, and even the rebalance *decisions* replay identically run-to-run.

/// Rebalance only while `max(shard load) / mean(shard load)` exceeds this
/// ratio ([`ShardedConfig::adaptive`](super::shard::ShardedConfig::adaptive)
/// on). 1.0 would chase noise; this tolerates 25% skew.
pub const IMBALANCE_THRESHOLD: f64 = 1.25;
/// Consecutive over-threshold windows required before a re-cut — the
/// hysteresis that keeps transient spikes from thrashing the partition.
pub const PATIENCE: u32 = 3;
/// Bins of the density histogram along the stripe axis. More bins cut more
/// precisely; the barrier fold is O(nodes) either way.
pub const DENSITY_BINS: usize = 256;

/// The stripe boundaries of a sharded world: `cuts.len() + 1` vertical
/// stripes over `[min_x, max_x]`, where interior boundary `i` separates
/// stripe `i` from stripe `i + 1`. A node at `x` belongs to the stripe
/// whose half-open interval `[cut[i-1], cut[i])` contains it.
#[derive(Debug, Clone)]
pub struct PartitionMap {
    min_x: f64,
    max_x: f64,
    cuts: Vec<f64>,
}

impl PartitionMap {
    /// Equal-width stripes — the PR 7 layout and the starting point of
    /// every adaptive run.
    pub fn uniform(min_x: f64, max_x: f64, shards: usize) -> Self {
        let shards = shards.max(1);
        let width = (max_x - min_x).max(f64::MIN_POSITIVE);
        let cuts = (1..shards).map(|i| min_x + width * i as f64 / shards as f64).collect();
        PartitionMap { min_x, max_x, cuts }
    }

    /// Number of stripes.
    pub fn shards(&self) -> usize {
        self.cuts.len() + 1
    }

    /// The interior boundaries, ascending (empty for a single stripe).
    pub fn cuts(&self) -> &[f64] {
        &self.cuts
    }

    /// The stripe containing `x`. Positions outside `[min_x, max_x]` clamp
    /// to the first/last stripe.
    pub fn stripe_of(&self, x: f64) -> u32 {
        self.cuts.partition_point(|&c| x >= c) as u32
    }

    /// Replaces the interior boundaries with a freshly computed cut. The
    /// new cut must preserve the stripe count and be monotone.
    pub fn set_cuts(&mut self, cuts: &[f64]) {
        debug_assert_eq!(cuts.len(), self.cuts.len(), "stripe count must not change");
        debug_assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "cuts must be ascending");
        self.cuts.clear();
        self.cuts.extend(cuts.iter().map(|&c| c.clamp(self.min_x, self.max_x)));
    }
}

/// A coarse weighted histogram of node positions along the stripe axis,
/// folded at window barriers and consumed by [`DensityHistogram::cut_into`].
#[derive(Debug, Clone)]
pub struct DensityHistogram {
    min_x: f64,
    bin_w: f64,
    bins: Vec<u64>,
    total: u64,
}

impl DensityHistogram {
    /// An empty histogram of `bins` equal-width bins over `[min_x, max_x]`.
    pub fn new(min_x: f64, max_x: f64, bins: usize) -> Self {
        let bins = bins.max(1);
        let bin_w = ((max_x - min_x) / bins as f64).max(f64::MIN_POSITIVE);
        DensityHistogram {
            min_x,
            bin_w,
            bins: vec![0; bins],
            total: 0,
        }
    }

    /// Zeroes every bin, keeping the allocation.
    pub fn clear(&mut self) {
        self.bins.iter_mut().for_each(|b| *b = 0);
        self.total = 0;
    }

    /// Adds `weight` at position `x` (clamped into the outermost bins).
    pub fn record(&mut self, x: f64, weight: u64) {
        let idx = ((x - self.min_x) / self.bin_w) as i64;
        let idx = idx.clamp(0, self.bins.len() as i64 - 1) as usize;
        self.bins[idx] += weight;
        self.total += weight;
    }

    /// Total recorded weight.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Computes `shards - 1` interior boundaries so each stripe carries
    /// ~`total / shards` weight: a walk along the weighted prefix sum,
    /// placing boundary `k` where the cumulative weight crosses
    /// `k * total / shards` (linearly interpolated inside the crossing
    /// bin). Appends into `out` (cleared first) so callers reuse the
    /// allocation across rebalances. With zero total weight the cut
    /// degenerates to equal widths.
    pub fn cut_into(&self, shards: usize, out: &mut Vec<f64>) {
        out.clear();
        let shards = shards.max(1);
        if self.total == 0 {
            let width = self.bin_w * self.bins.len() as f64;
            out.extend((1..shards).map(|i| self.min_x + width * i as f64 / shards as f64));
            return;
        }
        let mut cum: u64 = 0;
        let mut bin = 0usize;
        for k in 1..shards {
            let target = (self.total as u128 * k as u128 / shards as u128) as u64;
            while bin < self.bins.len() && cum + self.bins[bin] < target {
                cum += self.bins[bin];
                bin += 1;
            }
            let cut = if bin >= self.bins.len() {
                self.min_x + self.bin_w * self.bins.len() as f64
            } else {
                let inside = (target - cum) as f64 / self.bins[bin].max(1) as f64;
                self.min_x + self.bin_w * (bin as f64 + inside)
            };
            // Targets ascend and the walk never backs up, so cuts are
            // monotone by construction; the max guards float round-off.
            out.push(out.last().map_or(cut, |&prev: &f64| cut.max(prev)));
        }
    }
}

/// Max-over-mean load imbalance of a shard layout: 1.0 is perfectly
/// balanced, 2.0 means the hottest shard carries twice the average. Empty
/// or zero-load layouts report 1.0 (nothing to balance).
pub fn imbalance(loads: &[u64]) -> f64 {
    if loads.len() <= 1 {
        return 1.0;
    }
    let total: u64 = loads.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let max = *loads.iter().max().expect("non-empty") as f64;
    max * loads.len() as f64 / total as f64
}

/// The rebalance gate: fires only after the imbalance has exceeded the
/// threshold for `patience` *consecutive* observations, then re-arms.
#[derive(Debug, Clone)]
pub struct HysteresisController {
    threshold: f64,
    patience: u32,
    streak: u32,
}

impl HysteresisController {
    /// A controller with the given threshold and required streak length.
    pub fn new(threshold: f64, patience: u32) -> Self {
        HysteresisController {
            threshold,
            patience: patience.max(1),
            streak: 0,
        }
    }

    /// Feeds one window's imbalance; returns `true` when a rebalance is
    /// due. Any in-threshold window resets the streak, and a fired
    /// rebalance re-arms from zero.
    pub fn observe(&mut self, imbalance: f64) -> bool {
        if imbalance > self.threshold {
            self.streak += 1;
            if self.streak >= self.patience {
                self.streak = 0;
                return true;
            }
        } else {
            self.streak = 0;
        }
        false
    }

    /// Current consecutive over-threshold window count.
    pub fn streak(&self) -> u32 {
        self.streak
    }
}

/// Live partition diagnostics, updated at every non-idle window barrier
/// (only while load tracking is on: adaptivity enabled or `shard/*`
/// telemetry requested).
#[derive(Debug, Clone, Default)]
pub struct PartitionStats {
    /// Non-idle windows observed.
    pub windows: u64,
    /// Boundary re-cuts performed.
    pub rebalances: u64,
    /// Imbalance (max/mean shard load) of the last observed window.
    pub last_imbalance: f64,
    /// Per-shard load of the last window: owned nodes + events processed.
    pub loads: Vec<u64>,
    /// Per-shard owned-node count at the last barrier.
    pub occupancy: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_map_matches_equal_width_stripes() {
        let map = PartitionMap::uniform(0.0, 100.0, 4);
        assert_eq!(map.shards(), 4);
        assert_eq!(map.cuts(), &[25.0, 50.0, 75.0]);
        assert_eq!(map.stripe_of(0.0), 0);
        assert_eq!(map.stripe_of(24.999), 0);
        assert_eq!(map.stripe_of(25.0), 1);
        assert_eq!(map.stripe_of(99.9), 3);
        // Out-of-area positions clamp into the outer stripes.
        assert_eq!(map.stripe_of(-5.0), 0);
        assert_eq!(map.stripe_of(500.0), 3);
    }

    #[test]
    fn single_stripe_has_no_cuts() {
        let map = PartitionMap::uniform(0.0, 100.0, 1);
        assert_eq!(map.shards(), 1);
        assert!(map.cuts().is_empty());
        assert_eq!(map.stripe_of(99.0), 0);
    }

    #[test]
    fn prefix_sum_cut_equalises_uniform_weight() {
        let mut hist = DensityHistogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            hist.record(i as f64 + 0.5, 1);
        }
        let mut cuts = Vec::new();
        hist.cut_into(4, &mut cuts);
        assert_eq!(cuts.len(), 3);
        for (cut, expect) in cuts.iter().zip([25.0, 50.0, 75.0]) {
            assert!((cut - expect).abs() < 1.5, "cut {cut} should sit near {expect}");
        }
    }

    #[test]
    fn prefix_sum_cut_narrows_the_hot_district() {
        // 90% of the weight lives in x ∈ [80, 90): adaptive cuts must pack
        // three of four stripes around the hotspot.
        let mut hist = DensityHistogram::new(0.0, 100.0, 100);
        for i in 0..10 {
            hist.record(i as f64 * 8.0, 1); // sparse left edge
        }
        for i in 0..90 {
            hist.record(80.0 + (i % 10) as f64, 1); // dense district
        }
        let mut cuts = Vec::new();
        hist.cut_into(4, &mut cuts);
        assert!(
            cuts[0] >= 75.0,
            "first cut {:.1} must sit at the district edge",
            cuts[0]
        );
        assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "cuts must stay sorted");
        assert!(cuts.iter().all(|c| (0.0..=100.0).contains(c)));
    }

    #[test]
    fn degenerate_all_weight_in_one_cell_stays_monotone_and_bounded() {
        let mut hist = DensityHistogram::new(0.0, 100.0, 50);
        hist.record(42.0, 1_000);
        let mut cuts = Vec::new();
        hist.cut_into(8, &mut cuts);
        assert_eq!(cuts.len(), 7);
        assert!(
            cuts.windows(2).all(|w| w[0] <= w[1]),
            "cuts must be ascending: {cuts:?}"
        );
        // Every cut lands inside the hot bin [42, 44): stripes 1..7 are
        // (nearly) empty, which the ownership map handles fine.
        assert!(cuts.iter().all(|c| (40.0..=46.0).contains(c)), "{cuts:?}");
        let map = {
            let mut m = PartitionMap::uniform(0.0, 100.0, 8);
            m.set_cuts(&cuts);
            m
        };
        assert_eq!(map.stripe_of(0.0), 0);
        assert_eq!(map.stripe_of(99.0), 7);
    }

    #[test]
    fn empty_histogram_cuts_fall_back_to_equal_width() {
        let hist = DensityHistogram::new(0.0, 80.0, 16);
        let mut cuts = Vec::new();
        hist.cut_into(4, &mut cuts);
        assert_eq!(cuts, vec![20.0, 40.0, 60.0]);
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[7]), 1.0);
        assert_eq!(imbalance(&[0, 0, 0]), 1.0);
        assert_eq!(imbalance(&[10, 10, 10, 10]), 1.0);
        assert_eq!(imbalance(&[30, 10, 0, 0]), 3.0);
    }

    #[test]
    fn hysteresis_requires_consecutive_windows() {
        let mut gate = HysteresisController::new(1.25, 3);
        // Below threshold: never fires, streak stays down.
        for _ in 0..10 {
            assert!(!gate.observe(1.1));
        }
        // Interrupted streaks reset.
        assert!(!gate.observe(2.0));
        assert!(!gate.observe(2.0));
        assert!(!gate.observe(1.0));
        assert_eq!(gate.streak(), 0);
        // Three consecutive hot windows fire, then the gate re-arms.
        assert!(!gate.observe(2.0));
        assert!(!gate.observe(2.0));
        assert!(gate.observe(2.0));
        assert_eq!(gate.streak(), 0);
        assert!(!gate.observe(2.0));
    }

    #[test]
    fn boundary_exactly_at_threshold_does_not_fire() {
        let mut gate = HysteresisController::new(1.25, 1);
        assert!(!gate.observe(1.25), "threshold is exclusive");
        assert!(gate.observe(1.2500001));
    }
}
