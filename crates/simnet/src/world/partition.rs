//! Load-balanced stripe partitioning for the sharded world.
//!
//! [`ShardedWorld`](super::shard::ShardedWorld) cuts the simulated area into
//! vertical stripes, one per shard. Equal widths suit a uniformly populated
//! city, but a flash crowd converging on one district piles most nodes — and
//! most events — onto one shard while the others idle at every window
//! barrier: parallel speedup is bounded by the most loaded worker, not the
//! mean. So the stripes balance themselves, from three pieces:
//!
//! * the per-shard load of each window, `owned nodes + events run`, counted
//!   by the shards themselves, and its [`imbalance`] (max over mean);
//! * [`HysteresisController`] — the gate that triggers a re-cut only after
//!   the imbalance has exceeded a threshold for K *consecutive* windows, so
//!   steady cities never pay migration or re-cut costs;
//! * [`PartitionMap`] — the stripe boundaries, the position→stripe lookup
//!   and [`PartitionMap::rebalance`], which moves the boundaries so each
//!   stripe carries about the same share of the load it was measured at.
//!
//! None of this can affect simulation results: the partition decides which
//! thread executes a node, never what the node observes, and every input to
//! the cut — node counts and events run per window — is itself pure
//! simulation state. Boundaries are therefore a function of seed + state
//! alone: traces stay byte-identical at any shard count, and even the
//! rebalance *decisions* replay identically run-to-run.

/// Rebalance only while `max(shard load) / mean(shard load)` exceeds this
/// ratio. 1.0 would chase noise; this tolerates 25% skew.
pub const IMBALANCE_THRESHOLD: f64 = 1.25;
/// Consecutive over-threshold windows required before a re-cut — the
/// hysteresis that keeps transient spikes from thrashing the partition.
pub const PATIENCE: u32 = 3;

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
    /// Equal-width stripes: where every run starts.
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

    /// Re-cuts the stripes so each carries about `1 / shards` of `loads`,
    /// one load per current stripe. Load is taken as uniform inside each
    /// stripe, so cut `k` goes where the cumulative load crosses `k / shards`
    /// of the total. That is exact only for load that really is uniform
    /// within stripes; the gate fires again while imbalance persists, and
    /// the repeated cuts converge. Zero total load and a single stripe leave
    /// the cuts as they are.
    pub fn rebalance(&mut self, loads: &[u64]) {
        debug_assert_eq!(loads.len(), self.shards(), "one load per stripe");
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return;
        }
        // Stripe `i` spans `bounds[i]..bounds[i + 1]`.
        let bounds: Vec<f64> = std::iter::once(self.min_x)
            .chain(self.cuts.drain(..))
            .chain([self.max_x])
            .collect();
        let (mut stripe, mut before) = (0, 0u64);
        for k in 1..loads.len() {
            let target = (total as u128 * k as u128 / loads.len() as u128) as u64;
            // The total exceeds every target, so the walk stops inside a
            // stripe that carries load.
            while before + loads[stripe] <= target {
                before += loads[stripe];
                stripe += 1;
            }
            let (lo, hi) = (bounds[stripe], bounds[stripe + 1]);
            let inside = (target - before) as f64 / loads[stripe] as f64;
            // Targets ascend and the walk never backs up; the clamp keeps
            // float round-off from crossing the stripe's ends.
            self.cuts.push((lo + (hi - lo) * inside).clamp(lo, hi));
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

/// Live partition diagnostics, updated at every non-idle window barrier.
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
    use crate::rng::SimRng;

    /// Per-stripe counts of `points` under `map`.
    fn loads_of(map: &PartitionMap, points: &[f64]) -> Vec<u64> {
        let mut loads = vec![0; map.shards()];
        for &x in points {
            loads[map.stripe_of(x) as usize] += 1;
        }
        loads
    }

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
        // Equal loads are already balanced: the cuts stay exactly put, on
        // equal-width stripes and on skewed ones alike.
        let mut map = PartitionMap::uniform(0.0, 100.0, 4);
        map.rebalance(&[7, 7, 7, 7]);
        assert_eq!(map.cuts(), &[25.0, 50.0, 75.0]);
        let mut map = PartitionMap::uniform(-3.0, 0.7, 3);
        map.rebalance(&[10, 1, 0]);
        let skewed = map.cuts().to_vec();
        map.rebalance(&[5, 5, 5]);
        assert_eq!(map.cuts(), &skewed[..]);
    }

    #[test]
    fn prefix_sum_cut_narrows_the_hot_district() {
        // 10 on the left half, 90 on the right: the cut moves right to where
        // half the load lies, 40 of the hot stripe's 90 into it.
        let mut map = PartitionMap::uniform(0.0, 100.0, 2);
        map.rebalance(&[10, 90]);
        let expect = 100.0 * (0.5 + 0.5 * 40.0 / 90.0);
        assert!((map.cuts()[0] - expect).abs() < 1e-9, "{:?} vs {expect}", map.cuts());
        // And back: the mirror image moves it left by as much.
        let mut map = PartitionMap::uniform(0.0, 100.0, 2);
        map.rebalance(&[90, 10]);
        assert!((map.cuts()[0] - (100.0 - expect)).abs() < 1e-9, "{:?}", map.cuts());
    }

    #[test]
    fn zero_load_and_one_stripe_are_no_ops() {
        let mut map = PartitionMap::uniform(0.0, 80.0, 4);
        map.rebalance(&[0, 0, 0, 0]);
        assert_eq!(map.cuts(), &[20.0, 40.0, 60.0]);
        let mut one = PartitionMap::uniform(0.0, 80.0, 1);
        one.rebalance(&[12]);
        assert!(one.cuts().is_empty());
        assert_eq!(one.stripe_of(79.0), 0);
    }

    #[test]
    fn degenerate_all_weight_in_one_cell_stays_monotone_and_bounded() {
        // All the load in one stripe of eight: every cut lands inside it,
        // the stripes either side collapse, and lookup still covers the area.
        let mut map = PartitionMap::uniform(0.0, 100.0, 8);
        let mut loads = [0; 8];
        loads[3] = 1_000;
        map.rebalance(&loads);
        let cuts = map.cuts();
        assert_eq!(cuts.len(), 7);
        assert!(
            cuts.windows(2).all(|w| w[0] <= w[1]),
            "cuts must be ascending: {cuts:?}"
        );
        assert!(cuts.iter().all(|c| (37.5..=50.0).contains(c)), "{cuts:?}");
        assert_eq!(map.stripe_of(0.0), 0);
        assert_eq!(map.stripe_of(99.0), 7);
    }

    #[test]
    fn random_loads_keep_the_cuts_ascending_and_inside_the_area() {
        let mut rng = SimRng::new(0xC075);
        let (min_x, max_x) = (-40.0, 260.0);
        for round in 0..1_000 {
            let shards = 2 + rng.index(7);
            let mut map = PartitionMap::uniform(min_x, max_x, shards);
            // A few re-cuts in a row, so later ones start from skewed stripes.
            for _ in 0..3 {
                let loads: Vec<u64> = (0..shards)
                    .map(|_| if rng.chance(0.3) { 0 } else { rng.range(0..10_000u64) })
                    .collect();
                map.rebalance(&loads);
                let cuts = map.cuts();
                assert_eq!(cuts.len(), shards - 1, "round {round}");
                assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "round {round}: {cuts:?}");
                assert!(
                    cuts.iter().all(|c| (min_x..=max_x).contains(c)),
                    "round {round}: {cuts:?}"
                );
            }
        }
    }

    #[test]
    fn repeated_recuts_balance_a_ninety_percent_hotspot_within_four_rounds() {
        // 900 points in [80, 90), 100 spread evenly over the other nine
        // tenths: the equal-width cut leaves one stripe with nearly all of it.
        let hot = (0..900).map(|i| 80.0 + 10.0 * (i as f64 + 0.5) / 900.0);
        let cold = (0..100).map(|i| {
            let x = 90.0 * (i as f64 + 0.5) / 100.0;
            if x < 80.0 {
                x
            } else {
                x + 10.0
            }
        });
        let points: Vec<f64> = hot.chain(cold).collect();
        for shards in [2, 3, 4, 8] {
            let mut map = PartitionMap::uniform(0.0, 100.0, shards);
            let start = imbalance(&loads_of(&map, &points));
            assert!(start > 1.8, "{shards} shards start at {start:.2}");
            let mut rounds = 0;
            while imbalance(&loads_of(&map, &points)) > IMBALANCE_THRESHOLD {
                assert!(rounds < 4, "{shards} shards still at {:?}", loads_of(&map, &points));
                map.rebalance(&loads_of(&map, &points));
                rounds += 1;
            }
        }
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
