//! A uniform spatial grid over node positions, keyed by mobility-aware
//! cell residency and stored in a dense, wrapped table.
//!
//! Every node occupies exactly one square cell. Because trajectories are
//! compiled [`MotionPlan`]s, the exact instant a node leaves its current
//! cell is computable up front ([`MotionPlan::departure_time`]), so the
//! index re-buckets a node only when it actually crosses a cell boundary —
//! tracked by a refresh heap — instead of on every query. Stationary nodes
//! are bucketed once and never touched again.
//!
//! **The table.** Cell `(i, j)` lives in slot `(i mod W, j mod H)` (the
//! Euclidean remainder, so negative cells wrap too) of a dense array of
//! buckets: no hashing on the query path. `W` and `H` are powers of two whose
//! product is at least half the number of nodes ever inserted and at least
//! 64; they double as nodes are added, re-bucketing every entry, so an insert
//! stays amortised O(1) and the table's size follows the node count, not the
//! layout (a caller that knows how many nodes are coming sizes it once,
//! [`SpatialGrid::reserve`]). Cells farther apart than the table alias onto one slot; that only
//! adds candidates.
//!
//! **An entry** is the node's id, plus its position when its plan never
//! moves ([`MotionPlan::fixed_position`]): that position is what
//! [`MotionPlan::position_at`] answers at every instant, so a caller can
//! range-check a fixed candidate without reading its plan.
//!
//! **A query** ([`SpatialGrid::for_each_near`]) walks the entries of every
//! slot covering the square of cells around the query disk (its radius plus
//! a sub-millimetre pad), each slot at most once, in no particular order. It
//! visits a *superset* of the nodes within the radius — the occupants of
//! those cells plus whatever aliases onto the same slots — and every tracked
//! node at most once; callers apply the exact range predicate, and sort what
//! survives when order matters. This keeps the grid a pure accelerator:
//! results are byte-identical to a full scan.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::geometry::{Point, Rect};
use crate::mobility::MotionPlan;
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// Slack added to every range query, in metres. It covers (a) nodes sitting
/// exactly on a cell boundary, where floating-point index arithmetic could
/// otherwise exclude their cell, and (b) the sub-microsecond drift a mobile
/// node can accumulate under the forced one-microsecond minimum residency.
/// Both effects are orders of magnitude below a millimetre.
const QUERY_PAD_M: f64 = 1e-3;

/// Minimum residency: a re-bucketed node is not reconsidered for at least
/// one simulation tick, guaranteeing refresh progress even when a node sits
/// exactly on a cell boundary.
const MIN_RESIDENCY: SimDuration = SimDuration::from_micros(1);

/// The smallest table: 8 × 8 slots.
const MIN_SLOTS_LOG2: u32 = 6;

#[derive(Debug, Clone, Copy)]
struct Residency {
    cell: (i64, i64),
    valid_until: SimTime,
    generation: u64,
    tracked: bool,
}

/// One bucket entry: a node, and where it stands if it never moves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    node: NodeId,
    /// The fixed node's position; `x` is NaN for a node whose plan moves.
    at: Point,
}

impl Entry {
    fn new(node: NodeId, plan: &MotionPlan) -> Self {
        let at = plan.fixed_position().unwrap_or(Point::new(f64::NAN, f64::NAN));
        Entry { node, at }
    }

    /// The node this entry indexes.
    #[inline]
    pub(crate) fn node(&self) -> NodeId {
        self.node
    }

    /// The node's position at every instant, if its plan never moves.
    #[inline]
    pub(crate) fn fixed_at(&self) -> Option<Point> {
        (!self.at.x.is_nan()).then_some(self.at)
    }
}

/// The dense bucket array: cell `(i, j)` lives in slot
/// `(i mod 2^cols_log2, j mod 2^rows_log2)`, stored row-major.
#[derive(Debug)]
struct CellTable {
    cols_log2: u32,
    rows_log2: u32,
    buckets: Vec<Vec<Entry>>,
}

impl CellTable {
    /// An empty table of `2^slots_log2` slots; the columns take the odd power.
    fn with_slots_log2(slots_log2: u32) -> Self {
        CellTable {
            cols_log2: slots_log2.div_ceil(2),
            rows_log2: slots_log2 / 2,
            buckets: (0..1usize << slots_log2).map(|_| Vec::new()).collect(),
        }
    }

    /// log2 of the slot count for `nodes`: the smallest power of two that
    /// is at least half of them, and at least the minimum.
    fn slots_log2_for(nodes: usize) -> u32 {
        nodes
            .div_ceil(2)
            .next_power_of_two()
            .trailing_zeros()
            .max(MIN_SLOTS_LOG2)
    }

    fn slot(&self, (i, j): (i64, i64)) -> usize {
        // With a power-of-two modulus the Euclidean remainder is a mask.
        let x = (i & ((1i64 << self.cols_log2) - 1)) as usize;
        let y = (j & ((1i64 << self.rows_log2) - 1)) as usize;
        (y << self.cols_log2) | x
    }

    fn bucket_mut(&mut self, cell: (i64, i64)) -> &mut Vec<Entry> {
        let slot = self.slot(cell);
        &mut self.buckets[slot]
    }

    /// Rebuilds the table with `2^slots_log2` slots and re-buckets every
    /// entry by its node's cell.
    fn resize(&mut self, slots_log2: u32, cell_of: impl Fn(NodeId) -> (i64, i64)) {
        let old = std::mem::replace(self, CellTable::with_slots_log2(slots_log2));
        for entry in old.buckets.into_iter().flatten() {
            self.bucket_mut(cell_of(entry.node)).push(entry);
        }
    }

    /// The slots covering cells `lo..=hi` along one axis of `2^len_log2`
    /// slots: a start slot and a count, at most the whole axis, so that the
    /// `k`-th slot is `(start + k) mod 2^len_log2` and none repeats.
    fn span(lo: i64, hi: i64, len_log2: u32) -> (usize, usize) {
        let len = 1usize << len_log2;
        match hi.checked_sub(lo) {
            Some(d) if d < 0 => (0, 0),
            Some(d) if (d as u64) < len as u64 => ((lo & (len as i64 - 1)) as usize, d as usize + 1),
            _ => (0, len),
        }
    }

    /// Walks the entries of every slot covering the cells `lo..=hi`, each
    /// slot once.
    #[inline]
    fn for_each_covering(&self, lo: (i64, i64), hi: (i64, i64), mut visit: impl FnMut(&Entry)) {
        let (x0, cols) = Self::span(lo.0, hi.0, self.cols_log2);
        let (y0, rows) = Self::span(lo.1, hi.1, self.rows_log2);
        let (x_mask, y_mask) = ((1usize << self.cols_log2) - 1, (1usize << self.rows_log2) - 1);
        for dy in 0..rows {
            let row = ((y0 + dy) & y_mask) << self.cols_log2;
            for dx in 0..cols {
                for entry in &self.buckets[row | ((x0 + dx) & x_mask)] {
                    visit(entry);
                }
            }
        }
    }
}

/// The spatial index. One instance lives inside the world's topology layer.
#[derive(Debug)]
pub(crate) struct SpatialGrid {
    cell_m: f64,
    table: CellTable,
    residency: Vec<Residency>,
    /// (valid_until, raw node id, generation) — min-heap of pending
    /// re-buckets. Entries whose generation no longer matches are stale.
    refresh: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
}

impl SpatialGrid {
    pub(crate) fn new(cell_m: f64) -> Self {
        assert!(cell_m > 0.0 && cell_m.is_finite(), "invalid grid cell size: {cell_m}");
        SpatialGrid {
            cell_m,
            table: CellTable::with_slots_log2(MIN_SLOTS_LOG2),
            residency: Vec::new(),
            refresh: BinaryHeap::new(),
        }
    }

    /// Side length of one cell in metres.
    pub(crate) fn cell_m(&self) -> f64 {
        self.cell_m
    }

    /// Number of nodes ever inserted: the raw id the next insertion takes.
    pub(crate) fn node_count(&self) -> usize {
        self.residency.len()
    }

    fn cell_of(&self, p: Point) -> (i64, i64) {
        ((p.x / self.cell_m).floor() as i64, (p.y / self.cell_m).floor() as i64)
    }

    fn cell_rect(&self, cell: (i64, i64)) -> Rect {
        let (i, j) = cell;
        Rect::new(
            i as f64 * self.cell_m,
            j as f64 * self.cell_m,
            (i + 1) as f64 * self.cell_m,
            (j + 1) as f64 * self.cell_m,
        )
    }

    /// Starts tracking a node. Node ids are dense, so insertion order must
    /// match id order (enforced by the topology layer).
    pub(crate) fn insert(&mut self, node: NodeId, plan: &MotionPlan, now: SimTime) {
        let raw = node.as_raw() as usize;
        assert_eq!(raw, self.residency.len(), "grid insertions must follow node id order");
        self.reserve(raw + 1);
        self.residency.push(Residency {
            cell: (0, 0),
            valid_until: SimTime::ZERO,
            generation: 0,
            tracked: true,
        });
        self.enter(node, plan, now);
    }

    /// Sizes the table for `nodes` insertions in all, so that inserting up to
    /// there re-buckets nothing. The table only grows; every insertion
    /// reserves for itself, so this is an optimisation for a caller that
    /// knows how many are coming.
    pub(crate) fn reserve(&mut self, nodes: usize) {
        let slots_log2 = CellTable::slots_log2_for(nodes);
        if slots_log2 > self.table.cols_log2 + self.table.rows_log2 {
            let residency = &self.residency;
            self.table.resize(slots_log2, |n| residency[n.as_raw() as usize].cell);
        }
    }

    /// Buckets a tracked node at its position at `now` and schedules its
    /// next refresh.
    fn enter(&mut self, node: NodeId, plan: &MotionPlan, now: SimTime) {
        let cell = self.cell_of(plan.position_at(now));
        self.table.bucket_mut(cell).push(Entry::new(node, plan));
        self.rebucket(node, cell, plan, now);
    }

    /// Stops tracking a node (powered off). Its bucket entry is removed so
    /// queries no longer return it.
    pub(crate) fn remove(&mut self, node: NodeId) {
        let raw = node.as_raw() as usize;
        let Some(r) = self.residency.get_mut(raw) else {
            return;
        };
        if !r.tracked {
            return;
        }
        r.tracked = false;
        r.generation += 1;
        let cell = r.cell;
        self.take_from_bucket(cell, node);
    }

    /// Resumes tracking a node previously dropped by [`SpatialGrid::remove`]
    /// (a crashed node powering back on): buckets it at its current position
    /// and re-enters it into the refresh cycle. No-op while still tracked.
    pub(crate) fn reinsert(&mut self, node: NodeId, plan: &MotionPlan, now: SimTime) {
        let raw = node.as_raw() as usize;
        let Some(r) = self.residency.get_mut(raw) else {
            return;
        };
        if r.tracked {
            return;
        }
        r.tracked = true;
        self.enter(node, plan, now);
    }

    fn take_from_bucket(&mut self, cell: (i64, i64), node: NodeId) -> Option<Entry> {
        let bucket = self.table.bucket_mut(cell);
        let pos = bucket.iter().position(|e| e.node == node)?;
        Some(bucket.swap_remove(pos))
    }

    /// Records `cell` as the node's residency and schedules the next refresh
    /// at the moment its plan leaves that cell.
    fn rebucket(&mut self, node: NodeId, cell: (i64, i64), plan: &MotionPlan, now: SimTime) {
        let raw = node.as_raw() as usize;
        let rect = self.cell_rect(cell);
        let valid_until = match plan.departure_time(rect, now) {
            None => SimTime::MAX,
            Some(t) => t.max(now + MIN_RESIDENCY),
        };
        let r = &mut self.residency[raw];
        r.cell = cell;
        r.valid_until = valid_until;
        r.generation += 1;
        if valid_until != SimTime::MAX {
            self.refresh.push(Reverse((valid_until, node.as_raw(), r.generation)));
        }
    }

    /// Re-buckets every node whose residency expired at or before `now`.
    /// Must run before any query so recorded cells stay a superset bound on
    /// true positions. `plan_of` resolves a node's compiled trajectory.
    pub(crate) fn refresh<'a>(&mut self, now: SimTime, plan_of: impl Fn(NodeId) -> &'a MotionPlan) {
        while let Some(&Reverse((due, raw, generation))) = self.refresh.peek() {
            if due > now {
                break;
            }
            self.refresh.pop();
            let r = self.residency[raw as usize];
            if !r.tracked || r.generation != generation {
                continue; // stale entry: the node moved buckets or was removed
            }
            let node = NodeId::from_raw(raw);
            let plan = plan_of(node);
            let cell = self.cell_of(plan.position_at(now));
            if cell != r.cell {
                let entry = self.take_from_bucket(r.cell, node).expect("a tracked node is bucketed");
                self.table.bucket_mut(cell).push(entry);
            }
            self.rebucket(node, cell, plan, now);
        }
    }

    /// Visits every tracked node bucketed in a slot that covers the cells
    /// within `radius` metres of `center` (the bounding square, padded by
    /// [`QUERY_PAD_M`]), each at most once and in no particular order. A
    /// superset of the nodes truly within the radius; callers must still
    /// apply the exact range test.
    #[inline]
    pub(crate) fn for_each_near(&self, center: Point, radius: f64, visit: impl FnMut(&Entry)) {
        let r = radius + QUERY_PAD_M;
        let (lo, hi) = (self.cell_of(center.offset(-r, -r)), self.cell_of(center.offset(r, r)));
        self.table.for_each_covering(lo, hi, visit);
    }

    /// The ids [`SpatialGrid::for_each_near`] visits, sorted.
    #[cfg(test)]
    pub(crate) fn query(&self, center: Point, radius: f64) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.for_each_near(center, radius, |entry| out.push(entry.node()));
        out.sort_unstable();
        out
    }

    /// Number of slots in the cell table.
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.table.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::MobilityModel;
    use crate::rng::SimRng;

    fn plan_fixed(p: Point) -> MotionPlan {
        MotionPlan::fixed(p)
    }

    #[test]
    fn stationary_nodes_are_bucketed_once() {
        let mut g = SpatialGrid::new(10.0);
        let plans = [plan_fixed(Point::new(5.0, 5.0)), plan_fixed(Point::new(55.0, 5.0))];
        g.insert(NodeId::from_raw(0), &plans[0], SimTime::ZERO);
        g.insert(NodeId::from_raw(1), &plans[1], SimTime::ZERO);
        assert!(g.refresh.is_empty(), "stationary nodes never need refreshing");
        let near = g.query(Point::new(0.0, 0.0), 12.0);
        assert_eq!(near, vec![NodeId::from_raw(0)]);
        let all = g.query(Point::new(30.0, 5.0), 40.0);
        assert_eq!(all, vec![NodeId::from_raw(0), NodeId::from_raw(1)]);
    }

    #[test]
    fn mobile_node_moves_between_buckets() {
        let mut g = SpatialGrid::new(10.0);
        let m = MobilityModel::walk(Point::new(5.0, 5.0), Point::new(95.0, 5.0), 1.0);
        let plan = m.compile(SimTime::from_secs(1000), &mut SimRng::new(1));
        g.insert(NodeId::from_raw(0), &plan, SimTime::ZERO);
        // At t=0 the node is near the origin.
        assert_eq!(g.query(Point::new(0.0, 0.0), 10.0).len(), 1);
        // At t=40 it has walked 40 m; refresh and query there (cells 4 apart
        // on a table 8 wide, so neither query aliases onto the other's slots).
        let t = SimTime::from_secs(40);
        g.refresh(t, |_| &plan);
        assert!(g.query(Point::new(0.0, 0.0), 10.0).is_empty());
        assert_eq!(g.query(Point::new(45.0, 5.0), 10.0).len(), 1);
    }

    #[test]
    fn removed_nodes_disappear_from_queries() {
        let mut g = SpatialGrid::new(10.0);
        let plan = plan_fixed(Point::new(5.0, 5.0));
        g.insert(NodeId::from_raw(0), &plan, SimTime::ZERO);
        g.remove(NodeId::from_raw(0));
        assert!(g.query(Point::new(5.0, 5.0), 10.0).is_empty());
    }

    #[test]
    fn boundary_node_is_still_found() {
        let mut g = SpatialGrid::new(10.0);
        // Exactly on a cell boundary.
        let plan = plan_fixed(Point::new(10.0, 10.0));
        g.insert(NodeId::from_raw(0), &plan, SimTime::ZERO);
        // Query disk whose edge touches the node exactly.
        assert_eq!(g.query(Point::new(20.0, 10.0), 10.0).len(), 1);
        assert_eq!(g.query(Point::new(0.0, 10.0), 10.0).len(), 1);
    }

    #[test]
    fn query_is_superset_of_true_range_under_mobility() {
        let mut g = SpatialGrid::new(10.0);
        let mut plans = Vec::new();
        let mut rng = SimRng::new(7);
        for i in 0..100u64 {
            let m = MobilityModel::RandomWaypoint {
                area: Rect::square(200.0),
                start: Point::new(rng.uniform_f64(0.0, 200.0), rng.uniform_f64(0.0, 200.0)),
                min_speed_mps: 0.5,
                max_speed_mps: 3.0,
                pause: SimDuration::from_secs(2),
            };
            plans.push(m.compile(SimTime::from_secs(600), &mut rng));
            let plan = plans.last().unwrap();
            g.insert(NodeId::from_raw(i), plan, SimTime::ZERO);
        }
        let center = Point::new(100.0, 100.0);
        for s in (0..600).step_by(7) {
            let t = SimTime::from_secs(s);
            g.refresh(t, |n| &plans[n.as_raw() as usize]);
            let got = g.query(center, 25.0);
            for (i, plan) in plans.iter().enumerate() {
                let within = plan.position_at(t).distance(center) <= 25.0;
                if within {
                    assert!(
                        got.contains(&NodeId::from_raw(i as u64)),
                        "node {i} within range at t={s}s but missing from grid query"
                    );
                }
            }
        }
    }

    #[test]
    fn query_returns_the_occupants_of_the_covered_slots_in_id_order() {
        // A seeded city, negative cells included, wider than the table: a
        // query answers like a scan over every node whose cell wraps onto a
        // slot of the covered cells, and every node at most once.
        let mut g = SpatialGrid::new(50.0);
        let mut rng = SimRng::new(0xC17E);
        let spots: Vec<Point> = (0..2_000)
            .map(|_| Point::new(rng.uniform_f64(-600.0, 1_400.0), rng.uniform_f64(-600.0, 1_400.0)))
            .collect();
        for (i, spot) in spots.iter().enumerate() {
            g.insert(NodeId::from_raw(i as u64), &plan_fixed(*spot), SimTime::ZERO);
        }
        assert_eq!(g.slot_count(), 1_024, "2 000 nodes take 32 x 32 slots");
        for _ in 0..300 {
            let center = Point::new(rng.uniform_f64(-700.0, 1_500.0), rng.uniform_f64(-700.0, 1_500.0));
            let radius = rng.uniform_f64(0.0, 130.0);
            let reach = radius + QUERY_PAD_M;
            let (low, high) = (
                g.cell_of(center.offset(-reach, -reach)),
                g.cell_of(center.offset(reach, reach)),
            );
            let covered: Vec<usize> = (low.0..=high.0)
                .flat_map(|i| (low.1..=high.1).map(move |j| (i, j)))
                .map(|cell| g.table.slot(cell))
                .collect();
            let scan: Vec<NodeId> = (0..spots.len())
                .filter(|i| covered.contains(&g.table.slot(g.cell_of(spots[*i]))))
                .map(|i| NodeId::from_raw(i as u64))
                .collect();
            assert_eq!(g.query(center, radius), scan);
        }
    }

    #[test]
    fn the_table_doubles_with_the_nodes_and_a_fixed_entry_carries_its_position() {
        let mut g = SpatialGrid::new(10.0);
        let mut rng = SimRng::new(0x7AB);
        let mut plans = Vec::new();
        for i in 0..1_000u64 {
            let start = Point::new(rng.uniform_f64(-300.0, 300.0), rng.uniform_f64(-300.0, 300.0));
            let model = if i % 3 == 0 {
                MobilityModel::walk(start, Point::new(-start.x, start.y), 1.0)
            } else {
                MobilityModel::stationary(start)
            };
            plans.push(model.compile(SimTime::from_secs(600), &mut rng));
            g.insert(NodeId::from_raw(i), &plans[i as usize], SimTime::ZERO);
            let nodes = i as usize + 1;
            let slots = g.slot_count();
            assert!(
                slots.is_power_of_two() && slots >= 64 && 2 * slots >= nodes,
                "{nodes} nodes, {slots} slots"
            );
            assert!(slots <= 64.max(nodes), "{nodes} nodes, {slots} slots");
        }
        let mut seen = vec![0u32; plans.len()];
        g.for_each_near(Point::ORIGIN, 1e9, |entry| {
            let raw = entry.node().as_raw() as usize;
            seen[raw] += 1;
            let plan = &plans[raw];
            match entry.fixed_at() {
                Some(at) => {
                    assert_eq!(plan.fixed_position(), Some(at));
                    assert_eq!(plan.position_at(SimTime::from_secs(599)), at);
                }
                None => assert!(plan.fixed_position().is_none()),
            }
        });
        assert!(
            seen.iter().all(|&n| n == 1),
            "a query wider than the table visits each node once"
        );
    }
}
