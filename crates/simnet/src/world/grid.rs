//! A uniform spatial grid over node positions, keyed by mobility-aware
//! cell residency.
//!
//! Every node occupies exactly one square cell. Because trajectories are
//! compiled [`MotionPlan`]s, the exact instant a node leaves its current
//! cell is computable up front ([`MotionPlan::departure_time`]), so the
//! index re-buckets a node only when it actually crosses a cell boundary —
//! tracked by a refresh heap — instead of on every query. Stationary nodes
//! are bucketed once and never touched again.
//!
//! Range queries return a *superset* of the nodes within the radius (all
//! occupants of every cell intersecting the padded query disk, sorted by
//! node id); callers apply the exact range predicate themselves. This keeps
//! the grid a pure accelerator: results are byte-identical to a full scan.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::geometry::{Point, Rect};
use crate::hash::FastMap;
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

#[derive(Debug, Clone, Copy)]
struct Residency {
    cell: (i64, i64),
    valid_until: SimTime,
    generation: u64,
    tracked: bool,
}

/// The spatial index. One instance lives inside the world's topology layer.
#[derive(Debug)]
pub(crate) struct SpatialGrid {
    cell_m: f64,
    /// Probed by key and never iterated: queries sort what they collect.
    cells: FastMap<(i64, i64), Vec<NodeId>>,
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
            cells: FastMap::default(),
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
        self.residency.push(Residency {
            cell: (0, 0),
            valid_until: SimTime::ZERO,
            generation: 0,
            tracked: true,
        });
        let cell = self.cell_of(plan.position_at(now));
        self.cells.entry(cell).or_default().push(node);
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
        self.remove_from_bucket(cell, node);
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
        let cell = self.cell_of(plan.position_at(now));
        self.cells.entry(cell).or_default().push(node);
        self.rebucket(node, cell, plan, now);
    }

    fn remove_from_bucket(&mut self, cell: (i64, i64), node: NodeId) {
        if let Some(bucket) = self.cells.get_mut(&cell) {
            if let Some(pos) = bucket.iter().position(|n| *n == node) {
                bucket.swap_remove(pos);
            }
            if bucket.is_empty() {
                self.cells.remove(&cell);
            }
        }
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
                self.remove_from_bucket(r.cell, node);
                self.cells.entry(cell).or_default().push(node);
            }
            self.rebucket(node, cell, plan, now);
        }
    }

    /// All tracked nodes in cells intersecting the disk of `radius` metres
    /// around `center`, sorted by node id. A superset of the nodes truly
    /// within the radius; callers must still apply the exact range test.
    /// Production paths go through [`SpatialGrid::query_into`]; this
    /// allocating convenience form remains for the unit tests.
    #[cfg(test)]
    pub(crate) fn query(&self, center: Point, radius: f64) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.query_into(center, radius, &mut out);
        out
    }

    /// Like [`SpatialGrid::query`], but appends into a caller-owned scratch
    /// buffer (cleared first) so hot paths — every inquiry and neighbour
    /// lookup at 100k nodes — reuse one allocation instead of building a
    /// fresh candidate `Vec` per query. Contents are identical to `query`.
    pub(crate) fn query_into(&self, center: Point, radius: f64, out: &mut Vec<NodeId>) {
        out.clear();
        let r = radius + QUERY_PAD_M;
        let ix_min = ((center.x - r) / self.cell_m).floor() as i64;
        let ix_max = ((center.x + r) / self.cell_m).floor() as i64;
        let iy_min = ((center.y - r) / self.cell_m).floor() as i64;
        let iy_max = ((center.y + r) / self.cell_m).floor() as i64;
        for i in ix_min..=ix_max {
            for j in iy_min..=iy_max {
                if let Some(bucket) = self.cells.get(&(i, j)) {
                    out.extend_from_slice(bucket);
                }
            }
        }
        // Each node lives in exactly one bucket, so sorting suffices for a
        // deterministic, duplicate-free result.
        out.sort_unstable();
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
        // At t=60 it has walked 60 m; refresh and query there.
        let t = SimTime::from_secs(60);
        g.refresh(t, |_| &plan);
        assert!(g.query(Point::new(0.0, 0.0), 10.0).is_empty());
        assert_eq!(g.query(Point::new(65.0, 5.0), 10.0).len(), 1);
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
    fn query_returns_the_occupants_of_the_covered_cells_in_id_order_whatever_the_hasher() {
        // The cell map is only ever probed by key; a seeded city, negative
        // cells included, must answer like a scan over every node.
        let mut g = SpatialGrid::new(50.0);
        let mut rng = SimRng::new(0xC17E);
        let spots: Vec<Point> = (0..2_000)
            .map(|_| Point::new(rng.uniform_f64(-600.0, 1_400.0), rng.uniform_f64(-600.0, 1_400.0)))
            .collect();
        for (i, spot) in spots.iter().enumerate() {
            g.insert(NodeId::from_raw(i as u64), &plan_fixed(*spot), SimTime::ZERO);
        }
        for _ in 0..300 {
            let center = Point::new(rng.uniform_f64(-700.0, 1_500.0), rng.uniform_f64(-700.0, 1_500.0));
            let radius = rng.uniform_f64(0.0, 130.0);
            let reach = radius + QUERY_PAD_M;
            let (low, high) = (
                g.cell_of(center.offset(-reach, -reach)),
                g.cell_of(center.offset(reach, reach)),
            );
            let scan: Vec<NodeId> = (0..spots.len())
                .filter(|i| {
                    let (cx, cy) = g.cell_of(spots[*i]);
                    (low.0..=high.0).contains(&cx) && (low.1..=high.1).contains(&cy)
                })
                .map(|i| NodeId::from_raw(i as u64))
                .collect();
            assert_eq!(g.query(center, radius), scan);
        }
    }
}
