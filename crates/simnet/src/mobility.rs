//! Device mobility models.
//!
//! The thesis classifies devices as *static*, *hybrid* or *dynamic*
//! (§3.4.3); the dynamic ones move. This module provides the movement
//! patterns used by the scenarios: fixed position, straight-line walks,
//! waypoint paths (e.g. office → corridor, the walk used in §5.2.1), and
//! random-waypoint roaming for the larger random-field experiments.
//!
//! A [`MobilityModel`] is compiled into a [`MotionPlan`] — a deterministic
//! piecewise-linear trajectory — when the node is added to the world. The
//! trajectory never changes after that, so a position query at any time has
//! one answer and the whole run stays reproducible. A plan remembers only
//! which leg it last answered from, a hint that makes the next query at a
//! nearby time cheap and cannot change what any query answers.

use std::sync::atomic::{AtomicU32, Ordering};

use serde::{Deserialize, Serialize};

use crate::geometry::{Point, Rect};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime, MICROS_PER_SEC};

/// Description of how a node moves, as configured by a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MobilityModel {
    /// The node never moves (paper's "static" terminals: PCs, servers).
    Stationary {
        /// Fixed position.
        position: Point,
    },
    /// The node walks from `from` to `to` at `speed_mps` starting at
    /// `start_after` and then stays at `to`. This is the office-to-corridor
    /// walk of §5.2.1.
    Linear {
        /// Starting position.
        from: Point,
        /// Destination position.
        to: Point,
        /// Walking speed in metres per second.
        speed_mps: f64,
        /// Time before the walk begins (the node waits at `from`).
        start_after: SimDuration,
    },
    /// The node visits a list of waypoints in order at constant speed and
    /// stops at the last one. Used for the corridor and return-path
    /// (Fig. 5.7) scenarios.
    Waypoints {
        /// Ordered list of positions to visit; the first is the start.
        points: Vec<Point>,
        /// Walking speed in metres per second.
        speed_mps: f64,
        /// Time before movement begins.
        start_after: SimDuration,
    },
    /// Classic random-waypoint roaming inside an area: pick a random point,
    /// walk to it at a random speed, pause, repeat. Used by the random-field
    /// discovery experiments (E1/E2).
    RandomWaypoint {
        /// Area the node roams within.
        area: Rect,
        /// Initial position (clamped to the area).
        start: Point,
        /// Minimum speed in metres per second.
        min_speed_mps: f64,
        /// Maximum speed in metres per second.
        max_speed_mps: f64,
        /// Pause duration at each waypoint.
        pause: SimDuration,
    },
}

impl MobilityModel {
    /// Convenience constructor for a stationary node.
    pub fn stationary(position: Point) -> Self {
        MobilityModel::Stationary { position }
    }

    /// Convenience constructor for an immediate straight-line walk.
    pub fn walk(from: Point, to: Point, speed_mps: f64) -> Self {
        MobilityModel::Linear {
            from,
            to,
            speed_mps,
            start_after: SimDuration::ZERO,
        }
    }

    /// Convenience constructor for a delayed straight-line walk.
    pub fn walk_after(from: Point, to: Point, speed_mps: f64, start_after: SimDuration) -> Self {
        MobilityModel::Linear {
            from,
            to,
            speed_mps,
            start_after,
        }
    }

    /// True if the model can ever move the node.
    pub fn is_mobile(&self) -> bool {
        !matches!(self, MobilityModel::Stationary { .. })
    }

    /// Compiles the model into a deterministic [`MotionPlan`] covering the
    /// time span `[0, horizon]`, its storage sized to its legs. Random-waypoint
    /// legs are drawn from `rng`.
    pub fn compile(&self, horizon: SimTime, rng: &mut SimRng) -> MotionPlan {
        match self {
            MobilityModel::Stationary { position } => MotionPlan::fixed(*position),
            MobilityModel::Linear {
                from,
                to,
                speed_mps,
                start_after,
            } => {
                let mut plan = PlanBuilder::starting_at(*from);
                plan.hold_until(SimTime::ZERO + *start_after);
                plan.move_to(*to, *speed_mps);
                plan.build()
            }
            MobilityModel::Waypoints {
                points,
                speed_mps,
                start_after,
            } => {
                let start = points.first().copied().unwrap_or(Point::ORIGIN);
                let mut plan = PlanBuilder::starting_at(start);
                plan.hold_until(SimTime::ZERO + *start_after);
                for p in points.iter().skip(1) {
                    plan.move_to(*p, *speed_mps);
                }
                plan.build()
            }
            MobilityModel::RandomWaypoint {
                area,
                start,
                min_speed_mps,
                max_speed_mps,
                pause,
            } => {
                let mut plan = PlanBuilder::starting_at(area.clamp(*start));
                while plan.end_time() < horizon {
                    let target = Point::new(
                        rng.uniform_f64(area.min_x, area.max_x),
                        rng.uniform_f64(area.min_y, area.max_y),
                    );
                    let speed = rng.uniform_f64(*min_speed_mps, *max_speed_mps).max(0.01);
                    plan.move_to(target, speed);
                    if !pause.is_zero() {
                        plan.hold_for(*pause);
                    }
                }
                plan.build()
            }
        }
    }
}

/// Where and when one leg of a compiled trajectory ends. The leg starts
/// where and when the previous one ended — the plan's origin at time zero for
/// the first — so a plan stores each point once.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Waypoint {
    until: SimTime,
    at: Point,
}

/// One linear leg, rebuilt from two adjacent waypoints.
#[derive(Debug, Clone, Copy)]
struct Segment {
    start_time: SimTime,
    end_time: SimTime,
    from: Point,
    to: Point,
}

impl Segment {
    fn position_at(&self, t: SimTime) -> Point {
        if t <= self.start_time {
            return self.from;
        }
        if t >= self.end_time {
            return self.to;
        }
        let total = (self.end_time - self.start_time).as_secs_f64();
        if total <= 0.0 {
            return self.to;
        }
        let elapsed = (t - self.start_time).as_secs_f64();
        self.from.lerp(self.to, elapsed / total)
    }
}

/// A trajectory under construction: legs are appended in time order, and
/// [`PlanBuilder::build`] boxes them once, at their exact length.
struct PlanBuilder {
    origin: Point,
    waypoints: Vec<Waypoint>,
}

impl PlanBuilder {
    /// Starts a plan with the node at `start` at time zero.
    fn starting_at(start: Point) -> Self {
        PlanBuilder {
            origin: start,
            waypoints: Vec::new(),
        }
    }

    fn end_time(&self) -> SimTime {
        self.waypoints.last().map_or(SimTime::ZERO, |w| w.until)
    }

    fn final_position(&self) -> Point {
        self.waypoints.last().map_or(self.origin, |w| w.at)
    }

    /// Appends a stay-in-place leg until the given absolute time. Does
    /// nothing if `until` is not after the current end of the plan.
    fn hold_until(&mut self, until: SimTime) {
        if until <= self.end_time() {
            return;
        }
        let at = self.final_position();
        self.waypoints.push(Waypoint { until, at });
    }

    /// Appends a stay-in-place leg of the given length.
    fn hold_for(&mut self, duration: SimDuration) {
        let until = self.end_time() + duration;
        self.hold_until(until);
    }

    /// Appends a constant-speed movement from the current end position to
    /// `target`.
    ///
    /// # Panics
    ///
    /// Panics if `speed_mps` is not strictly positive.
    fn move_to(&mut self, target: Point, speed_mps: f64) {
        assert!(speed_mps > 0.0, "speed must be positive");
        let distance = self.final_position().distance(target);
        let travel = SimDuration::from_secs_f64(distance / speed_mps);
        self.waypoints.push(Waypoint {
            until: self.end_time() + travel,
            at: target,
        });
    }

    fn build(self) -> MotionPlan {
        MotionPlan {
            origin: self.origin,
            waypoints: self.waypoints.into_boxed_slice(),
            cursor: AtomicU32::new(0),
        }
    }
}

/// How many legs past its hint [`MotionPlan::leg_at`] steps before it
/// searches instead.
const CURSOR_REACH: usize = 2;

/// A deterministic piecewise-linear trajectory: the node's start and the
/// waypoint each leg ends at, so its position at any instant is one leg
/// rebuilt from two adjacent waypoints.
///
/// The leg is found from a cursor: the plan keeps the index of the leg its
/// last lookup answered from, and a query at or just after that leg reads
/// one or two waypoints instead of searching them all. Plans are shared by
/// the threads of the sharded engine, so the cursor is atomic; it publishes
/// no data and every value of it yields the same answer, so it is read and
/// written `Relaxed` and is left out of equality.
#[derive(Debug, Serialize, Deserialize)]
pub struct MotionPlan {
    origin: Point,
    waypoints: Box<[Waypoint]>,
    #[serde(skip)]
    cursor: AtomicU32,
}

impl PartialEq for MotionPlan {
    fn eq(&self, other: &Self) -> bool {
        self.origin == other.origin && self.waypoints == other.waypoints
    }
}

impl MotionPlan {
    /// A plan that keeps the node at `position` forever.
    pub fn fixed(position: Point) -> Self {
        PlanBuilder::starting_at(position).build()
    }

    /// Time at which the last scheduled movement finishes.
    pub fn end_time(&self) -> SimTime {
        self.waypoints.last().map_or(SimTime::ZERO, |w| w.until)
    }

    /// Where the node rests once the plan is over.
    fn final_position(&self) -> Point {
        self.waypoints.last().map_or(self.origin, |w| w.at)
    }

    /// Index of the leg that holds `t`: the first one ending at or after
    /// `t`, or the leg count once the plan is over — what
    /// `waypoints.partition_point(|w| w.until < t)` answers, found from the
    /// cursor when `t` is at or a few legs past it.
    fn leg_at(&self, t: SimTime) -> usize {
        let legs = &self.waypoints[..];
        let hint = self.cursor.load(Ordering::Relaxed) as usize;
        let idx = if hint > legs.len() || (hint > 0 && legs[hint - 1].until >= t) {
            // Behind the hint (or a hint from nowhere): search everything.
            legs.partition_point(|w| w.until < t)
        } else {
            // Every leg before the hint ends before `t`: step a few legs on,
            // then search only what is left.
            let mut idx = hint;
            let reach = (hint + CURSOR_REACH).min(legs.len());
            while idx < reach && legs[idx].until < t {
                idx += 1;
            }
            if idx == reach {
                idx += legs[idx..].partition_point(|w| w.until < t);
            }
            idx
        };
        // Written only when it moves, so threads sharing a plan rarely write
        // its line; any value is a valid hint, so the cast cannot mislead.
        if idx != hint {
            self.cursor.store(idx as u32, Ordering::Relaxed);
        }
        idx
    }

    /// Leg `idx`: from the end of the previous leg (the origin at time zero
    /// for the first) to waypoint `idx`.
    fn segment(&self, idx: usize) -> Option<Segment> {
        let end = self.waypoints.get(idx)?;
        let (start_time, from) = match idx.checked_sub(1) {
            Some(prev) => (self.waypoints[prev].until, self.waypoints[prev].at),
            None => (SimTime::ZERO, self.origin),
        };
        Some(Segment {
            start_time,
            end_time: end.until,
            from,
            to: end.at,
        })
    }

    /// The legs from leg `idx` on, in order.
    fn segments_from(&self, idx: usize) -> impl Iterator<Item = Segment> + '_ {
        (idx..self.waypoints.len()).filter_map(|idx| self.segment(idx))
    }

    /// Position at `t` on leg `idx`, which must be [`MotionPlan::leg_at`]`(t)`.
    fn position_on(&self, idx: usize, t: SimTime) -> Point {
        match self.segment(idx) {
            Some(seg) => seg.position_at(t),
            None => self.final_position(),
        }
    }

    /// Position of the node at time `t`.
    pub fn position_at(&self, t: SimTime) -> Point {
        self.position_on(self.leg_at(t), t)
    }

    /// True if the node is still scheduled to move after time `t`.
    pub fn moving_after(&self, t: SimTime) -> bool {
        self.segments_from(self.leg_at(t))
            .any(|s| s.end_time > t && s.from != s.to)
    }

    /// Where the node stands at every instant, if it never moves: every leg
    /// ends at the origin, so [`MotionPlan::position_at`] answers that point
    /// whatever the time. `None` for a plan that moves at all, even a jump
    /// at time zero.
    pub fn fixed_position(&self) -> Option<Point> {
        self.waypoints
            .iter()
            .all(|w| w.at == self.origin)
            .then_some(self.origin)
    }

    /// True if no leg is faster than `max_speed_mps`: each covers at most
    /// `max_speed_mps × (duration + 1 µs)`, the microsecond covering leg end
    /// times rounded to the clock.
    pub fn keeps_to(&self, max_speed_mps: f64) -> bool {
        self.segments_from(0).all(|seg| {
            let secs = (seg.end_time - seg.start_time).as_secs_f64() + 1e-6;
            seg.from.distance(seg.to) <= max_speed_mps * secs
        })
    }

    /// Earliest time at or after `from` at which the trajectory leaves the
    /// closed rectangle `rect`, or `None` if the node never does.
    ///
    /// The world's spatial index uses this to decide how long a node's
    /// grid-cell residency stays valid, so the index only touches a node
    /// when it actually crosses a cell boundary instead of on every query.
    pub fn departure_time(&self, rect: Rect, from: SimTime) -> Option<SimTime> {
        let start_idx = self.leg_at(from);
        if !rect.contains(self.position_on(start_idx, from)) {
            return Some(from);
        }
        for seg in self.segments_from(start_idx) {
            // Both endpoints of a linear piece inside a convex region means
            // the whole piece is inside; only pieces ending outside can cross.
            if rect.contains(seg.to) {
                continue;
            }
            let t0 = seg.start_time.max(from);
            let p0 = seg.position_at(t0);
            let u = exit_fraction(p0, seg.to, rect);
            let span = (seg.end_time - t0).as_secs_f64();
            return Some(t0 + SimDuration::from_secs_f64(span * u));
        }
        None
    }

    /// Earliest time at or after `from` at which this trajectory and `other`
    /// are farther apart than `range_m`, or `None` if they never are.
    ///
    /// The answer is **never late and may be early**: the exit is solved
    /// against `range_m` less a millimetre of slack and rounded down to the
    /// clock's microsecond, so float rounding cannot push it past the instant
    /// a position-by-position comparison would first fail. The worlds use it
    /// to look at a link only when it can break: whoever is woken re-evaluates
    /// the real predicate and, if the link still holds, simply asks again.
    ///
    /// Between two consecutive leg boundaries of either plan both nodes move
    /// linearly, so their separation is one quadratic per overlap.
    pub fn range_exit(&self, other: &MotionPlan, range_m: f64, from: SimTime) -> Option<SimTime> {
        let reach = (range_m - RANGE_EXIT_SLACK_M).max(0.0);
        let reach_sq = reach * reach;
        let (mut ia, mut ib) = (self.leg_at(from), other.leg_at(from));
        let mut t0 = from;
        loop {
            // The first leg of each plan ending after t0.
            while self.waypoints.get(ia).is_some_and(|w| w.until <= t0) {
                ia += 1;
            }
            while other.waypoints.get(ib).is_some_and(|w| w.until <= t0) {
                ib += 1;
            }
            let (pa, va, end_a) = self.leg(ia, t0);
            let (pb, vb, end_b) = other.leg(ib, t0);
            // Relative position r0 + v·s for s seconds into the overlap.
            let (rx, ry) = (pa.x - pb.x, pa.y - pb.y);
            let (vx, vy) = (va.0 - vb.0, va.1 - vb.1);
            let c = rx * rx + ry * ry - reach_sq;
            if c > 0.0 {
                return Some(t0);
            }
            let t1 = end_a.min(end_b);
            let a = vx * vx + vy * vy;
            if a > 0.0 {
                // |r0 + v·s|² = reach² with c <= 0: the discriminant is
                // non-negative and the later root is the way out.
                let half_b = rx * vx + ry * vy;
                let secs = (-half_b + (half_b * half_b - a * c).sqrt()) / a;
                let exit = t0.saturating_add(SimDuration::from_micros((secs * MICROS_PER_SEC as f64) as u64));
                if exit <= t1 {
                    return Some(exit);
                }
            }
            if t1 == SimTime::MAX {
                return None; // both at rest for good, in reach
            }
            t0 = t1;
        }
    }

    /// Position at `t`, velocity in metres per second and end of leg `idx`,
    /// which must be the first one ending after `t`; past the last leg the
    /// node rests at its final position for ever.
    fn leg(&self, idx: usize, t: SimTime) -> (Point, (f64, f64), SimTime) {
        match self.segment(idx) {
            Some(seg) => {
                // start <= t < end, so the leg has a positive duration.
                let total = (seg.end_time - seg.start_time).as_secs_f64();
                let velocity = ((seg.to.x - seg.from.x) / total, (seg.to.y - seg.from.y) / total);
                (seg.position_at(t), velocity, seg.end_time)
            }
            None => (self.final_position(), (0.0, 0.0), SimTime::MAX),
        }
    }
}

/// How far short of the range [`MotionPlan::range_exit`] aims, in metres: a
/// millimetre, orders of magnitude above what float rounding or a leg too
/// short for the microsecond clock can move a node.
const RANGE_EXIT_SLACK_M: f64 = 1e-3;

/// Fraction `u` in `[0, 1]` at which the segment `p0 -> p1` (with `p0`
/// inside the closed rectangle and `p1` outside) first touches the boundary.
fn exit_fraction(p0: Point, p1: Point, rect: Rect) -> f64 {
    let mut u = 1.0f64;
    let dx = p1.x - p0.x;
    let dy = p1.y - p0.y;
    if p1.x > rect.max_x {
        u = u.min((rect.max_x - p0.x) / dx);
    }
    if p1.x < rect.min_x {
        u = u.min((rect.min_x - p0.x) / dx);
    }
    if p1.y > rect.max_y {
        u = u.min((rect.max_y - p0.y) / dy);
    }
    if p1.y < rect.min_y {
        u = u.min((rect.min_y - p0.y) / dy);
    }
    u.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(1234)
    }

    #[test]
    fn stationary_never_moves() {
        let m = MobilityModel::stationary(Point::new(3.0, 4.0));
        let plan = m.compile(SimTime::from_secs(1000), &mut rng());
        assert_eq!(plan.position_at(SimTime::ZERO), Point::new(3.0, 4.0));
        assert_eq!(plan.position_at(SimTime::from_secs(999)), Point::new(3.0, 4.0));
        assert!(!m.is_mobile());
        assert!(!plan.moving_after(SimTime::ZERO));
    }

    #[test]
    fn linear_walk_positions() {
        // Walk 10 m at 1 m/s starting immediately.
        let m = MobilityModel::walk(Point::new(0.0, 0.0), Point::new(10.0, 0.0), 1.0);
        let plan = m.compile(SimTime::from_secs(100), &mut rng());
        assert_eq!(plan.position_at(SimTime::ZERO), Point::new(0.0, 0.0));
        let mid = plan.position_at(SimTime::from_secs(5));
        assert!((mid.x - 5.0).abs() < 1e-9);
        assert_eq!(plan.position_at(SimTime::from_secs(10)), Point::new(10.0, 0.0));
        assert_eq!(plan.position_at(SimTime::from_secs(50)), Point::new(10.0, 0.0));
    }

    #[test]
    fn delayed_walk_waits_first() {
        let m = MobilityModel::walk_after(
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            2.0,
            SimDuration::from_secs(20),
        );
        let plan = m.compile(SimTime::from_secs(100), &mut rng());
        assert_eq!(plan.position_at(SimTime::from_secs(19)), Point::new(0.0, 0.0));
        let p = plan.position_at(SimTime::from_secs(22));
        assert!((p.x - 4.0).abs() < 1e-9);
        assert_eq!(plan.position_at(SimTime::from_secs(30)), Point::new(10.0, 0.0));
    }

    #[test]
    fn waypoint_path_visits_in_order() {
        let m = MobilityModel::Waypoints {
            points: vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(10.0, 10.0)],
            speed_mps: 1.0,
            start_after: SimDuration::ZERO,
        };
        let plan = m.compile(SimTime::from_secs(100), &mut rng());
        assert_eq!(plan.position_at(SimTime::from_secs(10)), Point::new(10.0, 0.0));
        let p = plan.position_at(SimTime::from_secs(15));
        assert!((p.y - 5.0).abs() < 1e-9);
        assert_eq!(plan.position_at(SimTime::from_secs(20)), Point::new(10.0, 10.0));
        assert!(plan.moving_after(SimTime::from_secs(5)));
        assert!(!plan.moving_after(SimTime::from_secs(20)));
    }

    #[test]
    fn random_waypoint_stays_in_area_and_is_deterministic() {
        let area = Rect::square(100.0);
        let m = MobilityModel::RandomWaypoint {
            area,
            start: Point::new(50.0, 50.0),
            min_speed_mps: 0.5,
            max_speed_mps: 2.0,
            pause: SimDuration::from_secs(5),
        };
        let plan_a = m.compile(SimTime::from_secs(600), &mut SimRng::new(9));
        let plan_b = m.compile(SimTime::from_secs(600), &mut SimRng::new(9));
        assert_eq!(plan_a, plan_b, "same seed must give the same trajectory");
        assert!(plan_a.end_time() >= SimTime::from_secs(600));
        for s in 0..600 {
            let p = plan_a.position_at(SimTime::from_secs(s));
            assert!(area.contains(p), "left area at t={s}: {p:?}");
        }
    }

    #[test]
    fn initial_positions() {
        let wp = MobilityModel::Waypoints {
            points: vec![Point::new(7.0, 7.0)],
            speed_mps: 1.0,
            start_after: SimDuration::ZERO,
        };
        let plan = wp.compile(SimTime::from_secs(10), &mut rng());
        assert_eq!(plan.position_at(SimTime::ZERO), Point::new(7.0, 7.0));
        assert_eq!(plan.position_at(SimTime::from_secs(10)), Point::new(7.0, 7.0));
    }

    #[test]
    #[should_panic]
    fn zero_speed_rejected() {
        let mut plan = PlanBuilder::starting_at(Point::ORIGIN);
        plan.move_to(Point::new(1.0, 0.0), 0.0);
    }

    #[test]
    fn departure_time_stationary_inside_never_leaves() {
        let plan = MotionPlan::fixed(Point::new(5.0, 5.0));
        let rect = Rect::square(10.0);
        assert_eq!(plan.departure_time(rect, SimTime::ZERO), None);
    }

    #[test]
    fn departure_time_outside_is_immediate() {
        let plan = MotionPlan::fixed(Point::new(50.0, 5.0));
        let rect = Rect::square(10.0);
        assert_eq!(
            plan.departure_time(rect, SimTime::from_secs(3)),
            Some(SimTime::from_secs(3))
        );
    }

    #[test]
    fn departure_time_linear_walk_crosses_boundary() {
        // Walk from (5,5) to (25,5) at 1 m/s; leaves the 10x10 square when
        // x = 10, i.e. after 5 seconds.
        let m = MobilityModel::walk(Point::new(5.0, 5.0), Point::new(25.0, 5.0), 1.0);
        let plan = m.compile(SimTime::from_secs(100), &mut rng());
        let rect = Rect::square(10.0);
        let t = plan.departure_time(rect, SimTime::ZERO).unwrap();
        assert!((t.as_secs_f64() - 5.0).abs() < 1e-6, "left at {t:?}");
        // Asking from a later time inside the rect still finds the crossing.
        let t2 = plan.departure_time(rect, SimTime::from_secs(2)).unwrap();
        assert!((t2.as_secs_f64() - 5.0).abs() < 1e-6);
        // After the crossing the position is outside: departure is immediate.
        assert_eq!(
            plan.departure_time(rect, SimTime::from_secs(7)),
            Some(SimTime::from_secs(7))
        );
    }

    #[test]
    fn departure_time_skips_hold_segments() {
        let mut plan = PlanBuilder::starting_at(Point::new(5.0, 5.0));
        plan.hold_until(SimTime::from_secs(20));
        plan.move_to(Point::new(5.0, 35.0), 1.0); // leaves y=10 at t=25
        let plan = plan.build();
        let rect = Rect::square(10.0);
        let t = plan.departure_time(rect, SimTime::ZERO).unwrap();
        assert!((t.as_secs_f64() - 25.0).abs() < 1e-6, "left at {t:?}");
    }

    /// Per-interval polling, the oracle the scheduled checks replace: the
    /// first instant `phase + k·interval` (k >= 1) before `horizon` at which
    /// the pair is out of range, and how many instants were looked at.
    fn first_failing_poll(
        a: &MotionPlan,
        b: &MotionPlan,
        range_m: f64,
        phase: SimTime,
        interval: SimDuration,
        horizon: SimTime,
    ) -> (Option<SimTime>, usize) {
        let mut looked_at = 0;
        let mut t = phase + interval;
        while t < horizon {
            looked_at += 1;
            if a.position_at(t).distance(b.position_at(t)) > range_m {
                return (Some(t), looked_at);
            }
            t += interval;
        }
        (None, looked_at)
    }

    /// The scheduling both worlds use: look only at the first poll at or
    /// after `range_exit`, evaluate the polled predicate there, ask again.
    fn first_failing_wakeup(
        a: &MotionPlan,
        b: &MotionPlan,
        range_m: f64,
        phase: SimTime,
        interval: SimDuration,
        horizon: SimTime,
    ) -> (Option<SimTime>, usize) {
        let mut looked_at = 0;
        let mut now = phase;
        while let Some(exit) = a.range_exit(b, range_m, now) {
            assert!(exit >= now, "range_exit answered {exit} when asked from {now}");
            now = crate::link::next_poll(phase, interval, now, exit);
            if now >= horizon {
                break;
            }
            looked_at += 1;
            if a.position_at(now).distance(b.position_at(now)) > range_m {
                return (Some(now), looked_at);
            }
        }
        (None, looked_at)
    }

    /// A seeded trajectory inside a `side`-metre square: fixed, or a walk of
    /// moves, holds and zero-length legs that comes to rest before the test
    /// horizon.
    fn random_plan(rng: &mut SimRng, side: f64) -> MotionPlan {
        let spot = |rng: &mut SimRng| Point::new(rng.uniform_f64(0.0, side), rng.uniform_f64(0.0, side));
        let start = spot(rng);
        if rng.chance(0.3) {
            return MotionPlan::fixed(start);
        }
        let mut plan = PlanBuilder::starting_at(start);
        let rest_after = SimTime::from_secs(rng.range(20..400u64));
        while plan.end_time() < rest_after {
            match rng.range(0..5u32) {
                0 => plan.hold_for(SimDuration::from_micros(rng.range(0..30_000_000u64))),
                1 => plan.move_to(plan.final_position(), 1.0),
                _ => plan.move_to(spot(rng), rng.uniform_f64(0.3, 4.0)),
            }
        }
        plan.build()
    }

    #[test]
    fn range_exit_wakeups_break_a_link_at_the_instant_polling_does() {
        let horizon = SimTime::from_secs(600);
        let mut rng = SimRng::new(0x0E71);
        let (mut broke, mut never, mut polled, mut woken) = (0, 0, 0, 0);
        for case in 0..600 {
            // Squares from half a range to a few ranges wide: some pairs can
            // never part, the others leave, graze and re-enter range, some of
            // them between two polls.
            let range_m = rng.uniform_f64(5.0, 40.0);
            let side = range_m * rng.uniform_f64(0.5, 3.0);
            let (a, b) = (random_plan(&mut rng, side), random_plan(&mut rng, side));
            let phase = SimTime::from_micros(rng.range(0..50_000_000u64));
            let interval = SimDuration::from_millis([500, 1_000, 137][case % 3]);
            let (oracle, old_looks) = first_failing_poll(&a, &b, range_m, phase, interval, horizon);
            let (got, new_looks) = first_failing_wakeup(&a, &b, range_m, phase, interval, horizon);
            assert_eq!(
                got, oracle,
                "case {case}: range {range_m} phase {phase} interval {interval}"
            );
            assert!(
                new_looks <= old_looks,
                "case {case}: {new_looks} wake-ups for {old_looks} polls"
            );
            match oracle {
                Some(_) => broke += 1,
                None => never += 1,
            }
            polled += old_looks;
            woken += new_looks;
        }
        assert!(broke > 100 && never > 100, "{broke} pairs broke, {never} never did");
        assert!(woken * 100 < polled, "{woken} wake-ups against {polled} polls");
    }

    #[test]
    fn range_exit_on_the_edges() {
        let origin = MotionPlan::fixed(Point::ORIGIN);
        let at = SimTime::from_secs;
        // Two plans at rest: in range for ever, or out of it from the start.
        assert_eq!(
            origin.range_exit(&MotionPlan::fixed(Point::new(10.0, 0.0)), 10.0 + 1e-2, at(3)),
            None
        );
        assert_eq!(
            origin.range_exit(&MotionPlan::fixed(Point::new(10.0, 0.0)), 9.0, at(3)),
            Some(at(3))
        );
        // A tangent pass: the walker grazes the 10 m circle at t = 20 s and
        // the distance is never *greater* than the range. Early is allowed
        // (a millimetre short of the range is reached on the way in), late
        // is not, and whoever is woken finds the pair still in range.
        let mut grazing = PlanBuilder::starting_at(Point::new(-20.0, 10.0));
        grazing.move_to(Point::new(20.0, 10.0), 1.0);
        let grazing = grazing.build();
        let out_until = grazing.range_exit(&origin, 10.0, at(0));
        assert_eq!(out_until, Some(at(0)), "starts out of range");
        let near_tangent = grazing.range_exit(&origin, 10.0, at(20)).expect("leaves again");
        assert!(near_tangent >= at(20) && near_tangent <= at(20) + SimDuration::from_millis(150));
        // Symmetric in the two plans.
        assert_eq!(origin.range_exit(&grazing, 10.0, at(20)), Some(near_tangent));
        // A walker that stops inside the range never leaves it; one that
        // walks through leaves on the far side, not before.
        let mut stopping = PlanBuilder::starting_at(Point::new(-3.0, 0.0));
        stopping.hold_until(at(5));
        stopping.move_to(Point::new(4.0, 0.0), 0.5);
        assert_eq!(stopping.build().range_exit(&origin, 10.0, at(0)), None);
        let mut passing = PlanBuilder::starting_at(Point::new(-3.0, 0.0));
        passing.hold_until(at(5));
        passing.move_to(Point::new(30.0, 0.0), 2.0);
        let passing = passing.build();
        let left = passing.range_exit(&origin, 10.0, at(0)).expect("walks out");
        // 13 m at 2 m/s after a 5 s hold, less the millimetre of slack.
        assert!(left <= at(5) + SimDuration::from_millis(6_500));
        assert!(left >= at(5) + SimDuration::from_millis(6_499));
        assert_eq!(
            passing.range_exit(&origin, 10.0, left + SimDuration::from_secs(1)),
            Some(left + SimDuration::from_secs(1))
        );
    }

    /// FNV-1a over 64-bit words: one number for a long list of answers.
    fn fold(acc: u64, word: u64) -> u64 {
        (acc ^ word).wrapping_mul(0x0000_0100_0000_01b3)
    }

    fn fold_time(acc: u64, t: Option<SimTime>) -> u64 {
        fold(acc, t.map_or(u64::MAX, SimTime::as_micros))
    }

    /// One plan of every model the scenarios compile, plus seeded walks of
    /// moves, holds and zero-length legs.
    fn differential_plans() -> Vec<MotionPlan> {
        let horizon = SimTime::from_secs(900);
        let area = Rect::new(-20.0, 10.0, 180.0, 130.0);
        let mut rng = SimRng::new(0x3A7E);
        let mut plans = vec![
            MobilityModel::stationary(Point::new(41.5, 77.25)).compile(horizon, &mut rng),
            MobilityModel::walk(Point::new(0.0, 20.0), Point::new(150.0, 95.0), 1.3).compile(horizon, &mut rng),
            MobilityModel::walk_after(
                Point::new(160.0, 120.0),
                Point::new(-10.0, 15.0),
                0.9,
                SimDuration::from_millis(12_345),
            )
            .compile(horizon, &mut rng),
            // A repeated point is a zero-length leg.
            MobilityModel::Waypoints {
                points: vec![
                    Point::new(10.0, 20.0),
                    Point::new(60.0, 20.0),
                    Point::new(60.0, 20.0),
                    Point::new(60.0, 110.0),
                    Point::new(-15.0, 60.0),
                ],
                speed_mps: 1.7,
                start_after: SimDuration::from_secs(30),
            }
            .compile(horizon, &mut rng),
        ];
        for pause in [SimDuration::from_secs(20), SimDuration::ZERO] {
            let roam = MobilityModel::RandomWaypoint {
                area,
                start: Point::new(80.0, 70.0),
                min_speed_mps: 0.7,
                max_speed_mps: 2.0,
                pause,
            };
            for _ in 0..3 {
                plans.push(roam.compile(horizon, &mut rng));
            }
        }
        for _ in 0..6 {
            plans.push(random_plan(&mut rng, 160.0));
        }
        plans
    }

    #[test]
    fn a_waypoint_is_an_end_time_and_a_point() {
        // One per leg: where the leg ends and when; its start is the previous one.
        assert_eq!(std::mem::size_of::<Waypoint>(), 24);
    }

    #[test]
    fn a_plan_is_its_origin_its_boxed_legs_and_a_cursor() {
        // 16 (origin) + 16 (boxed slice) + 4 (cursor), padded to 8.
        assert_eq!(std::mem::size_of::<MotionPlan>(), 40);
    }

    #[test]
    fn a_compiled_plan_holds_each_leg_once_and_no_spare_room() {
        // A boxed slice has no spare room: the plan's length is all it holds.
        let plans = differential_plans();
        // A 900 s roam of 20 s pauses is a few dozen legs, none empty.
        let roam = &plans[4];
        assert!(roam.waypoints.len() > 20, "{} legs", roam.waypoints.len());
        assert!(roam.waypoints.windows(2).all(|w| w[0].until <= w[1].until));
        assert!(MotionPlan::fixed(Point::ORIGIN).waypoints.is_empty());
    }

    #[test]
    fn motion_plans_answer_what_the_segment_form_answered() {
        // Constants from the commit where a plan stored one 48-byte segment
        // (start, end, from, to) per leg.
        let plans = differential_plans();
        let mut positions = 0xcbf2_9ce4_8422_2325;
        for plan in &plans {
            for step in 0..2_000u64 {
                let p = plan.position_at(SimTime::from_micros(step * 470_001));
                positions = fold(fold(positions, p.x.to_bits()), p.y.to_bits());
            }
            positions = fold_time(positions, Some(plan.end_time()));
        }
        let (mut departures, mut leaves) = (0xcbf2_9ce4_8422_2325, 0);
        for plan in &plans {
            for cx in -1..8 {
                for cy in 0..6 {
                    let cell = Rect::new(
                        cx as f64 * 25.0,
                        cy as f64 * 25.0,
                        (cx + 1) as f64 * 25.0,
                        (cy + 1) as f64 * 25.0,
                    );
                    for from in [0, 7_300_001, 64_000_000, 333_333_333, 880_000_000] {
                        let left = plan.departure_time(cell, SimTime::from_micros(from));
                        leaves += usize::from(left.is_some_and(|t| t > SimTime::from_micros(from)));
                        departures = fold_time(departures, left);
                    }
                }
            }
        }
        let (mut exits, mut parted, mut stayed) = (0xcbf2_9ce4_8422_2325, 0, 0);
        for a in &plans {
            for b in &plans {
                for range_m in [12.5, 40.0, 95.0] {
                    for from in [0, 5_000_000, 123_456_789, 600_000_000] {
                        let exit = a.range_exit(b, range_m, SimTime::from_micros(from));
                        parted += usize::from(exit.is_some_and(|t| t > SimTime::from_micros(from)));
                        stayed += usize::from(exit.is_none());
                        exits = fold_time(exits, exit);
                    }
                }
            }
        }
        // The lattices reach crossings, partings and pairs that never part.
        assert_eq!((leaves, parted, stayed), (53, 800, 344));
        assert_eq!(
            (positions, departures, exits),
            (0x55e6_6157_e31c_70c8, 0x632a_ffae_a5ee_b57a, 0x9751_6cd0_1fa3_d625),
            "position_at, departure_time and range_exit folds"
        );
    }

    /// Where a plan is at `t` without its cursor: the whole-plan binary
    /// search and the leg rebuilt from it.
    fn searched_position(plan: &MotionPlan, t: SimTime) -> (usize, u64, u64) {
        let idx = plan.waypoints.partition_point(|w| w.until < t);
        let p = plan
            .segment(idx)
            .map_or(plan.final_position(), |seg| seg.position_at(t));
        (idx, p.x.to_bits(), p.y.to_bits())
    }

    /// Where a plan is at `t` through its cursor, in the same form.
    fn cursor_position(plan: &MotionPlan, t: SimTime) -> (usize, u64, u64) {
        let p = plan.position_at(t);
        // The lookup just left the cursor on the leg it answered from.
        let idx = plan.cursor.load(Ordering::Relaxed) as usize;
        (idx, p.x.to_bits(), p.y.to_bits())
    }

    /// A lattice over the whole run and past its end, plus every leg's end
    /// and the microseconds either side of it.
    fn probe_instants(plan: &MotionPlan) -> Vec<SimTime> {
        let mut instants: Vec<u64> = (0..1_000u64).map(|step| step * 950_001).collect();
        for w in plan.waypoints.iter() {
            let end = w.until.as_micros();
            instants.extend([end.saturating_sub(1), end, end + 1]);
        }
        instants.sort_unstable();
        instants.into_iter().map(SimTime::from_micros).collect()
    }

    #[test]
    fn the_cursor_answers_what_the_search_answers_in_any_order() {
        let mut rng = SimRng::new(0xC025);
        for (n, plan) in differential_plans().iter().enumerate() {
            let monotone = probe_instants(plan);
            let repeated: Vec<SimTime> = monotone.iter().flat_map(|&t| [t, t]).collect();
            // Each instant, then one half as far into the run: a jump back.
            let backward: Vec<SimTime> = (0..monotone.len())
                .flat_map(|i| [monotone[i], monotone[i / 2]])
                .collect();
            let mut shuffled = monotone.clone();
            rng.shuffle(&mut shuffled);
            for (order, instants) in [monotone.clone(), repeated, backward, shuffled].iter().enumerate() {
                for &t in instants {
                    assert_eq!(
                        cursor_position(plan, t),
                        searched_position(plan, t),
                        "plan {n}, order {order}, t {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn two_threads_sharing_a_plan_get_the_searched_answers() {
        let plans = differential_plans();
        let barrier = std::sync::Barrier::new(2);
        let wrong: Vec<Vec<String>> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..2)
                .map(|thread| {
                    let (plans, barrier) = (&plans, &barrier);
                    scope.spawn(move || {
                        // Round by round both threads walk one plan, each
                        // taking every other instant, so each finds the
                        // cursor where the other left it. A wrong answer is
                        // noted, not asserted, so neither thread leaves the
                        // other waiting at the barrier.
                        let mut wrong = Vec::new();
                        for round in 0..3 {
                            for (n, plan) in plans.iter().enumerate() {
                                let instants = probe_instants(plan);
                                for &t in instants.iter().skip((thread + round) % 2).step_by(2) {
                                    let got = plan.position_at(t);
                                    let (_, x, y) = searched_position(plan, t);
                                    if (got.x.to_bits(), got.y.to_bits()) != (x, y) {
                                        wrong.push(format!("thread {thread}, plan {n}, t {t}"));
                                    }
                                }
                                barrier.wait();
                            }
                        }
                        wrong
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().expect("no panic")).collect()
        });
        assert_eq!(wrong, [Vec::<String>::new(), Vec::new()]);
    }

    #[test]
    fn a_fixed_position_is_what_the_plan_answers_at_every_instant() {
        let held = MobilityModel::walk_after(
            Point::new(4.0, -2.0),
            Point::new(4.0, -2.0),
            1.0,
            SimDuration::from_secs(5),
        )
        .compile(SimTime::from_secs(60), &mut rng());
        for plan in [MotionPlan::fixed(Point::new(-0.5, 7.25)), held] {
            let at = plan.fixed_position().expect("never moves");
            for s in [0, 1, 5, 6, 59, 3_600] {
                assert_eq!(plan.position_at(SimTime::from_secs(s)), at);
            }
        }
        for plan in differential_plans() {
            assert_eq!(plan.fixed_position().is_some(), !plan.moving_after(SimTime::ZERO));
        }
        // A jump at time zero is a move, though nothing moves after it.
        let jump = MotionPlan {
            origin: Point::ORIGIN,
            waypoints: vec![Waypoint {
                until: SimTime::ZERO,
                at: Point::new(1.0, 0.0),
            }]
            .into_boxed_slice(),
            cursor: AtomicU32::new(0),
        };
        assert!(!jump.moving_after(SimTime::ZERO));
        assert_eq!(jump.fixed_position(), None);
    }

    #[test]
    fn a_plan_keeps_to_the_speed_it_was_compiled_at_and_not_below() {
        let walk = |speed| MobilityModel::walk(Point::ORIGIN, Point::new(123.456_789, 7.0), speed);
        for speed in [0.3, 1.0, 2.5, 3.0] {
            let plan = walk(speed).compile(SimTime::from_secs(600), &mut rng());
            assert!(plan.keeps_to(speed), "{speed} m/s");
            assert!(!plan.keeps_to(speed * 0.99), "{speed} m/s");
        }
        assert!(MotionPlan::fixed(Point::ORIGIN).keeps_to(0.0));
        let roam = MobilityModel::RandomWaypoint {
            area: Rect::square(500.0),
            start: Point::ORIGIN,
            min_speed_mps: 0.7,
            max_speed_mps: 2.5,
            pause: SimDuration::ZERO,
        };
        let mut draws = rng();
        for _ in 0..20 {
            assert!(roam.compile(SimTime::from_secs(3_600), &mut draws).keeps_to(2.5));
        }
    }

    #[test]
    fn departure_time_never_before_from() {
        let m = MobilityModel::walk(Point::new(0.0, 0.0), Point::new(100.0, 0.0), 2.0);
        let plan = m.compile(SimTime::from_secs(100), &mut rng());
        let rect = Rect::new(0.0, 0.0, 30.0, 30.0);
        for s in 0..40 {
            let from = SimTime::from_secs(s);
            if let Some(t) = plan.departure_time(rect, from) {
                assert!(t >= from);
            }
        }
    }
}
