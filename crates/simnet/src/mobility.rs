//! Device mobility models.
//!
//! The thesis classifies devices as *static*, *hybrid* or *dynamic*
//! (§3.4.3); the dynamic ones move. This module provides the movement
//! patterns used by the scenarios: fixed position, straight-line walks,
//! waypoint paths (e.g. office → corridor, the walk used in §5.2.1), and
//! random-waypoint roaming for the larger random-field experiments.
//!
//! A [`MobilityModel`] is compiled into a [`MotionPlan`] — a deterministic
//! piecewise-linear trajectory — when the node is added to the world, so
//! position queries at arbitrary times are pure lookups and the whole run
//! stays reproducible.

use serde::{Deserialize, Serialize};

use crate::geometry::{Point, Rect};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

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

    /// The position the node occupies at time zero.
    pub fn initial_position(&self) -> Point {
        match self {
            MobilityModel::Stationary { position } => *position,
            MobilityModel::Linear { from, .. } => *from,
            MobilityModel::Waypoints { points, .. } => points.first().copied().unwrap_or(Point::ORIGIN),
            MobilityModel::RandomWaypoint { area, start, .. } => area.clamp(*start),
        }
    }

    /// True if the model can ever move the node.
    pub fn is_mobile(&self) -> bool {
        !matches!(self, MobilityModel::Stationary { .. })
    }

    /// Compiles the model into a deterministic [`MotionPlan`] covering the
    /// time span `[0, horizon]`. Random-waypoint legs are drawn from `rng`.
    pub fn compile(&self, horizon: SimTime, rng: &mut SimRng) -> MotionPlan {
        match self {
            MobilityModel::Stationary { position } => MotionPlan::fixed(*position),
            MobilityModel::Linear {
                from,
                to,
                speed_mps,
                start_after,
            } => {
                let mut plan = MotionPlan::starting_at(*from);
                plan.hold_until(SimTime::ZERO + *start_after);
                plan.move_to(*to, *speed_mps);
                plan
            }
            MobilityModel::Waypoints {
                points,
                speed_mps,
                start_after,
            } => {
                let start = points.first().copied().unwrap_or(Point::ORIGIN);
                let mut plan = MotionPlan::starting_at(start);
                plan.hold_until(SimTime::ZERO + *start_after);
                for p in points.iter().skip(1) {
                    plan.move_to(*p, *speed_mps);
                }
                plan
            }
            MobilityModel::RandomWaypoint {
                area,
                start,
                min_speed_mps,
                max_speed_mps,
                pause,
            } => {
                let mut plan = MotionPlan::starting_at(area.clamp(*start));
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
                plan
            }
        }
    }
}

/// One linear segment of a compiled trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// A deterministic piecewise-linear trajectory: the node's position can be
/// evaluated at any instant with a binary search over segments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MotionPlan {
    segments: Vec<Segment>,
    final_position: Point,
}

impl MotionPlan {
    /// A plan that keeps the node at `position` forever.
    pub fn fixed(position: Point) -> Self {
        MotionPlan {
            segments: Vec::new(),
            final_position: position,
        }
    }

    /// Starts building a plan with the node at `start` at time zero.
    pub fn starting_at(start: Point) -> Self {
        MotionPlan {
            segments: Vec::new(),
            final_position: start,
        }
    }

    /// Time at which the last scheduled movement finishes.
    pub fn end_time(&self) -> SimTime {
        self.segments.last().map(|s| s.end_time).unwrap_or(SimTime::ZERO)
    }

    /// Appends a stay-in-place segment until the given absolute time. Does
    /// nothing if `until` is not after the current end of the plan.
    pub fn hold_until(&mut self, until: SimTime) {
        let start = self.end_time();
        if until <= start {
            return;
        }
        let pos = self.final_position;
        self.segments.push(Segment {
            start_time: start,
            end_time: until,
            from: pos,
            to: pos,
        });
    }

    /// Appends a stay-in-place segment of the given length.
    pub fn hold_for(&mut self, duration: SimDuration) {
        let until = self.end_time() + duration;
        self.hold_until(until);
    }

    /// Appends a constant-speed movement from the current end position to
    /// `target`.
    ///
    /// # Panics
    ///
    /// Panics if `speed_mps` is not strictly positive.
    pub fn move_to(&mut self, target: Point, speed_mps: f64) {
        assert!(speed_mps > 0.0, "speed must be positive");
        let from = self.final_position;
        let start = self.end_time();
        let distance = from.distance(target);
        let travel = SimDuration::from_secs_f64(distance / speed_mps);
        self.segments.push(Segment {
            start_time: start,
            end_time: start + travel,
            from,
            to: target,
        });
        self.final_position = target;
    }

    /// Position of the node at time `t`.
    pub fn position_at(&self, t: SimTime) -> Point {
        if self.segments.is_empty() {
            return self.final_position;
        }
        // Binary search for the segment containing t.
        let idx = self.segments.partition_point(|s| s.end_time < t);
        match self.segments.get(idx) {
            Some(seg) => seg.position_at(t),
            None => self.final_position,
        }
    }

    /// True if the node is still scheduled to move after time `t`.
    pub fn moving_after(&self, t: SimTime) -> bool {
        self.segments.iter().any(|s| s.end_time > t && s.from != s.to)
    }

    /// Earliest time at or after `from` at which the trajectory leaves the
    /// closed rectangle `rect`, or `None` if the node never does.
    ///
    /// The world's spatial index uses this to decide how long a node's
    /// grid-cell residency stays valid, so the index only touches a node
    /// when it actually crosses a cell boundary instead of on every query.
    pub fn departure_time(&self, rect: Rect, from: SimTime) -> Option<SimTime> {
        if !rect.contains(self.position_at(from)) {
            return Some(from);
        }
        let start_idx = self.segments.partition_point(|s| s.end_time < from);
        for seg in &self.segments[start_idx..] {
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
}

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
        assert_eq!(
            MobilityModel::stationary(Point::new(1.0, 2.0)).initial_position(),
            Point::new(1.0, 2.0)
        );
        let wp = MobilityModel::Waypoints {
            points: vec![Point::new(7.0, 7.0)],
            speed_mps: 1.0,
            start_after: SimDuration::ZERO,
        };
        assert_eq!(wp.initial_position(), Point::new(7.0, 7.0));
    }

    #[test]
    #[should_panic]
    fn zero_speed_rejected() {
        let mut plan = MotionPlan::starting_at(Point::ORIGIN);
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
        let mut plan = MotionPlan::starting_at(Point::new(5.0, 5.0));
        plan.hold_until(SimTime::from_secs(20));
        plan.move_to(Point::new(5.0, 35.0), 1.0); // leaves y=10 at t=25
        let rect = Rect::square(10.0);
        let t = plan.departure_time(rect, SimTime::ZERO).unwrap();
        assert!((t.as_secs_f64() - 25.0).abs() < 1e-6, "left at {t:?}");
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
