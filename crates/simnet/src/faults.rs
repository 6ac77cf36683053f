//! Deterministic fault and churn injection.
//!
//! The thesis evaluates PeerHood against one kind of adversity — geometry: a
//! device walks out of radio range. Real deployments also die of crashed
//! daemons, radios toggled off and flaky links. This module adds those
//! failure modes to the simulated world without giving up determinism:
//!
//! * a [`FaultPlan`] is a per-node schedule of **crashes & restarts** (the
//!   node's slot is freed of links, it is evicted from the spatial index
//!   while down, and its agent is reborn with fresh state through
//!   [`NodeAgent::on_restart`](crate::node::NodeAgent::on_restart)),
//!   **radio outages** (per-technology airplane mode: the node answers no
//!   inquiries and its links on that technology drop) and **flapping
//!   links** (a link pair that is periodically dead, phase-shifted by the
//!   world seed),
//! * plans are either scripted explicitly (the builder methods) or derived
//!   from a seed with [`FaultPlan::churn`], so every run of a churn scenario
//!   reproduces byte-for-byte,
//! * the world records a typed [`LifecycleEvent`] stream
//!   ([`NodeDown`](LifecycleKind::NodeDown) / [`NodeUp`](LifecycleKind::NodeUp) /
//!   [`RadioDown`](LifecycleKind::RadioDown) / [`RadioUp`](LifecycleKind::RadioUp))
//!   and aggregate [`FaultStats`] for experiment reports.
//!
//! A world with **no plans installed pays nothing**: the hooks in the event
//! loop are guarded by emptiness checks, no randomness is drawn, and event
//! traces are byte-identical to a fault-free build (asserted by the
//! scale-determinism tests).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::node::NodeId;
use crate::radio::RadioTech;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// One scheduled state transition of a node or one of its radios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAction {
    /// The node crashes: links break, the slot leaves the spatial index and
    /// the agent stops receiving events.
    NodeDown,
    /// The node restarts: it re-enters the spatial index and its agent is
    /// reborn through `NodeAgent::on_restart`.
    NodeUp,
    /// The given radio goes dark (airplane mode): links on it drop and the
    /// node no longer answers inquiries on it.
    RadioDown(RadioTech),
    /// The given radio comes back.
    RadioUp(RadioTech),
}

/// A periodic up/down square wave on the link pair between the planned node
/// and one peer: a link that works for `duty` of every `period` and is dead
/// for the rest — the classic flapping neighbour that keeps tearing down and
/// re-admitting sessions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlappingLink {
    /// The other endpoint of the flapping pair.
    pub peer: NodeId,
    /// Length of one full up+down cycle.
    pub period: SimDuration,
    /// Fraction of each period the link is *up* (clamped to `[0, 1]`).
    pub duty: f64,
}

/// A deterministic per-node fault schedule.
///
/// Built fluently by scenarios, or derived from a seed with
/// [`FaultPlan::churn`]; installed with
/// [`World::install_fault_plan`](crate::world::World::install_fault_plan).
///
/// ```
/// use simnet::faults::FaultPlan;
/// use simnet::time::{SimDuration, SimTime};
/// use simnet::radio::RadioTech;
///
/// let plan = FaultPlan::new()
///     .crash_for(SimTime::from_secs(60), SimDuration::from_secs(10))
///     .radio_outage(RadioTech::Bluetooth, SimTime::from_secs(120), SimDuration::from_secs(5));
/// assert_eq!(plan.actions().len(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    actions: Vec<(SimTime, FaultAction)>,
    flaps: Vec<FlappingLink>,
}

impl FaultPlan {
    /// An empty plan (installing it is a no-op).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True if the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty() && self.flaps.is_empty()
    }

    /// The scheduled actions, in insertion order.
    pub fn actions(&self) -> &[(SimTime, FaultAction)] {
        &self.actions
    }

    /// The flapping link pairs.
    pub fn flaps(&self) -> &[FlappingLink] {
        &self.flaps
    }

    /// Schedules a permanent crash at `at`.
    pub fn crash_at(mut self, at: SimTime) -> Self {
        self.actions.push((at, FaultAction::NodeDown));
        self
    }

    /// Schedules a crash at `at` followed by a restart `downtime` later.
    pub fn crash_for(mut self, at: SimTime, downtime: SimDuration) -> Self {
        self.actions.push((at, FaultAction::NodeDown));
        self.actions.push((at + downtime, FaultAction::NodeUp));
        self
    }

    /// Schedules a restart at `at` (pairs with [`FaultPlan::crash_at`]).
    pub fn restart_at(mut self, at: SimTime) -> Self {
        self.actions.push((at, FaultAction::NodeUp));
        self
    }

    /// Schedules an airplane-mode window on `tech` starting at `at`.
    pub fn radio_outage(mut self, tech: RadioTech, at: SimTime, duration: SimDuration) -> Self {
        self.actions.push((at, FaultAction::RadioDown(tech)));
        self.actions.push((at + duration, FaultAction::RadioUp(tech)));
        self
    }

    /// Declares the link pair between the planned node and `peer` as
    /// flapping: up for `duty` of every `period`, dead for the rest. While
    /// the pair is down, connection attempts between the two nodes fail
    /// with [`ConnectError::LinkDown`](crate::node::ConnectError::LinkDown)
    /// (the peer is in range, so nothing should take it for gone), payloads
    /// in flight between them are lost and open links break at the next
    /// link check with
    /// [`DisconnectReason::OutOfRange`](crate::node::DisconnectReason::OutOfRange),
    /// so recovery machinery sees an ordinary range loss.
    ///
    /// The square wave's phase offset is drawn from the world's dedicated
    /// fault stream at install time, so a population of flapping links
    /// desynchronises deterministically under the world seed. `duty` is
    /// clamped to `[0, 1]`; a zero `period` or a duty of `1.0` never flaps.
    pub fn flapping_link(mut self, peer: NodeId, period: SimDuration, duty: f64) -> Self {
        self.flaps.push(FlappingLink {
            peer,
            period,
            duty: duty.clamp(0.0, 1.0),
        });
        self
    }

    /// Derives a crash/restart churn schedule from a random stream: crash
    /// inter-arrival times are exponential with mean `mtbf`, downtimes are
    /// exponential with mean `mean_downtime` (floored at one second so a
    /// restart is always observable), covering `[0, horizon)`.
    ///
    /// Callers derive `rng` from their scenario seed, so the same seed
    /// always produces the same churn.
    pub fn churn(horizon: SimTime, mtbf: SimDuration, mean_downtime: SimDuration, rng: &mut SimRng) -> Self {
        let mut plan = FaultPlan::new();
        if mtbf == SimDuration::ZERO {
            return plan;
        }
        let mut t = SimTime::ZERO + SimDuration::from_secs_f64(rng.exponential(mtbf.as_secs_f64()));
        while t < horizon {
            let down = SimDuration::from_secs_f64(rng.exponential(mean_downtime.as_secs_f64()).max(1.0));
            plan = plan.crash_for(t, down);
            t = t + down + SimDuration::from_secs_f64(rng.exponential(mtbf.as_secs_f64()));
        }
        plan
    }
}

/// What happened to a node, as recorded in the world's lifecycle stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LifecycleKind {
    /// The node crashed (or was switched off).
    NodeDown,
    /// The node restarted.
    NodeUp,
    /// A radio went dark.
    RadioDown(RadioTech),
    /// A radio came back.
    RadioUp(RadioTech),
}

/// One entry of the world's typed lifecycle stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LifecycleEvent {
    /// When the transition happened.
    pub at: SimTime,
    /// The node concerned.
    pub node: NodeId,
    /// What happened.
    pub kind: LifecycleKind,
}

crate::counter_table! {
    /// Aggregate fault-injection counters for experiment reports, mirrored
    /// as the `faults/*` series — the one catalogue both engines sample.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct FaultStats in "faults" {
        /// Nodes crashed (transitions to down).
        pub crashes: u64 => counter "node_crashes",
        /// Nodes restarted (transitions back up).
        pub restarts: u64 => counter "node_restarts",
        /// Radio outages started.
        pub radio_outages: u64 => counter "radio_outages",
        /// Radios restored.
        pub radio_restores: u64,
    }
}

impl FaultStats {
    /// Counts one lifecycle transition.
    pub(crate) fn count(&mut self, kind: LifecycleKind) {
        match kind {
            LifecycleKind::NodeDown => self.crashes += 1,
            LifecycleKind::NodeUp => self.restarts += 1,
            LifecycleKind::RadioDown(_) => self.radio_outages += 1,
            LifecycleKind::RadioUp(_) => self.radio_restores += 1,
        }
    }
}

/// The world-side fault engine: installed actions and flaps, the dedicated
/// fault RNG stream, lifecycle log and counters.
///
/// The RNG is seeded independently of the world's master stream (from the
/// world seed, but through its own constant), so installing plans never
/// perturbs the draws a fault-free world would make.
pub(crate) struct FaultEngine {
    /// Each node's installed actions, indexed by the schedule `install`
    /// returned.
    actions: BTreeMap<NodeId, Vec<FaultAction>>,
    /// Flapping pairs from installed plans, phase-shifted at install time.
    flaps: Vec<ActiveFlap>,
    rng: SimRng,
    pub(crate) stats: FaultStats,
    pub(crate) lifecycle: Vec<LifecycleEvent>,
}

/// One installed flapping pair with its seeded phase offset resolved.
#[derive(Debug, Clone, Copy)]
struct ActiveFlap {
    a: NodeId,
    b: NodeId,
    period: SimDuration,
    /// Length of the up phase at the start of each (shifted) period.
    up_for: SimDuration,
    /// Seeded phase offset in `[0, period)`.
    phase: SimDuration,
}

impl ActiveFlap {
    fn covers(&self, x: NodeId, y: NodeId) -> bool {
        (self.a == x && self.b == y) || (self.a == y && self.b == x)
    }

    /// True while the square wave is in its down phase at `now`.
    fn down_at(&self, now: SimTime) -> bool {
        let period = self.period.as_micros();
        if period == 0 {
            return false;
        }
        let pos = (now.as_micros().wrapping_add(self.phase.as_micros())) % period;
        pos >= self.up_for.as_micros()
    }
}

const FAULT_RNG_LABEL: u64 = 0xFA17_5EED_0000_0001;

impl FaultEngine {
    pub(crate) fn new(world_seed: u64) -> Self {
        FaultEngine {
            actions: BTreeMap::new(),
            flaps: Vec::new(),
            rng: SimRng::new(world_seed ^ FAULT_RNG_LABEL),
            stats: FaultStats::default(),
            lifecycle: Vec::new(),
        }
    }

    /// Registers a plan and returns the actions to schedule. Installing a
    /// second plan for the same node extends the first. Flapping pairs get
    /// their phase offset drawn from the fault stream here — the only draw
    /// the stream makes, so flap-free worlds draw nothing.
    pub(crate) fn install(&mut self, node: NodeId, plan: FaultPlan) -> Vec<(SimTime, usize)> {
        for flap in &plan.flaps {
            let period = flap.period.as_micros();
            let phase = if period == 0 { 0 } else { self.rng.range(0..period) };
            self.flaps.push(ActiveFlap {
                a: node,
                b: flap.peer,
                period: flap.period,
                up_for: flap.period.mul_f64(flap.duty),
                phase: SimDuration::from_micros(phase),
            });
        }
        let entry = self.actions.entry(node).or_default();
        let base = entry.len();
        entry.extend(plan.actions.iter().map(|(_, action)| *action));
        plan.actions
            .iter()
            .enumerate()
            .map(|(i, (at, _))| (*at, base + i))
            .collect()
    }

    /// The action a previously installed plan scheduled under `idx`.
    pub(crate) fn action(&self, node: NodeId, idx: usize) -> Option<FaultAction> {
        self.actions.get(&node).and_then(|a| a.get(idx)).copied()
    }

    /// True if any installed plan has flapping pairs (cheap guard for the
    /// connect/delivery/link-check hot paths).
    pub(crate) fn has_flaps(&self) -> bool {
        !self.flaps.is_empty()
    }

    /// True while some flapping pair covering the `x`/`y` link is in its
    /// down phase at `now`. Pure arithmetic — no randomness is drawn, so the
    /// predicate can sit on hot paths without perturbing traces.
    pub(crate) fn link_flapped_down(&self, x: NodeId, y: NodeId, now: SimTime) -> bool {
        self.flaps.iter().any(|f| f.covers(x, y) && f.down_at(now))
    }

    /// True if some installed flapping pair covers the `x`/`y` link, whatever
    /// its phase: such a link can drop at any poll and is checked at each.
    pub(crate) fn flap_covers(&self, x: NodeId, y: NodeId) -> bool {
        self.flaps.iter().any(|f| f.covers(x, y))
    }

    pub(crate) fn record(&mut self, at: SimTime, node: NodeId, kind: LifecycleKind) {
        self.stats.count(kind);
        self.lifecycle.push(LifecycleEvent { at, node, kind });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_actions_in_order() {
        let plan = FaultPlan::new()
            .crash_for(SimTime::from_secs(10), SimDuration::from_secs(5))
            .radio_outage(RadioTech::Wlan, SimTime::from_secs(20), SimDuration::from_secs(2))
            .crash_at(SimTime::from_secs(100));
        assert_eq!(
            plan.actions(),
            &[
                (SimTime::from_secs(10), FaultAction::NodeDown),
                (SimTime::from_secs(15), FaultAction::NodeUp),
                (SimTime::from_secs(20), FaultAction::RadioDown(RadioTech::Wlan)),
                (SimTime::from_secs(22), FaultAction::RadioUp(RadioTech::Wlan)),
                (SimTime::from_secs(100), FaultAction::NodeDown),
            ]
        );
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn churn_is_deterministic_in_the_seed_and_alternates() {
        let horizon = SimTime::from_secs(3600);
        let mtbf = SimDuration::from_secs(300);
        let down = SimDuration::from_secs(20);
        let a = FaultPlan::churn(horizon, mtbf, down, &mut SimRng::new(7));
        let b = FaultPlan::churn(horizon, mtbf, down, &mut SimRng::new(7));
        assert_eq!(a, b, "same seed must derive the same plan");
        let c = FaultPlan::churn(horizon, mtbf, down, &mut SimRng::new(8));
        assert_ne!(a, c, "different seeds should not collide");
        // Actions strictly alternate Down/Up, times non-decreasing, within
        // horizon for the Down edges.
        let actions = a.actions();
        assert!(!actions.is_empty(), "an hour at 5-minute MTBF must produce churn");
        for (i, (at, action)) in actions.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(*action, FaultAction::NodeDown);
                assert!(*at < horizon);
            } else {
                assert_eq!(*action, FaultAction::NodeUp);
            }
            if i > 0 {
                assert!(actions[i - 1].0 <= *at);
            }
        }
        assert_eq!(actions.len() % 2, 0, "every churn crash has a restart");
    }

    #[test]
    fn zero_mtbf_means_no_churn() {
        let plan = FaultPlan::churn(
            SimTime::from_secs(100),
            SimDuration::ZERO,
            SimDuration::from_secs(5),
            &mut SimRng::new(1),
        );
        assert!(plan.is_empty());
    }

    #[test]
    fn flapping_link_square_wave_is_periodic_and_pairwise() {
        let mut engine = FaultEngine::new(42);
        let node = NodeId::from_raw(0);
        let flaky = NodeId::from_raw(1);
        let clean = NodeId::from_raw(2);
        let period = SimDuration::from_secs(10);
        let plan = FaultPlan::new().flapping_link(flaky, period, 0.6);
        assert!(!plan.is_empty(), "a flap-only plan must install");
        assert_eq!(plan.flaps().len(), 1);
        engine.install(node, plan);
        assert!(engine.has_flaps());
        // The wave must be down for 40% of every period, in both directions,
        // and strictly periodic.
        let micros_down: u64 = (0..10_000)
            .filter(|i| engine.link_flapped_down(node, flaky, SimTime::from_millis(i * 10)))
            .count() as u64;
        assert!(
            (3_500..=4_500).contains(&micros_down),
            "~40% of samples should be down, got {micros_down}/10000"
        );
        for i in 0..2_000u64 {
            let t = SimTime::from_millis(i * 10);
            let wrapped = SimTime::from_micros(t.as_micros() + period.as_micros());
            assert_eq!(
                engine.link_flapped_down(node, flaky, t),
                engine.link_flapped_down(node, flaky, wrapped),
                "square wave must repeat with its period"
            );
            assert_eq!(
                engine.link_flapped_down(node, flaky, t),
                engine.link_flapped_down(flaky, node, t),
                "flap is symmetric in the pair"
            );
            assert!(!engine.link_flapped_down(node, clean, t), "other pairs never flap");
        }
    }

    #[test]
    fn flapping_phase_is_seeded_and_deterministic() {
        let node = NodeId::from_raw(0);
        let peer = NodeId::from_raw(1);
        let period = SimDuration::from_secs(8);
        let wave = |seed: u64| {
            let mut engine = FaultEngine::new(seed);
            engine.install(node, FaultPlan::new().flapping_link(peer, period, 0.5));
            (0..1_000u64)
                .map(|i| engine.link_flapped_down(node, peer, SimTime::from_millis(i * 20)))
                .collect::<Vec<bool>>()
        };
        assert_eq!(wave(7), wave(7), "same seed, same phase");
        assert_ne!(wave(7), wave(8), "different seeds shift the phase");
    }

    #[test]
    fn degenerate_duty_cycles_never_flap_or_always_flap() {
        let mut engine = FaultEngine::new(3);
        let node = NodeId::from_raw(0);
        let up_peer = NodeId::from_raw(1);
        let down_peer = NodeId::from_raw(2);
        engine.install(
            node,
            FaultPlan::new()
                .flapping_link(up_peer, SimDuration::from_secs(5), 1.0)
                .flapping_link(down_peer, SimDuration::from_secs(5), 0.0),
        );
        for i in 0..500u64 {
            let t = SimTime::from_millis(i * 37);
            assert!(!engine.link_flapped_down(node, up_peer, t), "duty 1.0 is always up");
            assert!(engine.link_flapped_down(node, down_peer, t), "duty 0.0 is always down");
        }
        // Zero period cannot flap (and must not divide by zero).
        let mut zero = FaultEngine::new(4);
        zero.install(node, FaultPlan::new().flapping_link(up_peer, SimDuration::ZERO, 0.5));
        assert!(!zero.link_flapped_down(node, up_peer, SimTime::from_secs(1)));
    }

    #[test]
    fn installing_a_second_plan_extends_the_first() {
        let mut engine = FaultEngine::new(1);
        let node = NodeId::from_raw(3);
        let first = engine.install(node, FaultPlan::new().crash_at(SimTime::from_secs(1)));
        let second = engine.install(node, FaultPlan::new().restart_at(SimTime::from_secs(2)));
        assert_eq!(first, vec![(SimTime::from_secs(1), 0)]);
        assert_eq!(second, vec![(SimTime::from_secs(2), 1)]);
        assert_eq!(engine.action(node, 0), Some(FaultAction::NodeDown));
        assert_eq!(engine.action(node, 1), Some(FaultAction::NodeUp));
        assert_eq!(engine.action(node, 2), None);
        assert_eq!(engine.action(NodeId::from_raw(9), 0), None);
    }
}
