//! Adversarial fault injection: network partitions and Byzantine frames.
//!
//! [`simnet::faults`](crate::faults) models *accidental* failure — crashes,
//! outages, flapping links. This module models *malice*:
//!
//! * **Partition windows** — scheduled intervals during which two node sets
//!   cannot hear each other at all: inquiries do not cross the cut,
//!   connection attempts fail with `LinkDown`, in-flight payloads are
//!   lost, and open links spanning the cut break the instant the window
//!   opens. When the window closes the cut heals and ordinary discovery,
//!   handover and bridge re-routing repair the damage.
//! * **Byzantine compromise** — a set of *compromised* nodes whose outgoing
//!   frames may be rewritten in flight ("tamper"), which observe every
//!   frame delivered to them ("sniff", feeding replay attacks), and which
//!   periodically inject wholly forged frames on their own open links
//!   ("inject"). What a hostile frame *contains* is delegated to a
//!   [`FrameForge`] implementation — the simulator knows nothing about the
//!   wire protocol it is attacking, so the middleware crate supplies the
//!   forge.
//!
//! All adversarial randomness is drawn from a dedicated RNG stream derived
//! from the world seed under its own label: a world with no adversary plan
//! installed draws nothing from it and behaves byte-identically to a build
//! without this module. The hot-path predicates (`has_partitions`,
//! `partitioned`, `is_compromised`) are pure arithmetic over the installed
//! plan, so the checks added to delivery, discovery and connection
//! resolution cost a branch when the plan is empty.

use std::collections::BTreeSet;

use crate::node::NodeId;
use crate::payload::Payload;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// One scheduled partition: while active, nodes inside `island` and nodes
/// outside it cannot communicate in either direction.
#[derive(Debug, Clone)]
pub struct PartitionWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive) — the heal instant.
    pub until: SimTime,
    /// One side of the cut; everything not in the set is the other side.
    pub island: BTreeSet<NodeId>,
}

impl PartitionWindow {
    /// True while the window is in force.
    pub fn active_at(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }

    /// True if the pair `(a, b)` spans the cut (regardless of time).
    pub fn cuts(&self, a: NodeId, b: NodeId) -> bool {
        self.island.contains(&a) != self.island.contains(&b)
    }
}

/// One compromised node: between `from` and `until` its outgoing frames may
/// be tampered with and it injects a forged frame every `inject_interval`.
#[derive(Debug, Clone)]
pub struct CompromisedNode {
    /// The attacker.
    pub node: NodeId,
    /// Compromise start (inclusive).
    pub from: SimTime,
    /// Compromise end (exclusive).
    pub until: SimTime,
    /// Spacing of injection attempts while compromised.
    pub inject_interval: SimDuration,
}

impl CompromisedNode {
    fn active_at(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }
}

/// A declarative adversary schedule: partition windows plus compromised
/// nodes. Installed into a world with
/// [`World::install_adversary_plan`](crate::world::World::install_adversary_plan).
#[derive(Debug, Clone, Default)]
pub struct AdversaryPlan {
    partitions: Vec<PartitionWindow>,
    compromised: Vec<CompromisedNode>,
}

impl AdversaryPlan {
    /// An empty plan.
    pub fn new() -> Self {
        AdversaryPlan::default()
    }

    /// Adds a partition window separating `island` from the rest of the
    /// world between `from` and `until` (builder-style).
    pub fn partition(mut self, from: SimTime, until: SimTime, island: impl IntoIterator<Item = NodeId>) -> Self {
        self.partitions.push(PartitionWindow {
            from,
            until,
            island: island.into_iter().collect(),
        });
        self
    }

    /// Marks `node` as compromised between `from` and `until`, injecting a
    /// forged frame every `inject_interval` (builder-style).
    pub fn compromise(mut self, node: NodeId, from: SimTime, until: SimTime, inject_interval: SimDuration) -> Self {
        self.compromised.push(CompromisedNode {
            node,
            from,
            until,
            inject_interval: inject_interval.max(SimDuration::from_millis(1)),
        });
        self
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty() && self.compromised.is_empty()
    }

    /// The partition windows of the plan.
    pub fn partitions(&self) -> &[PartitionWindow] {
        &self.partitions
    }

    /// The compromised nodes of the plan.
    pub fn compromised(&self) -> &[CompromisedNode] {
        &self.compromised
    }
}

/// Builds the adversarial payloads. The simulator decides *when* a hostile
/// frame appears (driven by the adversary RNG stream); the forge decides
/// *what* it contains, which requires knowledge of the wire protocol the
/// world's agents speak — so the middleware crate implements this trait.
pub trait FrameForge {
    /// Possibly rewrite a frame sent by compromised `attacker` while its
    /// compromise window is active. Return `Some` to replace the payload
    /// seen by the receiver; `None` lets the frame through untouched.
    fn tamper(&mut self, attacker: NodeId, payload: &Payload, rng: &mut SimRng) -> Option<Payload>;

    /// Forge a hostile frame for `attacker` to inject towards `peer`.
    /// `sniffed` holds recent frames delivered to any compromised node, for
    /// replay attacks. Return `None` to skip this injection tick.
    fn forge(&mut self, attacker: NodeId, peer: NodeId, sniffed: &[Payload], rng: &mut SimRng) -> Option<Payload>;
}

/// Aggregate counters of adversarial activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdversaryStats {
    /// Partition windows that have opened.
    pub partitions_started: u64,
    /// Partition windows that have healed.
    pub partitions_healed: u64,
    /// In-flight payloads lost to an active cut.
    pub partition_drops: u64,
    /// Open links broken by a window opening across them.
    pub cut_links_broken: u64,
    /// Frames rewritten in flight by the forge.
    pub frames_tampered: u64,
    /// Forged frames injected on an attacker's links.
    pub frames_injected: u64,
}

impl AdversaryStats {
    /// Total hostile frames put on the air (tampered + injected).
    pub fn frames_hostile(&self) -> u64 {
        self.frames_tampered + self.frames_injected
    }
}

/// One scheduled adversary step (indexed by the world's `Event::Adversary`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum AdversaryAction {
    /// A partition window opens: break open links across the cut.
    PartitionStart(usize),
    /// A partition window closes (heal; counted for the stats/telemetry).
    PartitionEnd,
    /// An injection tick for a compromised node.
    Inject { node: NodeId },
}

/// Label under which the adversary RNG stream is derived from the world
/// seed, keeping adversarial draws fully isolated from every other stream.
const ADVERSARY_RNG_LABEL: u64 = 0xAD5E_44A1_0000_0001;

/// How many recently sniffed frames are retained for replay attacks.
const SNIFF_CAPACITY: usize = 32;

/// Runtime adversary state owned by the world.
pub(crate) struct AdversaryEngine {
    partitions: Vec<PartitionWindow>,
    compromised: Vec<CompromisedNode>,
    actions: Vec<AdversaryAction>,
    pub(crate) rng: SimRng,
    pub(crate) forge: Option<Box<dyn FrameForge>>,
    sniffed: Vec<Payload>,
    sniff_next: usize,
    pub(crate) stats: AdversaryStats,
}

impl AdversaryEngine {
    pub(crate) fn new(world_seed: u64) -> Self {
        AdversaryEngine {
            partitions: Vec::new(),
            compromised: Vec::new(),
            actions: Vec::new(),
            rng: SimRng::new(world_seed ^ ADVERSARY_RNG_LABEL),
            forge: None,
            sniffed: Vec::new(),
            sniff_next: 0,
            stats: AdversaryStats::default(),
        }
    }

    /// Merges a plan into the engine (additive, like fault plans) and
    /// returns the `(time, action index)` pairs the world must schedule.
    pub(crate) fn install(&mut self, plan: AdversaryPlan) -> Vec<(SimTime, usize)> {
        let mut schedule = Vec::new();
        for window in plan.partitions {
            let idx = self.partitions.len();
            schedule.push((window.from, self.push_action(AdversaryAction::PartitionStart(idx))));
            schedule.push((window.until, self.push_action(AdversaryAction::PartitionEnd)));
            self.partitions.push(window);
        }
        for c in plan.compromised {
            let node = c.node;
            let mut at = c.from;
            while at < c.until {
                schedule.push((at, self.push_action(AdversaryAction::Inject { node })));
                at += c.inject_interval;
            }
            self.compromised.push(c);
        }
        schedule
    }

    fn push_action(&mut self, action: AdversaryAction) -> usize {
        self.actions.push(action);
        self.actions.len() - 1
    }

    pub(crate) fn action(&self, idx: usize) -> Option<AdversaryAction> {
        self.actions.get(idx).copied()
    }

    pub(crate) fn partition_window(&self, idx: usize) -> Option<&PartitionWindow> {
        self.partitions.get(idx)
    }

    /// True once any partition window has been installed. Pure; guards every
    /// hot-path partition check so plan-free worlds pay one branch.
    pub(crate) fn has_partitions(&self) -> bool {
        !self.partitions.is_empty()
    }

    /// True while an active window separates `a` from `b`. Pure arithmetic:
    /// no RNG is drawn deciding partition outcomes.
    pub(crate) fn partitioned(&self, a: NodeId, b: NodeId, now: SimTime) -> bool {
        self.partitions.iter().any(|w| w.active_at(now) && w.cuts(a, b))
    }

    /// Number of windows in force at `now` (the telemetry gauge).
    pub(crate) fn partitions_active_at(&self, now: SimTime) -> usize {
        self.partitions.iter().filter(|w| w.active_at(now)).count()
    }

    /// True once any compromise has been installed.
    pub(crate) fn has_hostiles(&self) -> bool {
        !self.compromised.is_empty()
    }

    /// True while `node` is inside one of its compromise windows.
    pub(crate) fn is_compromised(&self, node: NodeId, now: SimTime) -> bool {
        self.compromised.iter().any(|c| c.node == node && c.active_at(now))
    }

    /// True when the engine can influence anything (telemetry export guard).
    pub(crate) fn installed(&self) -> bool {
        self.has_partitions() || self.has_hostiles()
    }

    /// Gives a compromised sender's frame to the forge for rewriting.
    /// Returns the replacement payload, if the forge chose to tamper.
    pub(crate) fn tamper(&mut self, from: NodeId, payload: &Payload, now: SimTime) -> Option<Payload> {
        if !self.is_compromised(from, now) {
            return None;
        }
        let mut forge = self.forge.take()?;
        let out = forge.tamper(from, payload, &mut self.rng);
        self.forge = Some(forge);
        if out.is_some() {
            self.stats.frames_tampered += 1;
        }
        out
    }

    /// Records a frame delivered to a compromised node (replay material).
    pub(crate) fn sniff(&mut self, to: NodeId, payload: &Payload, now: SimTime) {
        if self.forge.is_none() || !self.is_compromised(to, now) {
            return;
        }
        if self.sniffed.len() < SNIFF_CAPACITY {
            self.sniffed.push(payload.clone());
        } else {
            self.sniffed[self.sniff_next] = payload.clone();
            self.sniff_next = (self.sniff_next + 1) % SNIFF_CAPACITY;
        }
    }

    /// Asks the forge for an injected frame towards `peer`.
    pub(crate) fn forge_injection(&mut self, attacker: NodeId, peer: NodeId) -> Option<Payload> {
        let mut forge = self.forge.take()?;
        let out = forge.forge(attacker, peer, &self.sniffed, &mut self.rng);
        self.forge = Some(forge);
        if out.is_some() {
            self.stats.frames_injected += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(raw: u64) -> NodeId {
        NodeId::from_raw(raw)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn empty_plan_is_empty_and_inert() {
        let plan = AdversaryPlan::new();
        assert!(plan.is_empty());
        let mut engine = AdversaryEngine::new(42);
        assert!(engine.install(plan).is_empty());
        assert!(!engine.installed());
        assert!(!engine.has_partitions());
        assert!(!engine.has_hostiles());
    }

    #[test]
    fn partition_window_cuts_across_the_island_boundary_only() {
        let w = PartitionWindow {
            from: t(10),
            until: t(20),
            island: [n(1), n(2)].into_iter().collect(),
        };
        assert!(w.cuts(n(1), n(3)));
        assert!(w.cuts(n(3), n(2)));
        assert!(!w.cuts(n(1), n(2)), "both inside: no cut");
        assert!(!w.cuts(n(3), n(4)), "both outside: no cut");
        assert!(!w.active_at(t(9)));
        assert!(w.active_at(t(10)));
        assert!(w.active_at(t(19)));
        assert!(!w.active_at(t(20)), "heal instant is exclusive");
    }

    #[test]
    fn engine_partitioned_respects_windows_and_time() {
        let mut engine = AdversaryEngine::new(7);
        let plan = AdversaryPlan::new().partition(t(10), t(20), [n(0)]);
        let schedule = engine.install(plan);
        assert_eq!(schedule.len(), 2, "one start + one end event");
        assert!(engine.has_partitions());
        assert!(!engine.partitioned(n(0), n(1), t(5)));
        assert!(engine.partitioned(n(0), n(1), t(15)));
        assert!(!engine.partitioned(n(1), n(2), t(15)), "same side stays connected");
        assert!(!engine.partitioned(n(0), n(1), t(20)), "healed");
        assert_eq!(engine.partitions_active_at(t(15)), 1);
        assert_eq!(engine.partitions_active_at(t(25)), 0);
    }

    #[test]
    fn overlapping_windows_both_count() {
        let mut engine = AdversaryEngine::new(7);
        engine.install(
            AdversaryPlan::new()
                .partition(t(10), t(30), [n(0)])
                .partition(t(20), t(40), [n(5)]),
        );
        assert_eq!(engine.partitions_active_at(t(25)), 2);
        assert!(engine.partitioned(n(5), n(1), t(35)));
        assert!(!engine.partitioned(n(5), n(1), t(15)));
    }

    #[test]
    fn compromise_schedule_ticks_at_the_interval() {
        let mut engine = AdversaryEngine::new(7);
        let plan = AdversaryPlan::new().compromise(n(3), t(10), t(13), SimDuration::from_secs(1));
        let schedule = engine.install(plan);
        let times: Vec<SimTime> = schedule.iter().map(|&(at, _)| at).collect();
        assert_eq!(times, vec![t(10), t(11), t(12)], "until is exclusive");
        assert!(engine.is_compromised(n(3), t(10)));
        assert!(engine.is_compromised(n(3), t(12)));
        assert!(!engine.is_compromised(n(3), t(13)));
        assert!(!engine.is_compromised(n(4), t(11)));
    }

    #[test]
    fn installing_a_second_plan_extends_the_first() {
        let mut engine = AdversaryEngine::new(7);
        engine.install(AdversaryPlan::new().partition(t(10), t(20), [n(0)]));
        engine.install(AdversaryPlan::new().partition(t(30), t(40), [n(1)]));
        assert!(engine.partitioned(n(0), n(1), t(15)));
        assert!(engine.partitioned(n(1), n(2), t(35)));
        assert!(!engine.partitioned(n(0), n(2), t(35)));
    }

    #[test]
    fn tamper_and_sniff_do_nothing_without_a_forge() {
        let mut engine = AdversaryEngine::new(7);
        engine.install(AdversaryPlan::new().compromise(n(1), t(0), t(100), SimDuration::from_secs(1)));
        let payload = Payload::copy_from_slice(b"hello");
        assert!(engine.tamper(n(1), &payload, t(5)).is_none());
        engine.sniff(n(1), &payload, t(5));
        assert!(engine.sniffed.is_empty());
        assert_eq!(engine.stats.frames_tampered, 0);
    }

    struct XorForge;
    impl FrameForge for XorForge {
        fn tamper(&mut self, _attacker: NodeId, payload: &Payload, _rng: &mut SimRng) -> Option<Payload> {
            let mut bytes = payload.to_vec();
            for b in &mut bytes {
                *b ^= 0xFF;
            }
            Some(bytes.into())
        }
        fn forge(
            &mut self,
            _attacker: NodeId,
            _peer: NodeId,
            sniffed: &[Payload],
            _rng: &mut SimRng,
        ) -> Option<Payload> {
            sniffed.first().cloned()
        }
    }

    #[test]
    fn tamper_applies_only_inside_the_compromise_window() {
        let mut engine = AdversaryEngine::new(7);
        engine.forge = Some(Box::new(XorForge));
        engine.install(AdversaryPlan::new().compromise(n(1), t(10), t(20), SimDuration::from_secs(1)));
        let payload = Payload::copy_from_slice(&[0x0F]);
        assert!(engine.tamper(n(1), &payload, t(5)).is_none(), "before the window");
        assert!(engine.tamper(n(2), &payload, t(15)).is_none(), "honest sender");
        let tampered = engine.tamper(n(1), &payload, t(15)).expect("inside the window");
        assert_eq!(tampered.as_slice(), &[0xF0]);
        assert_eq!(engine.stats.frames_tampered, 1);
    }

    #[test]
    fn sniff_ring_is_bounded_and_feeds_forgery() {
        let mut engine = AdversaryEngine::new(7);
        engine.forge = Some(Box::new(XorForge));
        engine.install(AdversaryPlan::new().compromise(n(1), t(0), t(100), SimDuration::from_secs(1)));
        for i in 0..(SNIFF_CAPACITY + 5) {
            engine.sniff(n(1), &Payload::copy_from_slice(&[i as u8]), t(1));
        }
        assert_eq!(engine.sniffed.len(), SNIFF_CAPACITY);
        let forged = engine.forge_injection(n(1), n(2)).expect("replays a sniffed frame");
        assert_eq!(forged.len(), 1);
        assert_eq!(engine.stats.frames_injected, 1);
    }

    #[test]
    fn adversary_rng_stream_is_seed_deterministic_and_label_isolated() {
        let mut a = AdversaryEngine::new(42);
        let mut b = AdversaryEngine::new(42);
        let draws_a: Vec<u64> = (0..8).map(|_| a.rng.next_u64()).collect();
        let draws_b: Vec<u64> = (0..8).map(|_| b.rng.next_u64()).collect();
        assert_eq!(draws_a, draws_b);
        // The stream differs from both the world stream and the fault stream.
        let mut world = SimRng::new(42);
        let world_draws: Vec<u64> = (0..8).map(|_| world.next_u64()).collect();
        assert_ne!(draws_a, world_draws);
    }

    #[test]
    fn stats_totals() {
        let stats = AdversaryStats {
            frames_tampered: 3,
            frames_injected: 4,
            ..AdversaryStats::default()
        };
        assert_eq!(stats.frames_hostile(), 7);
    }
}
