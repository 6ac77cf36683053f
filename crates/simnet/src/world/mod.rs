//! The simulation world: nodes, radios, links and the event loop.
//!
//! [`World`] owns every node (with its [`NodeAgent`] behaviour), compiles
//! mobility plans, models discovery inquiries, connection establishment,
//! message transmission and link breakage, and advances virtual time through
//! a deterministic event loop. Agents act on the world through [`NodeCtx`].
//!
//! Internally the world is layered:
//!
//! * `topology` — node slots, positions and a uniform spatial `grid`
//!   index keyed by mobility-aware cell residency,
//! * `discovery` — inquiry sampling over one walk of the grid,
//! * `links` — the table of live links and its per-node index, and
//! * `delivery` — message and disconnect ordering.
//!
//! The layering is an implementation detail: the public API and the event
//! semantics are identical to the original single-file world, and runs
//! reproduce byte-for-byte under the same seeds.

mod delivery;
mod discovery;
mod grid;
mod links;
pub mod partition;
pub mod shard;
mod topology;

#[cfg(test)]
mod adversary_tests;
#[cfg(test)]
mod faults_tests;
#[cfg(test)]
mod tests;

use std::any::Any;

use self::links::LinkTable;
use self::topology::{NodeSlot, Topology};
use crate::adversary::{AdversaryAction, AdversaryEngine, AdversaryPlan, AdversaryStats, FrameForge};
use crate::agent::Ctx;
use crate::event::Scheduler;
use crate::faults::{FaultAction, FaultEngine, FaultPlan, FaultStats, LifecycleEvent, LifecycleKind};
use crate::geometry::{Point, Rect};
use crate::link::{InFlightMessage, LinkInfo, PendingAttempt, QualityOverride};
use crate::metrics::{export_world_frame, Metrics};
use crate::mobility::MobilityModel;
use crate::node::{AttemptId, LinkId, NodeAgent, NodeId, TimerToken};
use crate::payload::Payload;
use crate::radio::{RadioEnvironment, RadioState, RadioTech};
use crate::rng::SimRng;
use crate::telemetry::{Phase, Profiler, Telemetry, TelemetryConfig, PAYLOAD_SIZE_BOUNDS};
use crate::time::{SimDuration, SimTime};

/// Static configuration of a simulation world.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; every stochastic decision derives from it.
    pub seed: u64,
    /// Radio technology profiles in force.
    pub radio: RadioEnvironment,
    /// Horizon up to which mobility plans are compiled. Position queries past
    /// the horizon return the final planned position.
    pub mobility_horizon: SimTime,
    /// The grid on which established links are checked for coverage loss: a
    /// link is looked at `k` intervals after it was set up, for the `k` at
    /// which it could first have lost coverage.
    pub link_check_interval: SimDuration,
    /// Areas without cellular coverage (the tunnel of Fig. 6.1). Only affects
    /// GPRS.
    pub gprs_dead_zones: Vec<Rect>,
    /// Side length in metres of the spatial index's grid cells. `None`
    /// (default) sizes cells to the smallest finite radio range, which keeps
    /// range queries to a handful of cells. Scenarios dominated by a
    /// longer-range technology can set this to that technology's range.
    pub grid_cell_m: Option<f64>,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0,
            radio: RadioEnvironment::default(),
            mobility_horizon: SimTime::from_secs(4 * 3600),
            link_check_interval: SimDuration::from_millis(500),
            gprs_dead_zones: Vec::new(),
            grid_cell_m: None,
        }
    }
}

impl WorldConfig {
    /// A default configuration with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        WorldConfig {
            seed,
            ..WorldConfig::default()
        }
    }

    /// A configuration with ideal (fault-free, instant-setup) radios, for
    /// tests exercising middleware logic rather than radio behaviour.
    pub fn ideal(seed: u64) -> Self {
        WorldConfig {
            seed,
            radio: RadioEnvironment::ideal(),
            ..WorldConfig::default()
        }
    }
}

/// Sending on a link can fail if the link no longer exists locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The link id is unknown.
    UnknownLink,
    /// The link has been closed.
    Closed,
    /// The sending node is not an endpoint of the link.
    NotEndpoint,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SendError::UnknownLink => "unknown link",
            SendError::Closed => "link closed",
            SendError::NotEndpoint => "node is not an endpoint of the link",
        };
        f.write_str(s)
    }
}

impl std::error::Error for SendError {}

#[derive(Debug, Clone)]
enum Event {
    NodeStart(NodeId),
    Timer {
        node: NodeId,
        token: TimerToken,
        epoch: u64,
    },
    InquiryComplete {
        node: NodeId,
        tech: RadioTech,
        epoch: u64,
    },
    /// Boxed so that the rare, wide attempt does not set the size of every
    /// queued event.
    ConnectResolve(Box<PendingAttempt>),
    Deliver(InFlightMessage),
    LinkCheck {
        link: LinkId,
    },
    Disconnect {
        link: LinkId,
        closer: NodeId,
    },
    Fault {
        node: NodeId,
        idx: usize,
    },
    Adversary {
        idx: usize,
    },
}

/// The simulation world. See the crate-level documentation for an overview.
pub struct World {
    config: WorldConfig,
    now: SimTime,
    scheduler: Scheduler<Event>,
    topology: Topology,
    links: LinkTable,
    metrics: Metrics,
    faults: FaultEngine,
    adversary: AdversaryEngine,
    rng: SimRng,
    /// Live telemetry recorder; `None` (the default) keeps the event loop
    /// free of sampling work. Behind a `Box` so the disabled case costs one
    /// pointer.
    telemetry: Option<Box<Telemetry>>,
    /// Per-phase wall-clock profiler; disabled (inert) by default.
    profiler: Profiler,
}

impl World {
    /// Creates a world from a configuration.
    pub fn new(config: WorldConfig) -> Self {
        let rng = SimRng::new(config.seed);
        let grid_cell_m = config.grid_cell_m.unwrap_or_else(|| config.radio.default_grid_cell_m());
        let faults = FaultEngine::new(config.seed);
        let adversary = AdversaryEngine::new(config.seed);
        World {
            config,
            now: SimTime::ZERO,
            scheduler: Scheduler::new(),
            topology: Topology::new(grid_cell_m),
            links: LinkTable::new(),
            metrics: Metrics::new(),
            faults,
            adversary,
            rng,
            telemetry: None,
            profiler: Profiler::disabled(),
        }
    }

    /// Creates a world with default configuration and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        World::new(WorldConfig::with_seed(seed))
    }

    /// Adds a node with the given behaviour. The agent's
    /// [`NodeAgent::on_start`] callback runs at the current simulation time
    /// once the event loop next advances.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        mobility: MobilityModel,
        techs: &[RadioTech],
        agent: Box<dyn NodeAgent>,
    ) -> NodeId {
        let id = NodeId::from_raw(self.topology.nodes.len() as u64);
        let mut node_rng = self.rng.derive_node(id.as_raw());
        let plan = mobility.compile(self.config.mobility_horizon, &mut node_rng);
        self.topology.add(
            NodeSlot {
                id,
                name: name.into(),
                plan,
                radio: RadioState::new(techs),
                agent: Some(agent),
                rng: node_rng,
                epoch: 0,
            },
            self.now,
        );
        self.scheduler.schedule(self.now, Event::NodeStart(id));
        id
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The world configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Number of nodes ever added.
    pub fn node_count(&self) -> usize {
        self.topology.nodes.len()
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.topology.nodes.iter().map(|n| n.id)
    }

    /// The human-readable name given to a node.
    pub fn node_name(&self, node: NodeId) -> Option<&str> {
        self.slot(node).map(|s| s.name.as_str())
    }

    /// Whether a node is still powered on.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.slot(node).is_some_and(|s| s.radio.alive)
    }

    /// Position of a node at the current simulation time.
    pub fn position_of(&self, node: NodeId) -> Option<Point> {
        self.topology.position_of(node, self.now)
    }

    /// Distance in metres between two nodes at the current time.
    pub fn distance_between(&self, a: NodeId, b: NodeId) -> Option<f64> {
        Some(self.position_of(a)?.distance(self.position_of(b)?))
    }

    /// True if `a` and `b` can currently communicate over `tech`.
    pub fn in_range(&self, a: NodeId, b: NodeId, tech: RadioTech) -> bool {
        let (pa, pb) = match (self.position_of(a), self.position_of(b)) {
            (Some(pa), Some(pb)) => (pa, pb),
            _ => return false,
        };
        self.pair_in_range(pa, pb, tech)
    }

    pub(crate) fn pair_in_range(&self, pa: Point, pb: Point, tech: RadioTech) -> bool {
        if tech == RadioTech::Gprs {
            let dead = |p: Point| self.config.gprs_dead_zones.iter().any(|z| z.contains(p));
            return !dead(pa) && !dead(pb);
        }
        let profile = self.config.radio.profile(tech);
        profile.in_range(pa.distance(pb))
    }

    /// Side length in metres of the spatial index's grid cells in force.
    pub fn grid_cell_m(&self) -> f64 {
        self.topology.grid_cell_m()
    }

    /// Number of links in the link table: open ones, plus closed ones with a
    /// payload still in flight. A closed link leaves the table the moment it
    /// has drained. Diagnostic for tests and `benchmark/`.
    pub fn active_link_count(&self) -> usize {
        self.links.active_count()
    }

    /// Always 0: no tombstone exists any more. `benchmark/` still reads this;
    /// the method goes with the next `[benchmark]` PR.
    pub fn retired_link_count(&self) -> usize {
        0
    }

    /// Snapshot of a link that is open or still draining; `None` once a
    /// closed link has drained (and for ids never handed out).
    pub fn link_info(&self, link: LinkId) -> Option<LinkInfo> {
        self.links.info(link)
    }

    /// Snapshots of every open or still-draining link that has `node` as an
    /// endpoint, ascending by link id.
    pub fn links_of(&self, node: NodeId) -> Vec<LinkInfo> {
        self.links.infos_of(node)
    }

    /// Current quality of an open link, or `None` if the link is closed,
    /// unknown or out of range.
    pub fn link_quality(&mut self, link: LinkId) -> Option<u8> {
        let state = self.links.get(link)?;
        if !state.open {
            return None;
        }
        if let Some(ov) = state.quality_override {
            return Some(ov.value_at(self.now));
        }
        let (a, b, tech) = (state.a, state.b, state.tech);
        let distance = self.distance_between(a, b)?;
        if !self.pair_in_range(self.position_of(a)?, self.position_of(b)?, tech) {
            return None;
        }
        let profile = self.config.radio.profile(tech).clone();
        let slot = self.slot_mut(a)?;
        profile.sample_quality(distance, &mut slot.rng)
    }

    /// Installs an artificial quality override on a link (the thesis'
    /// "subtract 1 per second" simulation of §5.2.1). The link breaks once
    /// the override reaches zero.
    pub fn set_link_quality_override(&mut self, link: LinkId, initial: f64, decay_per_sec: f64) {
        let now = self.now;
        if let Some(state) = self.links.get_mut(link) {
            state.quality_override = Some(QualityOverride {
                set_at: now,
                initial,
                decay_per_sec,
            });
            // The override may run out before the link's pending check, and
            // a link nothing else could break has none pending at all.
            self.arm_check(link);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection (see the `faults` module)
    // ------------------------------------------------------------------

    /// Installs a deterministic fault schedule on a node. Scheduling is
    /// additive: a second plan for the same node extends the first. Actions
    /// dated before the current instant fire immediately when the event loop
    /// next advances. Plans for unknown nodes are ignored.
    pub fn install_fault_plan(&mut self, node: NodeId, plan: FaultPlan) {
        if self.topology.slot(node).is_none() || plan.is_empty() {
            return;
        }
        let now = self.now;
        let flaps = !plan.flaps().is_empty();
        for (at, idx) in self.faults.install(node, plan) {
            self.scheduler.schedule(at.max(now), Event::Fault { node, idx });
        }
        if flaps {
            // A flapping pair is polled, and its open links may have no check
            // pending at all; arming is a no-op for the node's other links.
            for link in self.links.open_links_of(node) {
                self.arm_check(link);
            }
        }
    }

    /// Powers a previously crashed node back on: it re-enters the spatial
    /// index at its current planned position, becomes discoverable again and
    /// its agent is reborn through [`NodeAgent::on_restart`]. Timers,
    /// inquiries and connection attempts from before the crash stay dead
    /// (each life has its own epoch). No-op for alive or unknown nodes.
    ///
    /// # Panics
    ///
    /// Must not be called from inside an agent callback.
    pub fn restart_node(&mut self, node: NodeId) {
        match self.topology.slot(node) {
            Some(slot) if !slot.radio.alive => {}
            _ => return,
        }
        let now = self.now;
        self.topology.power_on(node, now);
        self.faults.record(now, node, LifecycleKind::NodeUp);
        self.agent_call(node, |agent, ctx| agent.on_restart(ctx));
    }

    /// Per-technology airplane mode. Disabling a radio makes the node
    /// invisible to inquiries on `tech`, blocks new connections over it and
    /// breaks its open links on that technology immediately — both endpoints
    /// observe [`DisconnectReason::OutOfRange`](crate::node::DisconnectReason::OutOfRange),
    /// exactly as on a range loss, so the same recovery machinery fires.
    /// No-op when the node is unknown, does not carry `tech`, or is already
    /// in the requested state.
    ///
    /// # Panics
    ///
    /// Must not be called from inside an agent callback.
    pub fn set_radio_enabled(&mut self, node: NodeId, tech: RadioTech, enabled: bool) {
        let changed = match self.topology.slot_mut(node) {
            Some(slot) if slot.radio.techs.contains(tech) => {
                if enabled {
                    slot.radio.radio_off.remove(tech)
                } else {
                    slot.radio.radio_off.insert(tech)
                }
            }
            _ => false,
        };
        if !changed {
            return;
        }
        let now = self.now;
        let kind = if enabled {
            LifecycleKind::RadioUp(tech)
        } else {
            LifecycleKind::RadioDown(tech)
        };
        self.faults.record(now, node, kind);
        if !enabled {
            self.break_links_of(node, |link| link.tech == tech);
        }
    }

    /// True when the node is alive, carries `tech`, and the radio is not
    /// forced dark by a fault — i.e. the node can actually communicate over
    /// that technology right now.
    pub fn radio_enabled(&self, node: NodeId, tech: RadioTech) -> bool {
        self.slot(node).is_some_and(|s| s.radio.enabled(tech))
    }

    /// Aggregate fault-injection counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats
    }

    /// The typed lifecycle stream recorded so far (crashes, restarts, radio
    /// transitions), in event order.
    pub fn lifecycle_events(&self) -> &[LifecycleEvent] {
        &self.faults.lifecycle
    }

    /// Drains and returns the recorded lifecycle stream. Long churn runs
    /// should drain periodically to keep memory flat.
    pub fn take_lifecycle_events(&mut self) -> Vec<LifecycleEvent> {
        std::mem::take(&mut self.faults.lifecycle)
    }

    fn apply_fault(&mut self, node: NodeId, idx: usize) {
        match self.faults.action(node, idx) {
            Some(FaultAction::NodeDown) => self.crash_node(node),
            Some(FaultAction::NodeUp) => self.restart_node(node),
            Some(FaultAction::RadioDown(tech)) => self.set_radio_enabled(node, tech, false),
            Some(FaultAction::RadioUp(tech)) => self.set_radio_enabled(node, tech, true),
            None => {}
        }
    }

    // ------------------------------------------------------------------
    // Adversarial faults (see the `adversary` module)
    // ------------------------------------------------------------------

    /// Installs an adversary schedule: partition windows and Byzantine
    /// compromises. Additive like fault plans; an empty plan is a no-op and
    /// leaves the world byte-identical to one without the subsystem.
    pub fn install_adversary_plan(&mut self, plan: AdversaryPlan) {
        if plan.is_empty() {
            return;
        }
        let now = self.now;
        for (at, idx) in self.adversary.install(plan) {
            self.scheduler.schedule(at.max(now), Event::Adversary { idx });
        }
    }

    /// Supplies the [`FrameForge`] that builds hostile payloads for
    /// compromised nodes. Without a forge, compromises still gate partition
    /// behaviour but tamper/inject/sniff are inert.
    pub fn set_frame_forge(&mut self, forge: Box<dyn FrameForge>) {
        self.adversary.forge = Some(forge);
    }

    /// Aggregate adversary counters.
    pub fn adversary_stats(&self) -> AdversaryStats {
        self.adversary.stats
    }

    /// True while an active partition window separates `a` from `b`.
    pub fn partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.adversary.has_partitions() && self.adversary.partitioned(a, b, self.now)
    }

    fn apply_adversary(&mut self, idx: usize) {
        match self.adversary.action(idx) {
            Some(AdversaryAction::PartitionStart(p)) => self.open_partition(p),
            Some(AdversaryAction::PartitionEnd) => {
                self.adversary.stats.partitions_healed += 1;
            }
            Some(AdversaryAction::Inject { node }) => self.inject_hostile_frame(node),
            None => {}
        }
    }

    /// A partition window opens: every open link spanning the cut breaks
    /// immediately, both endpoints observing
    /// [`DisconnectReason::OutOfRange`](crate::node::DisconnectReason::OutOfRange)
    /// — the same reason a coverage loss produces, so the ordinary recovery
    /// machinery (storage aging, handover, bridge re-routing) fires on both
    /// sides of the split brain.
    fn open_partition(&mut self, p: usize) {
        self.adversary.stats.partitions_started += 1;
        let Some(window) = self.adversary.partition_window(p) else {
            return;
        };
        let affected: Vec<(LinkId, NodeId, NodeId)> = self
            .links
            .open_link_endpoints()
            .into_iter()
            .filter(|&(_, a, b)| window.cuts(a, b))
            .collect();
        for (link, a, b) in affected {
            self.adversary.stats.cut_links_broken += 1;
            self.break_link(link, a, b);
        }
    }

    /// One injection tick of a compromised node: pick one of its open links
    /// (adversary RNG), ask the forge for a hostile payload and put it on
    /// the air exactly like an honest send — same latency model, same
    /// metrics attribution to the attacker.
    fn inject_hostile_frame(&mut self, node: NodeId) {
        if !self.is_alive(node) || !self.adversary.is_compromised(node, self.now) {
            return;
        }
        let links = self.links.open_links_of(node);
        if links.is_empty() {
            return;
        }
        let pick = links[self.adversary.rng.index(links.len())];
        let Some(to) = self.links.get(pick).and_then(|state| state.peer_of(node)) else {
            return;
        };
        let Some(payload) = self.adversary.forge_injection(node, to) else {
            return;
        };
        self.transmit(InFlightMessage {
            link: pick,
            from: node,
            payload,
            injected: true,
        });
    }

    /// Puts a payload on the air over its (open) link: charges the sender,
    /// counts the payload against the link and schedules its delivery after
    /// the technology's transmission delay.
    fn transmit(&mut self, message: InFlightMessage) {
        let state = self
            .links
            .get_mut(message.link)
            .expect("transmit on a link in the table");
        let bytes = message.payload.len();
        let deliver_at = self.now + self.config.radio.profile(state.tech).transmission_delay(bytes);
        state.in_flight += 1;
        state.last_delivery = state.last_delivery.max(deliver_at);
        self.metrics.record_message_sent(message.from, state.tech, bytes as u64);
        self.scheduler.schedule(deliver_at, Event::Deliver(message));
    }

    /// Runs the event loop until simulation time `deadline` and then sets the
    /// clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some((time, event)) = self.scheduler.pop_due(deadline) {
            self.now = self.now.max(time);
            self.dispatch(event);
        }
        self.now = self.now.max(deadline);
        if self.telemetry.is_some() {
            self.sample_telemetry();
        }
        #[cfg(debug_assertions)]
        self.audit();
    }

    /// Consistency audit, run by every debug build at the end of
    /// [`World::run_until`]: the link table and its node index describe the
    /// same live links, every payload ever sent is delivered, lost or
    /// counted in flight on a link in the table, and no open link has been
    /// left unwatched past an instant at which it could break (see
    /// `audit_checks`). O(links in the table).
    #[cfg(debug_assertions)]
    fn audit(&self) {
        let in_flight = self.links.audit();
        let total = self.metrics.global();
        assert_eq!(
            total.messages_sent,
            total.messages_delivered + total.messages_lost + in_flight,
            "payloads sent != delivered + lost + in flight"
        );
        self.audit_checks();
    }

    /// Runs for a further span of simulated time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }

    /// One event through the instrumentation shell: profile the handling
    /// wall time by phase, then check the telemetry sample boundary. With
    /// both tools off (the default) this adds two predictable branches and
    /// nothing else; the event semantics are untouched either way.
    fn dispatch(&mut self, event: Event) {
        if self.profiler.is_enabled() {
            let phase = phase_of(&event);
            let span = self.profiler.begin();
            self.handle(event);
            self.profiler.end(phase, span);
        } else {
            self.handle(event);
        }
        if self.telemetry.is_some() {
            self.sample_telemetry();
        }
    }

    /// Gives typed access to a node's agent together with a [`NodeCtx`], so
    /// scenario drivers can invoke application-level operations ("connect to
    /// that service now") between event-loop runs.
    ///
    /// Returns `None` if the node does not exist, is powered off, or its agent
    /// is not an `A` (an [`OnWorld`](crate::agent::OnWorld) answers for the agent it wraps).
    pub fn with_agent<A, R>(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut NodeCtx<'_>) -> R) -> Option<R>
    where
        A: Any,
    {
        self.agent_call(node, |agent, ctx| {
            agent.as_any_mut().downcast_mut::<A>().map(|typed| f(typed, ctx))
        })?
    }

    fn slot(&self, node: NodeId) -> Option<&NodeSlot> {
        self.topology.slot(node)
    }

    fn slot_mut(&mut self, node: NodeId) -> Option<&mut NodeSlot> {
        self.topology.slot_mut(node)
    }

    fn agent_call<R>(&mut self, node: NodeId, f: impl FnOnce(&mut dyn NodeAgent, &mut NodeCtx<'_>) -> R) -> Option<R> {
        let idx = node.as_raw() as usize;
        if idx >= self.topology.nodes.len() || !self.topology.nodes[idx].radio.alive {
            return None;
        }
        let mut agent = self.topology.nodes[idx].agent.take()?;
        let result = {
            let mut ctx = NodeCtx { world: self, node };
            f(agent.as_mut(), &mut ctx)
        };
        self.topology.nodes[idx].agent = Some(agent);
        Some(result)
    }

    /// True when the node's epoch still matches `epoch` — i.e. the event was
    /// scheduled in the node's current life.
    fn epoch_current(&self, node: NodeId, epoch: u64) -> bool {
        self.slot(node).map(|s| s.epoch == epoch).unwrap_or(false)
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::NodeStart(node) => {
                self.agent_call(node, |agent, ctx| agent.on_start(ctx));
            }
            Event::Timer { node, token, epoch } => {
                if self.epoch_current(node, epoch) {
                    self.agent_call(node, |agent, ctx| agent.on_timer(ctx, token));
                }
            }
            Event::InquiryComplete { node, tech, epoch } => {
                if self.epoch_current(node, epoch) {
                    self.complete_inquiry(node, tech);
                }
            }
            Event::ConnectResolve(attempt) => self.resolve_attempt(*attempt),
            Event::Deliver(message) => self.deliver(message),
            Event::LinkCheck { link } => self.check_link(link),
            Event::Disconnect { link, closer } => self.graceful_disconnect(link, closer),
            Event::Fault { node, idx } => self.apply_fault(node, idx),
            Event::Adversary { idx } => self.apply_adversary(idx),
        }
    }

    // ------------------------------------------------------------------
    // Telemetry and profiling (see the `telemetry` module)
    // ------------------------------------------------------------------

    /// Turns on the live telemetry plane: from now on the event loop
    /// snapshots the world's aggregate series every
    /// [`TelemetryConfig::sample_interval`] of virtual time. Telemetry draws
    /// no randomness and changes no event — a run records identically with
    /// it on or off.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        self.telemetry = Some(Box::new(Telemetry::new(config)));
    }

    /// The telemetry recorder, if enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Mutable access to the recorder — scenario drivers use this to export
    /// their own gauges (resilience breaker state, handover counts) and to
    /// install the live-watch frame callback.
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.telemetry.as_deref_mut()
    }

    /// Detaches and returns the recorder (turning telemetry off).
    pub fn take_telemetry(&mut self) -> Option<Box<Telemetry>> {
        self.telemetry.take()
    }

    /// Turns on per-phase wall-clock profiling of the event loop.
    pub fn enable_profiling(&mut self) {
        self.profiler = Profiler::enabled();
    }

    /// The per-phase profiler (inert unless [`World::enable_profiling`] ran).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Number of nodes currently powered on (telemetry gauge / diagnostic).
    pub fn alive_count(&self) -> usize {
        self.topology.nodes.iter().filter(|n| n.radio.alive).count()
    }

    /// Number of currently open links (telemetry gauge / diagnostic).
    pub fn open_link_count(&self) -> usize {
        self.links.open_count()
    }

    /// Mirrors the engine's aggregate state into the recorder and emits a
    /// frame when virtual time has crossed a sample boundary. Counters are
    /// copied from the already-maintained [`Metrics`] store, so sampling
    /// reads state instead of instrumenting every hot-path record call.
    fn sample_telemetry(&mut self) {
        let due = self.telemetry.as_ref().map(|t| t.due(self.now)).unwrap_or(false);
        if !due {
            return;
        }
        let (alive, open_links) = (self.alive_count(), self.links.open_count() as f64);
        let now = self.now;
        let tel = self.telemetry.as_mut().expect("checked above");
        // Payload sizes are observed into the recorder as they are sent.
        let (global, per_tech) = (self.metrics.global(), self.metrics.per_tech());
        export_world_frame(tel, alive, open_links, global, &self.faults.stats, per_tech, None);
        if self.adversary.installed() {
            // Only adversarial worlds carry the series: plan-free runs keep
            // their telemetry streams (and digests) untouched.
            let adv = self.adversary.stats;
            tel.set_counter("adversary", "frames_injected", None, adv.frames_injected);
            tel.set_counter("adversary", "frames_tampered", None, adv.frames_tampered);
            tel.set_counter("adversary", "partition_drops", None, adv.partition_drops);
            tel.set_counter("adversary", "cut_links_broken", None, adv.cut_links_broken);
            tel.set_gauge(
                "adversary",
                "partitions_active",
                None,
                self.adversary.partitions_active_at(now) as f64,
            );
        }
        tel.sample(now);
    }
}

/// The profiling phase an event's handling is attributed to.
fn phase_of(event: &Event) -> Phase {
    match event {
        Event::NodeStart(_) => Phase::AgentStart,
        Event::Timer { .. } => Phase::Timers,
        Event::InquiryComplete { .. } => Phase::Discovery,
        Event::ConnectResolve(_) => Phase::Connect,
        Event::Deliver(_) => Phase::Delivery,
        Event::LinkCheck { .. } => Phase::LinkCheck,
        Event::Disconnect { .. } => Phase::Disconnect,
        Event::Fault { .. } => Phase::Faults,
        Event::Adversary { .. } => Phase::Faults,
    }
}

/// Handle through which an agent (or a scenario driver holding
/// [`World::with_agent`]) acts on the world on behalf of one node; its calls
/// are [`Ctx`]'s.
pub struct NodeCtx<'a> {
    world: &'a mut World,
    node: NodeId,
}

impl Ctx for NodeCtx<'_> {
    #[inline]
    fn now(&self) -> SimTime {
        self.world.now
    }

    #[inline]
    fn node_id(&self) -> NodeId {
        self.node
    }

    fn position(&self) -> Point {
        self.world.position_of(self.node).unwrap_or(Point::ORIGIN)
    }

    #[inline]
    fn rng(&mut self) -> &mut SimRng {
        &mut self
            .world
            .slot_mut(self.node)
            .expect("node exists while ctx is alive")
            .rng
    }

    fn schedule(&mut self, after: SimDuration, token: TimerToken) {
        let at = self.world.now + after;
        let epoch = self.world.slot(self.node).map(|s| s.epoch).unwrap_or(0);
        self.world.scheduler.schedule(
            at,
            Event::Timer {
                node: self.node,
                token,
                epoch,
            },
        );
    }

    fn start_inquiry(&mut self, tech: RadioTech) {
        let finish = self.world.now + self.world.config.radio.profile(tech).inquiry_duration;
        let node = self.node;
        let Some(slot) = self.world.slot_mut(node).filter(|slot| slot.radio.techs.contains(tech)) else {
            return;
        };
        slot.radio.begin_inquiry(tech, finish);
        let epoch = slot.epoch;
        self.world.metrics.record_inquiry_started(node);
        self.world
            .scheduler
            .schedule(finish, Event::InquiryComplete { node, tech, epoch });
    }

    fn set_discoverable(&mut self, tech: RadioTech, discoverable: bool) {
        if let Some(slot) = self.world.slot_mut(self.node) {
            slot.radio.set_discoverable(tech, discoverable);
        }
    }

    fn connect(&mut self, peer: NodeId, tech: RadioTech) -> AttemptId {
        let id = self.world.links.next_attempt_id();
        let node = self.node;
        self.world.metrics.record_connect_attempt(node);
        let profile = self.world.config.radio.profile(tech).clone();
        let (latency, epoch) = {
            let slot = self.world.slot_mut(node).expect("node exists while ctx is alive");
            (profile.sample_setup_latency(&mut slot.rng), slot.epoch)
        };
        let resolve_at = self.world.now + latency;
        self.world.scheduler.schedule(
            resolve_at,
            Event::ConnectResolve(Box::new(PendingAttempt {
                id,
                from: node,
                to: peer,
                tech,
                epoch,
            })),
        );
        id
    }

    fn in_range(&self, peer: NodeId, tech: RadioTech) -> bool {
        self.world.in_range(self.node, peer, tech)
    }

    fn send(&mut self, link: LinkId, payload: Payload) -> Result<(), SendError> {
        let node = self.node;
        match self.world.links.get(link) {
            Some(state) if !state.open => return Err(SendError::Closed),
            Some(state) if !state.has_endpoint(node) => return Err(SendError::NotEndpoint),
            Some(_) => {}
            None if self.world.links.is_closed(link) => return Err(SendError::Closed),
            None => return Err(SendError::UnknownLink),
        }
        if let Some(tel) = self.world.telemetry.as_deref_mut() {
            tel.observe(
                "world",
                "payload_bytes",
                None,
                PAYLOAD_SIZE_BOUNDS,
                payload.len() as u64,
            );
        }
        self.world.transmit(InFlightMessage {
            link,
            from: node,
            payload,
            injected: false,
        });
        Ok(())
    }

    fn close(&mut self, link: LinkId) {
        let node = self.node;
        let is_endpoint = self
            .world
            .links
            .get(link)
            .map(|l| l.open && l.has_endpoint(node))
            .unwrap_or(false);
        if !is_endpoint {
            return;
        }
        let at = self.world.now;
        self.world
            .scheduler
            .schedule(at, Event::Disconnect { link, closer: node });
    }

    fn link_quality(&mut self, link: LinkId) -> Option<u8> {
        let node = self.node;
        self.world.metrics.record_quality_sample(node);
        self.world.link_quality(link)
    }
}
