//! The sharded world: conservative-lookahead intra-run parallelism.
//!
//! [`World`](super::World) is a single-threaded event loop; one run tops out
//! around 10k nodes no matter how many cores the machine has. This module
//! adds [`ShardedWorld`]: the same radio/mobility/fault substrate, spatially
//! partitioned into per-thread **shards** that each own the nodes, links and
//! event queues of one contiguous stripe of the simulated area and run them
//! independently inside a conservative lookahead **window**.
//!
//! ## The windowed execution model
//!
//! Time advances in fixed windows of width `W` (default: the link-check
//! interval). Within a window every node processes only its *own* events —
//! timers, inquiry completions, link checks, fault actions and messages that
//! arrived at earlier barriers. Anything one node does that another node
//! could observe is expressed as a message and becomes visible at
//! `max(natural_time, start of the next window)`. Reads of *other* nodes'
//! dynamic state (is it alive? discoverable? mid-scan?) go through a
//! **snapshot** as of the window start, and "who is near" through the
//! sequential world's spatial index, brought up to the window start and
//! walked `max_speed × W` wider; exact positions are always available
//! because compiled [`MotionPlan`]s are shared by every shard and answer
//! every query the same way. A plan's one interior write is its leg cursor,
//! a hint that speeds the next lookup and cannot change an answer.
//!
//! Most candidates of a walk are rejected before their snapshot or plan is
//! read. A fixed node's grid entry carries its exact position. A walker is
//! judged by its **anchor**: one dense position column, `at`, holds every
//! fixed node's position and every walker's position at the last barrier,
//! and `anchored_at` is the oldest anchor time in it. Each shard ends its
//! pass by computing where a contiguous share of the movers stands at the
//! window end (plans are shared and positions pure, so the plan reads run in
//! parallel), and the barrier's one pass over the movers writes those
//! anchors and re-homes from them; a newcomer's entry is written by the
//! window start that indexes it. Windows in which no node has an event run
//! no barrier, so anchors may be several windows old. No node moves faster
//! than [`ShardedConfig::max_speed_mps`] — `add_node` checks it
//! ([`MotionPlan::keeps_to`]) — so a walker whose anchor lies farther than
//! `range + max_speed × (now − anchored_at) + 1 mm` cannot be in range. The survivors get the exact predicate and are sorted by id, so the
//! inquiry draws from its stream exactly what a scan in id order would.
//!
//! So inside a window a node reads only data whose answers cannot change
//! and writes only its own state and its shard's outbox, and the order in
//! which *different* nodes run is unobservable: outbox entries carry a
//! unique `(origin, per-origin sequence)` key and are re-sorted before
//! delivery, and everything else a shard accumulates (traffic tallies,
//! histograms, profiler cells, load counts) is a commutative sum. Each shard therefore
//! runs a window as **one pass over its nodes in id order**, not as one
//! time-ordered event loop: a dense array of head times says which nodes
//! have anything due (the others are never touched), and a due node runs
//! *all* of its events below the window end back to back, in its own
//! `(time, insertion)` order, while its queue, link table and agent are hot
//! in cache.
//!
//! What happens where:
//!
//! * **In the parallel scope** (one thread per shard): the pass. Per node it
//!   first queues the mail the last barrier routed to it — the shard sorts
//!   its inbox by `(addressee, effective time, origin, sequence)`, so each
//!   queue sees exactly the insertion order of one global canonical sort —
//!   then drains the node, writes the new head time back, and notes a
//!   snapshot delta if the node's published state changed (it can only
//!   change while the node runs its own events). After the pass the shard
//!   anchors its share of the movers at the window end.
//! * **On the coordinator, at the window start**: apply the shards' snapshot
//!   deltas, enter the nodes added since the last window into the index and
//!   re-bucket the walkers whose plan has left their cell. A node stays
//!   indexed whatever its liveness (inquiries filter candidates on the
//!   snapshot anyway).
//! * **On the coordinator, at the barrier**: fold the shards' load counts
//!   (O(shards)), write each mover's anchor and move it — every node after
//!   a stripe re-cut — to the shard whose stripe now contains it, and
//!   hand every outbox message to the owner's inbox. Nothing is sorted or
//!   queued here.
//! * **At the end of a `run_until` call** the coordinator queues any mail
//!   still in an inbox itself, so between calls — where
//!   [`ShardedWorld::install_fault_plan`] and [`ShardedWorld::add_node`]
//!   schedule into the same queues — every queue holds what a barrier that
//!   delivered directly would have left there.
//!
//! Crucially these windowed semantics apply **at every shard count,
//! including one**: the partition decides which thread executes a node,
//! never what the node observes. That is what makes same-seed runs
//! byte-identical at any shard count — every RNG draw comes from the
//! per-node stream (the one [`World::add_node`](crate::world::World::add_node) derives),
//! every queue insertion happens at a deterministic point of the node's own
//! timeline, and every identifier (links, attempts) is packed from
//! `(initiator, per-node counter)` instead of a global counter whose value
//! would depend on thread interleaving.
//!
//! Differences from the sequential `World`, all bounded by one window
//! (500 ms by default): cross-node effects (connection handshakes, message
//! delivery, link-break notifications, discovery visibility of state
//! changes) can be observed up to `W` later than the sequential world would
//! deliver them, link quality is sampled from the *querying* node's RNG
//! stream, and fault support covers node crash/restart and radio outages
//! (flapping links draw their phase from a globally ordered fault RNG and
//! are rejected). The sequential `World` is untouched: existing
//! experiments reproduce byte-identically.

mod barrier;
mod ctx;
mod exec;
mod node;
#[cfg(test)]
mod tests;

pub use self::ctx::ShardCtx;

use std::any::Any;

use self::exec::{GlobalView, Shard};
use self::node::{NodeEvent, ShardNode};
use crate::event::Scheduler;
use crate::faults::{FaultPlan, FaultStats, LifecycleEvent};
use crate::geometry::{Point, Rect};
use crate::metrics::{Counters, Metrics};
use crate::mobility::{MobilityModel, MotionPlan};
use crate::node::{
    AttemptId, ConnectError, DisconnectReason, IncomingConnection, InquiryHit, LinkId, NodeId, TimerToken,
};
use crate::payload::SharedPayload;
use crate::radio::{RadioEnvironment, RadioState, RadioTech};
use crate::rng::SimRng;
use crate::table::IdTable;
use crate::telemetry::{Histogram, Phase, Profiler, Telemetry, TelemetryConfig, PAYLOAD_SIZE_BOUNDS};
use crate::time::{SimDuration, SimTime};
use crate::world::grid::SpatialGrid;
use crate::world::partition::{HysteresisController, PartitionMap, PartitionStats, IMBALANCE_THRESHOLD, PATIENCE};

/// Configuration for a [`ShardedWorld`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Master seed; every node's stream derives from it.
    pub seed: u64,
    /// Radio technology profiles.
    pub radio: RadioEnvironment,
    /// The simulated area. Shards are vertical stripes of this rectangle;
    /// node ownership follows the stripe containing the node's position at
    /// each window barrier.
    pub area: Rect,
    /// Number of shards (worker threads). Results are byte-identical at any
    /// value; zero is treated as one.
    pub shards: usize,
    /// The conservative lookahead window. Defaults to
    /// `link_check_interval` when `None`.
    pub window: Option<SimDuration>,
    /// The grid on which the initiator of a link re-validates it: `k`
    /// intervals after set-up, for the `k` at which the pair could first be
    /// out of range.
    pub link_check_interval: SimDuration,
    /// Horizon up to which mobility models are compiled into motion plans.
    pub mobility_horizon: SimTime,
    /// Upper bound on any node's speed in metres per second, checked by
    /// [`ShardedWorld::add_node`]. It pads per-window grid queries so a
    /// window-start index still yields a superset of the nodes in range at
    /// any instant inside the window, and bounds how far a walker can have
    /// strayed from its last anchor.
    pub max_speed_mps: f64,
    /// Spatial-grid cell size override in metres; defaults to the smallest
    /// finite radio range.
    pub grid_cell_m: Option<f64>,
}

impl ShardedConfig {
    /// A sharded-world configuration with library defaults.
    pub fn new(seed: u64, area: Rect) -> Self {
        ShardedConfig {
            seed,
            radio: RadioEnvironment::default(),
            area,
            shards: 1,
            window: None,
            link_check_interval: SimDuration::from_millis(500),
            mobility_horizon: SimTime::from_secs(4 * 3600),
            max_speed_mps: 3.0,
            grid_cell_m: None,
        }
    }

    /// The effective lookahead window.
    pub fn resolved_window(&self) -> SimDuration {
        let w = self.window.unwrap_or(self.link_check_interval);
        if w.is_zero() {
            SimDuration::from_micros(1)
        } else {
            w
        }
    }
}

/// Behaviour attached to a node of the sharded world.
///
/// The mirror of [`NodeAgent`](crate::node::NodeAgent) with two deliberate
/// differences: the context is a [`ShardCtx`] (the windowed API), and the
/// trait requires `Send` because agents execute on worker threads. Payloads
/// arrive as [`SharedPayload`], which is the sequential world's
/// [`Payload`](crate::payload::Payload) under the name this API has always
/// used: one buffer, shared across shard boundaries without copying.
///
/// Every [`Agent`](crate::agent::Agent)` + Send` is a `ShardAgent`.
#[allow(unused_variables)]
pub trait ShardAgent: Any + Send {
    /// Upcast for dynamic inspection (post-run assertions).
    fn as_any(&self) -> &dyn Any;
    /// Mutable upcast for dynamic inspection.
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// The node has powered on.
    fn on_start(&mut self, ctx: &mut ShardCtx<'_>) {}
    /// The node restarted after a crash. Defaults to [`ShardAgent::on_start`].
    fn on_restart(&mut self, ctx: &mut ShardCtx<'_>) {
        self.on_start(ctx);
    }
    /// A timer scheduled through [`Ctx::schedule`](crate::agent::Ctx::schedule) fired.
    fn on_timer(&mut self, ctx: &mut ShardCtx<'_>, token: TimerToken) {}
    /// A device inquiry finished.
    fn on_inquiry_complete(&mut self, ctx: &mut ShardCtx<'_>, tech: RadioTech, hits: Vec<InquiryHit>) {}
    /// A peer asks to connect; return `true` to accept.
    fn on_incoming_connection(&mut self, ctx: &mut ShardCtx<'_>, incoming: IncomingConnection) -> bool {
        false
    }
    /// A connection attempt initiated by this node succeeded.
    fn on_connected(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        attempt: AttemptId,
        link: LinkId,
        peer: NodeId,
        tech: RadioTech,
    ) {
    }
    /// A connection attempt initiated by this node failed.
    fn on_connect_failed(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        attempt: AttemptId,
        peer: NodeId,
        tech: RadioTech,
        error: ConnectError,
    ) {
    }
    /// A message arrived on an established link.
    fn on_message(&mut self, ctx: &mut ShardCtx<'_>, link: LinkId, from: NodeId, payload: SharedPayload) {}
    /// An established link went away.
    fn on_disconnected(&mut self, ctx: &mut ShardCtx<'_>, link: LinkId, peer: NodeId, reason: DisconnectReason) {}
}

/// A spatially sharded, deterministically parallel world.
///
/// See the [module docs](self) for the execution model. The public surface
/// mirrors the sequential [`World`](super::World) where the semantics carry
/// over: nodes are added with a mobility model, radios and a boxed agent;
/// fault plans (crash/restart/radio outages) install per node; metrics,
/// fault stats and the lifecycle stream are available after a run.
pub struct ShardedWorld {
    config: ShardedConfig,
    window: SimDuration,
    now: SimTime,
    master_rng: SimRng,
    names: Vec<String>,
    plans: Vec<MotionPlan>,
    /// Per node: its plan never moves ([`MotionPlan::fixed_position`]).
    /// Such a node is bucketed in the grid once, changes stripe only at a
    /// re-cut, and a link between two of them needs no range check.
    fixed: Vec<bool>,
    /// Per node indexed so far: a fixed node's exact position, and a
    /// walker's position at its last anchor — the barrier's pass over the
    /// movers, or the window start that indexed it.
    at: Vec<Point>,
    /// The oldest anchor time in `at`: every walker stands within
    /// `max_speed_mps × (now − anchored_at)` of its entry.
    anchored_at: SimTime,
    /// Raw ids of the nodes that do move, ascending.
    movers: Vec<usize>,
    shards: Vec<Shard>,
    owner: Vec<u32>,
    snapshot: Vec<RadioState>,
    /// Every node added before the last window start, whatever its liveness
    /// since (inquiries filter candidates on the snapshot); a walker is
    /// re-bucketed at the window start after its plan left its cell.
    grid: SpatialGrid,
    /// The stripe boundaries. Uniform until the hysteresis gate fires a
    /// load-balancing re-cut; either way ownership only decides which
    /// thread runs a node, never what the node observes.
    partition: PartitionMap,
    gate: HysteresisController,
    pstats: PartitionStats,
    /// Whether the telemetry recorder wants `shard/*` series.
    shard_series: bool,
    metrics: Metrics,
    stats: FaultStats,
    lifecycle: Vec<LifecycleEvent>,
    /// Coordinator-owned telemetry recorder, sampled at window barriers in
    /// canonical node order; `None` (the default) keeps the barrier free of
    /// sampling work.
    telemetry: Option<Box<Telemetry>>,
    /// Coordinator-side profiler (snapshot, grid rebuild, window wall,
    /// barrier merge); per-event phases live in the shard-local profilers.
    profiler: Profiler,
}

impl ShardedWorld {
    /// Creates a sharded world from a configuration.
    pub fn new(config: ShardedConfig) -> Self {
        let shard_count = config.shards.max(1);
        let window = config.resolved_window();
        let cell_m = config.grid_cell_m.unwrap_or_else(|| config.radio.default_grid_cell_m());
        let master_rng = SimRng::new(config.seed);
        ShardedWorld {
            window,
            master_rng,
            names: Vec::new(),
            plans: Vec::new(),
            fixed: Vec::new(),
            at: Vec::new(),
            anchored_at: SimTime::MAX,
            movers: Vec::new(),
            shards: (0..shard_count).map(|_| Shard::new()).collect(),
            owner: Vec::new(),
            snapshot: Vec::new(),
            grid: SpatialGrid::new(cell_m),
            partition: PartitionMap::uniform(config.area.min_x, config.area.max_x, shard_count),
            gate: HysteresisController::new(IMBALANCE_THRESHOLD, PATIENCE),
            pstats: PartitionStats::default(),
            shard_series: false,
            metrics: Metrics::new(),
            stats: FaultStats::default(),
            lifecycle: Vec::new(),
            telemetry: None,
            profiler: Profiler::disabled(),
            now: SimTime::ZERO,
            config,
        }
    }

    /// Turns on the live telemetry plane. Shard-local recorders (the
    /// payload histograms) start recording and the coordinator samples the
    /// aggregate series at every window barrier that crosses a sample
    /// boundary. All folded quantities are commutative sums over per-node
    /// state, so the recorded series are byte-identical at any shard count.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        self.shard_series = config.shard_series;
        self.telemetry = Some(Box::new(Telemetry::new(config)));
        for shard in &mut self.shards {
            shard.out.payload_hist = Some(Histogram::new(PAYLOAD_SIZE_BOUNDS));
        }
    }

    /// The telemetry recorder, if enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Mutable access to the recorder (external gauges, the watch callback).
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.telemetry.as_deref_mut()
    }

    /// Detaches and returns the recorder (turning telemetry off).
    pub fn take_telemetry(&mut self) -> Option<Box<Telemetry>> {
        self.telemetry.take()
    }

    /// Turns on per-phase wall-clock profiling: the coordinator times
    /// snapshot/grid/window/barrier work, every shard times its own event
    /// handling (so per-phase nanoseconds sum CPU time across shard threads)
    /// and its whole pass, from which the coordinator derives
    /// [`Phase::ShardIdle`].
    pub fn enable_profiling(&mut self) {
        self.profiler = Profiler::enabled();
        for shard in &mut self.shards {
            shard.profiler = Profiler::enabled();
        }
    }

    /// The merged per-phase profile: coordinator phases plus every
    /// shard-local profiler folded together.
    pub fn profile(&self) -> Profiler {
        let merged = Profiler::disabled();
        merged.merge(&self.profiler);
        for shard in &self.shards {
            merged.merge(&shard.profiler);
        }
        merged
    }

    /// Current simulation time (always a window boundary between runs).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configuration this world was built from.
    pub fn config(&self) -> &ShardedConfig {
        &self.config
    }

    /// The effective lookahead window.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Number of shards executing this world.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.plans.len()
    }

    /// All node ids in creation order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.plans.len() as u64).map(NodeId::from_raw)
    }

    /// The display name of a node.
    pub fn node_name(&self, node: NodeId) -> Option<&str> {
        self.names.get(node.as_raw() as usize).map(|s| s.as_str())
    }

    /// A node's exact position at the current time.
    pub fn position_of(&self, node: NodeId) -> Option<Point> {
        self.plans.get(node.as_raw() as usize).map(|p| p.position_at(self.now))
    }

    /// Whether the node is currently powered on.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.slot(node).is_some_and(|n| n.radio.alive)
    }

    /// Aggregated metrics, assembled at the end of the last run.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Aggregated fault-injection counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    /// The merged lifecycle stream, in canonical `(time, node)` order.
    pub fn lifecycle_events(&self) -> &[LifecycleEvent] {
        &self.lifecycle
    }

    /// Live partition diagnostics: per-shard loads, imbalance, re-cut count,
    /// as of the last non-idle window barrier.
    pub fn partition_stats(&self) -> &PartitionStats {
        &self.pstats
    }

    /// The current interior stripe boundaries (empty for one shard).
    pub fn stripe_cuts(&self) -> &[f64] {
        self.partition.cuts()
    }

    fn stripe_of(&self, p: Point) -> u32 {
        self.partition.stripe_of(p.x)
    }

    fn slot(&self, node: NodeId) -> Option<&ShardNode> {
        let raw = node.as_raw() as usize;
        let shard = *self.owner.get(raw)? as usize;
        self.shards[shard].nodes[raw].as_deref()
    }

    /// Adds a node with the given behaviour; ids are dense and assigned in
    /// insertion order. The node's RNG stream and compiled motion plan are
    /// the ones the sequential world would give it.
    ///
    /// # Panics
    ///
    /// Panics if the compiled plan is faster than
    /// [`ShardedConfig::max_speed_mps`] ([`MotionPlan::keeps_to`]).
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        mobility: MobilityModel,
        techs: &[RadioTech],
        agent: Box<dyn ShardAgent>,
    ) -> NodeId {
        let raw = self.plans.len() as u64;
        let id = NodeId::from_raw(raw);
        let mut rng = self.master_rng.derive_node(raw);
        let plan = mobility.compile(self.config.mobility_horizon, &mut rng);
        let mut node = ShardNode {
            id,
            radio: RadioState::new(techs),
            epoch: 0,
            rng,
            agent: Some(agent),
            queue: Scheduler::new(),
            links: IdTable::default(),
            pending: IdTable::default(),
            counters: Counters::default(),
            faults: None,
            next_attempt: 0,
            next_link: 0,
            next_msg_seq: 0,
        };
        node.queue.schedule(self.now, NodeEvent::Start);
        let owner = self.stripe_of(plan.position_at(self.now));
        for shard in &mut self.shards {
            shard.nodes.push(None);
            shard.due.push(SimTime::MAX);
        }
        assert!(
            plan.keeps_to(self.config.max_speed_mps),
            "sharded world bounds every node's speed by max_speed_mps ({} m/s): a faster node would drop out of other nodes' inquiries",
            self.config.max_speed_mps
        );
        let fixed = plan.fixed_position().is_some();
        if !fixed {
            self.movers.push(raw as usize);
        }
        self.fixed.push(fixed);
        self.snapshot.push(node.radio);
        let shard = &mut self.shards[owner as usize];
        shard.nodes[raw as usize] = Some(Box::new(node));
        shard.owned += 1;
        shard.note_pending(raw as usize, self.now);
        self.owner.push(owner);
        self.names.push(name.into());
        self.plans.push(plan);
        id
    }

    /// Installs a fault plan on a node. The sharded world supports node
    /// crash/restart and radio outages; flapping links draw their phase from
    /// a globally ordered fault RNG and are rejected.
    pub fn install_fault_plan(&mut self, node: NodeId, plan: &FaultPlan) {
        assert!(
            plan.flaps().is_empty(),
            "sharded world supports crash/restart/radio-outage faults only, not flapping links"
        );
        let raw = node.as_raw() as usize;
        let shard = &mut self.shards[self.owner[raw] as usize];
        let now = self.now;
        let slot = shard.nodes[raw].as_deref_mut().expect("node exists");
        let actions = &mut slot.faults.get_or_insert_default().actions;
        let mut earliest = SimTime::MAX;
        for &(at, action) in plan.actions() {
            let idx = actions.len();
            let when = at.max(now);
            actions.push((when, action));
            slot.queue.schedule(when, NodeEvent::Fault { idx });
            earliest = earliest.min(when);
        }
        shard.note_pending(raw, earliest);
    }

    /// Rejects adversary schedules. Partition cuts and Byzantine injection
    /// consult globally ordered state (cross-cut link sweeps, one adversary
    /// RNG stream, the sniff ring) that has no shard-local representation
    /// yet, so — exactly like flapping links — a sharded run refuses the plan
    /// instead of silently diverging from the sequential world. Use the
    /// sequential [`World`](crate::world::World) for adversarial scenarios.
    pub fn install_adversary_plan(&mut self, plan: &crate::adversary::AdversaryPlan) {
        assert!(
            plan.is_empty(),
            "sharded world does not support adversary plans (partitions and byzantine injection are sequential-only)"
        );
    }

    /// Runs until `deadline` (inclusive of every event strictly before it),
    /// advancing in lookahead windows and executing shards on parallel
    /// threads. Repeated calls continue deterministically; results depend
    /// only on the seed and the sequence of run calls, never on shard count.
    pub fn run_until(&mut self, deadline: SimTime) {
        if deadline <= self.now {
            return;
        }
        while self.now < deadline {
            let t1 = (self.now + self.window).min(deadline);
            let idle = self.shards.iter().all(|s| s.next_due >= t1);
            if !idle {
                let span = self.profiler.begin();
                self.apply_snapshot_deltas();
                self.profiler.end(Phase::Snapshot, span);
                let span = self.profiler.begin();
                self.refresh_grid();
                self.profiler.end(Phase::GridRefresh, span);
                let view = GlobalView {
                    radio: &self.config.radio,
                    plans: &self.plans,
                    fixed: &self.fixed,
                    at: &self.at,
                    anchored_at: self.anchored_at,
                    movers: &self.movers,
                    max_speed_mps: self.config.max_speed_mps,
                    snapshot: &self.snapshot,
                    grid: &self.grid,
                    window_end: t1,
                    link_check_interval: self.config.link_check_interval,
                    query_pad_m: self.config.max_speed_mps * self.window.as_secs_f64(),
                };
                let span = self.profiler.begin();
                let (movers, shards) = (self.movers.len(), self.shards.len());
                let share = |s: usize| movers * s / shards..movers * (s + 1) / shards;
                if shards == 1 {
                    self.shards[0].run_window(&view, share(0));
                } else {
                    std::thread::scope(|scope| {
                        for (s, shard) in self.shards.iter_mut().enumerate() {
                            let (view, share) = (&view, share(s));
                            scope.spawn(move || shard.run_window(view, share));
                        }
                    });
                }
                if let Some(t0) = span {
                    let scope_ns = t0.elapsed().as_nanos() as u64;
                    self.profiler.add(Phase::ShardWindows, 1, scope_ns);
                    let idle_ns = self.shards.iter().map(|s| scope_ns.saturating_sub(s.pass_ns)).sum();
                    self.profiler.add(Phase::ShardIdle, 1, idle_ns);
                }
                let span = self.profiler.begin();
                self.barrier(t1);
                self.profiler.end(Phase::BarrierMerge, span);
            }
            self.now = t1;
            if self.telemetry.is_some() {
                self.sample_telemetry();
            }
        }
        for shard in &mut self.shards {
            shard.flush_inbox();
        }
        self.assemble();
    }

    /// Runs for `duration` from the current time.
    pub fn run_for(&mut self, duration: SimDuration) {
        self.run_until(self.now + duration);
    }

    /// Runs `f` against the node's agent downcast to `A`. Returns `None` if
    /// the node does not exist or its agent is not an `A`.
    pub fn with_agent<A: ShardAgent, R>(&mut self, node: NodeId, f: impl FnOnce(&mut A) -> R) -> Option<R> {
        let raw = node.as_raw() as usize;
        let shard = *self.owner.get(raw)? as usize;
        let slot = self.shards[shard].nodes[raw].as_deref_mut()?;
        let agent = slot.agent.as_mut()?;
        agent.as_any_mut().downcast_mut::<A>().map(f)
    }
}
