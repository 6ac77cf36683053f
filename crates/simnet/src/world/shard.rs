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
//! **snapshot** as of the window start, paired with a bucket grid over
//! window-start positions; exact positions are always available because
//! compiled [`MotionPlan`]s are pure data shared by every shard.
//!
//! So inside a window a node reads only immutable data and writes only its
//! own state and its shard's outbox, and the order in which *different*
//! nodes run is unobservable: outbox entries carry a unique
//! `(origin, per-origin sequence)` key and are re-sorted before delivery,
//! and everything else a shard accumulates (traffic tallies, histograms,
//! profiler cells, load counts) is a commutative sum. Each shard therefore
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
//!   change while the node runs its own events).
//! * **On the coordinator, at the window start**: apply the shards' snapshot
//!   deltas and re-bucket the *moving* nodes. Nodes whose plan never moves
//!   sit in a second, persistent grid layer, bucketed once whatever their
//!   liveness (inquiries filter candidates on the snapshot anyway).
//! * **On the coordinator, at the barrier**: fold the load model (if on),
//!   move each mover — every node after a stripe re-cut — to the shard whose
//!   stripe now contains it, and hand every outbox message to the owner's
//!   inbox. Nothing is sorted or queued here.
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
//! per-node stream (derived exactly as [`World::add_node`](crate::world::World::add_node) derives it),
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
//! (loss bursts and flapping links draw from a globally ordered fault RNG
//! and are rejected). The sequential `World` is untouched: existing
//! experiments reproduce byte-identically.

use std::any::Any;

use crate::event::Scheduler;
use crate::faults::{FaultAction, FaultPlan, FaultStats, LifecycleEvent, LifecycleKind};
use crate::geometry::{Point, Rect};
use crate::hash::FastMap;
use crate::link::next_poll;
use crate::metrics::{Counters, Metrics};
use crate::mobility::{MobilityModel, MotionPlan};
use crate::node::{
    AttemptId, ConnectError, DisconnectReason, IncomingConnection, InquiryHit, LinkId, NodeId, TimerToken,
};
use crate::payload::SharedPayload;
use crate::radio::{RadioEnvironment, RadioState, RadioTech, TechSet};
use crate::rng::SimRng;
use crate::telemetry::{Histogram, Phase, Profiler, Telemetry, TelemetryConfig, PAYLOAD_SIZE_BOUNDS};
use crate::time::{SimDuration, SimTime};
use crate::world::partition::{
    imbalance, DensityHistogram, HysteresisController, PartitionMap, PartitionStats, DENSITY_BINS, IMBALANCE_THRESHOLD,
    PATIENCE,
};
use crate::world::SendError;

/// Same per-node RNG label scheme as `World::add_node`, so a node's stream
/// depends only on the world seed and its id — never on shard layout.
const NODE_RNG_LABEL: u64 = 0x4E4F_4445_0000_0000;

/// Matches the sequential grid's query slack (`grid::QUERY_PAD_M`).
const QUERY_PAD_M: f64 = 1e-3;

/// Link/attempt identifiers pack the initiating node into the high bits and
/// a per-node counter into the low bits, so ids are unique and
/// shard-count-independent without any shared counter.
const ID_NODE_SHIFT: u32 = 32;

/// Configuration for a [`ShardedWorld`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Master seed; per-node streams are derived from it exactly as the
    /// sequential world derives them.
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
    /// Upper bound on any node's speed in metres per second. Used to pad
    /// per-window grid queries so a window-start index still yields a
    /// superset of the nodes in range at any instant inside the window.
    pub max_speed_mps: f64,
    /// Spatial-grid cell size override in metres; defaults to the smallest
    /// finite radio range (the same rule as `WorldConfig`).
    pub grid_cell_m: Option<f64>,
    /// Density-adaptive stripe rebalancing (see
    /// [`partition`](crate::world::partition) for the gate's constants). Off
    /// by default; switching it on changes only which thread executes a node
    /// — never what the node observes — so traces stay byte-identical either
    /// way.
    pub adaptive: bool,
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
            adaptive: false,
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

    fn resolved_grid_cell_m(&self) -> f64 {
        if let Some(cell) = self.grid_cell_m {
            return cell;
        }
        let min_range = [
            self.radio.bluetooth.range_m,
            self.radio.wlan.range_m,
            self.radio.gprs.range_m,
        ]
        .into_iter()
        .flatten()
        .filter(|r| r.is_finite() && *r > 0.0)
        .fold(f64::INFINITY, f64::min);
        if min_range.is_finite() {
            min_range
        } else {
            50.0
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
    /// A timer scheduled through [`ShardCtx::schedule`] fired.
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

/// One endpoint's view of an established link.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LinkStatus {
    Open,
    /// We closed gracefully; in-flight data from the peer still delivers,
    /// and the half goes when the peer's answering `Closed` arrives behind it.
    ClosedLocal,
}

#[derive(Clone, Copy)]
struct LinkHalf {
    peer: NodeId,
    tech: RadioTech,
    /// The initiating endpoint owns the link checks.
    initiator: bool,
    status: LinkStatus,
    /// Initiator only: when the half's pending `LinkCheck` fires; `None`
    /// while no passing of time can take the pair out of range.
    next_check: Option<SimTime>,
    /// When the latest payload this endpoint sent is due at the peer.
    last_delivery: SimTime,
}

/// A cross-node effect, exchanged at window barriers and merged in the
/// canonical `(at, origin, seq)` order.
struct ShardMsg {
    at: SimTime,
    origin: NodeId,
    seq: u64,
    to: NodeId,
    body: MsgBody,
}

enum MsgBody {
    ConnectRequest {
        attempt: AttemptId,
        link: LinkId,
        tech: RadioTech,
    },
    ConnectReply {
        attempt: AttemptId,
        link: LinkId,
        tech: RadioTech,
        accepted: bool,
        error: ConnectError,
    },
    Data {
        link: LinkId,
        payload: SharedPayload,
    },
    /// Graceful close by the peer; ordered after all of its in-flight data.
    Closed {
        link: LinkId,
    },
    /// Non-graceful break (peer crash, radio outage, range drift).
    Broken {
        link: LinkId,
        reason: DisconnectReason,
    },
}

/// A node-local event. Everything here is scheduled either by the node's own
/// execution or by the canonical barrier dispatch, so per-queue insertion
/// order — the tie-breaker for equal times — is shard-count-independent.
enum NodeEvent {
    Start,
    Timer {
        token: TimerToken,
        epoch: u64,
    },
    InquiryComplete {
        tech: RadioTech,
        epoch: u64,
    },
    ConnectResolve {
        attempt: AttemptId,
        peer: NodeId,
        tech: RadioTech,
        epoch: u64,
    },
    LinkCheck {
        link: LinkId,
    },
    /// Deferred local agent notification (e.g. the `LocalClosed` callback
    /// after `ShardCtx::close`), delivered once the current callback returns.
    Disconnected {
        link: LinkId,
        peer: NodeId,
        reason: DisconnectReason,
        epoch: u64,
    },
    Fault {
        idx: usize,
    },
    Inbox {
        origin: NodeId,
        body: MsgBody,
    },
}

/// Everything one shard owns about one node.
struct ShardNode {
    id: NodeId,
    /// The node's dynamic radio-side state. Other nodes read it only as the
    /// copy published at the window start (`GlobalView::snapshot`), so what
    /// a node observes never depends on which shard executes its neighbours.
    radio: RadioState,
    epoch: u64,
    rng: SimRng,
    agent: Option<Box<dyn ShardAgent>>,
    queue: Scheduler<NodeEvent>,
    /// Hash tables, not ordered maps: the hot path only probes by key, and
    /// every place that *iterates* (crash/outage teardown, barrier folds)
    /// either sorts into canonical id order first or folds commutatively, so
    /// hash order never leaks into message sequencing or digests.
    links: FastMap<LinkId, LinkHalf>,
    /// Initiator-side attempts that sent a `ConnectRequest` and await the
    /// reply: attempt -> (peer, tech, link id reserved for the connection).
    pending: FastMap<AttemptId, (NodeId, RadioTech, LinkId)>,
    fault_actions: Vec<(SimTime, FaultAction)>,
    counters: Counters,
    stats: FaultStats,
    lifecycle: Vec<LifecycleEvent>,
    next_attempt: u64,
    next_link: u64,
    next_msg_seq: u64,
}

impl ShardNode {
    /// Queues a message another node addressed to this one.
    fn deliver(&mut self, msg: ShardMsg) {
        self.queue.schedule(
            msg.at,
            NodeEvent::Inbox {
                origin: msg.origin,
                body: msg.body,
            },
        );
    }
}

/// Bucket grid over window-start positions, in two layers. Nodes whose plan
/// never moves are bucketed once, by the first rebuild after they are
/// added, and stay whatever their liveness (callers filter candidates on the snapshot anyway); live
/// movers are re-bucketed at every window start. Queries pad the radius by
/// `max_speed * window` so the window-start index still covers every node
/// actually in range at any instant of the window; callers apply the exact
/// predicate on exact positions.
struct WindowGrid {
    cell_m: f64,
    /// Rebuild generation. Mover lists stamped with an older generation are
    /// logically empty; they are lazily reset on first touch instead of
    /// walking every bucket the grid has ever populated at each window.
    stamp: u64,
    cells: FastMap<(i64, i64), GridBucket>,
    /// Nodes `0..seen` have been considered for the persistent layer; nodes
    /// added since are bucketed by the next rebuild, so that building a
    /// world stays a plain append per node.
    seen: usize,
}

#[derive(Default)]
struct GridBucket {
    /// The persistent layer, in id order (ids are handed out ascending).
    fixed: Vec<NodeId>,
    stamp: u64,
    movers: Vec<NodeId>,
}

impl WindowGrid {
    fn new(cell_m: f64) -> Self {
        assert!(cell_m > 0.0 && cell_m.is_finite(), "invalid grid cell size: {cell_m}");
        WindowGrid {
            cell_m,
            stamp: 0,
            cells: FastMap::default(),
            seen: 0,
        }
    }

    fn cell_of(&self, p: Point) -> (i64, i64) {
        ((p.x / self.cell_m).floor() as i64, (p.y / self.cell_m).floor() as i64)
    }

    /// Rebuilds the index for the window starting at `t0`: buckets the
    /// `fixed` nodes added since the last rebuild, once and for good, then
    /// re-buckets the live `movers` (ascending raw ids). Buckets keep their
    /// allocations across windows (stale mover lists are invalidated by the
    /// generation stamp, so the rebuild touches only occupied cells).
    fn rebuild(
        &mut self,
        t0: SimTime,
        plans: &[MotionPlan],
        snapshot: &[RadioState],
        fixed: &[bool],
        movers: &[usize],
    ) {
        for raw in self.seen..plans.len() {
            if fixed[raw] {
                let cell = self.cell_of(plans[raw].position_at(t0));
                let bucket = self.cells.entry(cell).or_default();
                bucket.fixed.push(NodeId::from_raw(raw as u64));
            }
        }
        self.seen = plans.len();
        self.stamp += 1;
        for &raw in movers {
            if !snapshot[raw].alive {
                continue;
            }
            let cell = self.cell_of(plans[raw].position_at(t0));
            let bucket = self.cells.entry(cell).or_default();
            if bucket.stamp != self.stamp {
                bucket.stamp = self.stamp;
                bucket.movers.clear();
            }
            bucket.movers.push(NodeId::from_raw(raw as u64));
        }
    }

    /// Ids of every node bucketed (in either layer) in a cell intersecting
    /// the disk, sorted ascending, appended into a caller-owned scratch
    /// buffer (cleared first) — the per-shard reuse of the sequential grid's
    /// `query_into`.
    fn query_into(&self, center: Point, radius: f64, out: &mut Vec<NodeId>) {
        out.clear();
        let r = radius + QUERY_PAD_M;
        let ix_min = ((center.x - r) / self.cell_m).floor() as i64;
        let ix_max = ((center.x + r) / self.cell_m).floor() as i64;
        let iy_min = ((center.y - r) / self.cell_m).floor() as i64;
        let iy_max = ((center.y + r) / self.cell_m).floor() as i64;
        for i in ix_min..=ix_max {
            for j in iy_min..=iy_max {
                if let Some(bucket) = self.cells.get(&(i, j)) {
                    out.extend_from_slice(&bucket.fixed);
                    if bucket.stamp == self.stamp {
                        out.extend_from_slice(&bucket.movers);
                    }
                }
            }
        }
        out.sort_unstable();
    }
}

/// Immutable state shared by every shard during one window.
struct GlobalView<'a> {
    radio: &'a RadioEnvironment,
    plans: &'a [MotionPlan],
    /// Per node: the plan never moves (`!moving_after(ZERO)`).
    fixed: &'a [bool],
    snapshot: &'a [RadioState],
    grid: &'a WindowGrid,
    /// End of the current window; cross-node effects emitted during the
    /// window become visible no earlier than this.
    window_end: SimTime,
    link_check_interval: SimDuration,
    /// `max_speed * window + slack`: how far a candidate can drift from its
    /// window-start position.
    query_pad_m: f64,
}

/// One shard: the nodes it currently owns, their event queues, the mail the
/// last barrier routed to them and the outbox of cross-node messages emitted
/// this window.
struct Shard {
    /// Dense by raw node id; `None` for nodes owned by other shards.
    nodes: Vec<Option<Box<ShardNode>>>,
    /// Dense by raw node id: the earliest thing pending for an owned node —
    /// its queue head, or a message still in `inbox` — and `SimTime::MAX`
    /// for an owned node with nothing pending and for every node owned
    /// elsewhere. The pass reads this instead of the node, so a node with
    /// nothing due in a window is never dereferenced.
    due: Vec<SimTime>,
    /// A lower bound on every entry of `due` (exact right after a pass; a
    /// node that migrated away may leave it low, but then the new owner
    /// holds the same time, so the minimum over all shards is always exact).
    next_due: SimTime,
    /// Messages the last barrier routed to nodes owned here, not yet in
    /// their queues: the next pass sorts them and schedules each node's
    /// share just before draining that node.
    inbox: Vec<ShardMsg>,
    outbox: Vec<ShardMsg>,
    /// `(raw id, snapshot)` of every node whose published state changed
    /// during the last pass; the coordinator applies it at the next window
    /// start.
    snapshot_delta: Vec<(usize, RadioState)>,
    /// Wall nanoseconds of the last pass (recorded only while profiling).
    pass_ns: u64,
    /// Dense by raw node id while loads are tracked (empty otherwise): events
    /// each node processed here since the last barrier load fold — the
    /// per-node contribution to the shard load model. Layout-invariant: a
    /// node processes the same events whatever shard executes it.
    window_events: Vec<u64>,
    /// Per-technology (messages, bytes) sent by nodes while owned here,
    /// indexed by `RadioTech::index`; commutative, merged into the final
    /// [`Metrics`] at assembly.
    tech_msgs: [(u64, u64); 3],
    /// Reusable grid-query scratch buffer (one per shard, not per query).
    scratch: Vec<NodeId>,
    /// Shard-local payload-size histogram, allocated only when telemetry is
    /// on. Commutative, so the coordinator's barrier-time fold across shards
    /// is independent of the shard layout.
    payload_hist: Option<Histogram>,
    /// Shard-local per-phase profiler (inert unless profiling is enabled);
    /// folded into the coordinator's view on demand.
    profiler: Profiler,
}

impl Shard {
    fn new() -> Self {
        Shard {
            nodes: Vec::new(),
            due: Vec::new(),
            next_due: SimTime::MAX,
            inbox: Vec::new(),
            outbox: Vec::new(),
            snapshot_delta: Vec::new(),
            pass_ns: 0,
            window_events: Vec::new(),
            tech_msgs: [(0, 0); 3],
            scratch: Vec::new(),
            payload_hist: None,
            profiler: Profiler::disabled(),
        }
    }

    /// Records that owned node `raw` has something pending at `at`.
    fn note_pending(&mut self, raw: usize, at: SimTime) {
        self.due[raw] = self.due[raw].min(at);
        self.next_due = self.next_due.min(at);
    }

    /// Drains the inbox grouped by addressee in ascending id order, each
    /// node's messages in the canonical `(at, origin, seq)` order — per
    /// queue, exactly the insertion order of one global sort by that key.
    fn sorted_mail(inbox: &mut Vec<ShardMsg>) -> std::iter::Peekable<std::vec::Drain<'_, ShardMsg>> {
        inbox.sort_unstable_by_key(|m| (m.to.as_raw(), m.at, m.origin.as_raw(), m.seq));
        inbox.drain(..).peekable()
    }

    /// Schedules any inbox left after the last window of a `run_until` call,
    /// so that between calls every queue holds exactly what the barrier
    /// delivered (`install_fault_plan` and `add_node` schedule behind it).
    fn flush_inbox(&mut self) {
        for msg in Self::sorted_mail(&mut self.inbox) {
            let node = self.nodes[msg.to.as_raw() as usize]
                .as_deref_mut()
                .expect("mail is routed to the owner");
            node.deliver(msg);
        }
    }

    /// One pass over the owned nodes: every node with mail or with an event
    /// strictly before `view.window_end` takes its mail and then runs all
    /// of those events back to back. Nodes inside a window are independent
    /// (see the module docs), so visiting them in id order instead of
    /// global time order changes nothing a node or the barrier can observe.
    fn run_window(&mut self, view: &GlobalView<'_>) {
        let started = self.profiler.begin();
        let t1 = view.window_end;
        let Shard {
            nodes,
            due,
            next_due,
            inbox,
            outbox,
            snapshot_delta,
            window_events,
            tech_msgs,
            scratch,
            payload_hist,
            profiler,
            ..
        } = self;
        let mut mail = Self::sorted_mail(inbox);
        let mut exec = Executor {
            view,
            outbox,
            tech_msgs,
            scratch,
            payload_hist,
        };
        *next_due = SimTime::MAX;
        for (raw, head) in due.iter_mut().enumerate() {
            let has_mail = mail.peek().is_some_and(|m| m.to.as_raw() == raw as u64);
            if *head >= t1 && !has_mail {
                *next_due = (*next_due).min(*head);
                continue;
            }
            let node = nodes[raw].as_deref_mut().expect("a pending slot is owned");
            while let Some(msg) = mail.next_if(|m| m.to.as_raw() == raw as u64) {
                node.deliver(msg);
            }
            let mut events = 0;
            while node.queue.peek_time().is_some_and(|t| t < t1) {
                let (at, event) = node.queue.pop().expect("peeked");
                events += 1;
                if profiler.is_enabled() {
                    let phase = phase_of_node_event(&event);
                    let span = profiler.begin();
                    exec.process(node, at, event);
                    profiler.end(phase, span);
                } else {
                    exec.process(node, at, event);
                }
            }
            *head = node.queue.peek_time().unwrap_or(SimTime::MAX);
            *next_due = (*next_due).min(*head);
            if let Some(tally) = window_events.get_mut(raw) {
                *tally += events;
            }
            // A node's published state changes only while it runs its own
            // events, so this is the one place a delta can arise.
            if node.radio != view.snapshot[raw] {
                snapshot_delta.push((raw, node.radio));
            }
        }
        debug_assert!(mail.next().is_none(), "mail for a node this shard does not own");
        drop(mail);
        self.pass_ns = started.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
    }
}

/// The profiling phase a node-local event's handling is attributed to.
/// Inbox bodies split between connection handshakes and data-path work.
fn phase_of_node_event(event: &NodeEvent) -> Phase {
    match event {
        NodeEvent::Start => Phase::AgentStart,
        NodeEvent::Timer { .. } => Phase::Timers,
        NodeEvent::InquiryComplete { .. } => Phase::Discovery,
        NodeEvent::ConnectResolve { .. } => Phase::Connect,
        NodeEvent::LinkCheck { .. } => Phase::LinkCheck,
        NodeEvent::Disconnected { .. } => Phase::Disconnect,
        NodeEvent::Fault { .. } => Phase::Faults,
        NodeEvent::Inbox { body, .. } => match body {
            MsgBody::ConnectRequest { .. } | MsgBody::ConnectReply { .. } => Phase::Connect,
            MsgBody::Data { .. } => Phase::Delivery,
            MsgBody::Closed { .. } | MsgBody::Broken { .. } => Phase::Disconnect,
        },
    }
}

/// The per-window execution context of one shard's event loop.
struct Executor<'a> {
    view: &'a GlobalView<'a>,
    outbox: &'a mut Vec<ShardMsg>,
    tech_msgs: &'a mut [(u64, u64); 3],
    scratch: &'a mut Vec<NodeId>,
    payload_hist: &'a mut Option<Histogram>,
}

impl Executor<'_> {
    fn call_agent(
        &mut self,
        node: &mut ShardNode,
        now: SimTime,
        f: impl FnOnce(&mut dyn ShardAgent, &mut ShardCtx<'_>),
    ) {
        let Some(mut agent) = node.agent.take() else {
            return;
        };
        {
            let mut ctx = ShardCtx {
                now,
                node,
                view: self.view,
                outbox: self.outbox,
                tech_msgs: self.tech_msgs,
                payload_hist: self.payload_hist,
            };
            f(agent.as_mut(), &mut ctx);
        }
        node.agent = Some(agent);
    }

    fn emit(outbox: &mut Vec<ShardMsg>, node: &mut ShardNode, at: SimTime, to: NodeId, body: MsgBody) {
        let seq = node.next_msg_seq;
        node.next_msg_seq += 1;
        outbox.push(ShardMsg {
            at,
            origin: node.id,
            seq,
            to,
            body,
        });
    }

    fn process(&mut self, node: &mut ShardNode, now: SimTime, event: NodeEvent) {
        match event {
            NodeEvent::Start => {
                if node.radio.alive {
                    self.call_agent(node, now, |agent, ctx| agent.on_start(ctx));
                }
            }
            NodeEvent::Timer { token, epoch } => {
                if node.radio.alive && node.epoch == epoch {
                    self.call_agent(node, now, |agent, ctx| agent.on_timer(ctx, token));
                }
            }
            NodeEvent::InquiryComplete { tech, epoch } => {
                if node.radio.alive && node.epoch == epoch {
                    self.complete_inquiry(node, now, tech);
                }
            }
            NodeEvent::ConnectResolve {
                attempt,
                peer,
                tech,
                epoch,
            } => {
                if node.radio.alive && node.epoch == epoch {
                    self.resolve_connect(node, now, attempt, peer, tech);
                }
            }
            NodeEvent::LinkCheck { link } => self.check_link(node, now, link),
            NodeEvent::Disconnected {
                link,
                peer,
                reason,
                epoch,
            } => {
                if node.radio.alive && node.epoch == epoch {
                    self.call_agent(node, now, |agent, ctx| agent.on_disconnected(ctx, link, peer, reason));
                }
            }
            NodeEvent::Fault { idx } => self.apply_fault(node, now, idx),
            NodeEvent::Inbox { origin, body } => self.process_msg(node, now, origin, body),
        }
    }

    fn complete_inquiry(&mut self, node: &mut ShardNode, now: SimTime, tech: RadioTech) {
        let profile = self.view.radio.profile(tech).clone();
        let mut hits = Vec::new();
        if node.radio.enabled(tech) {
            let range = profile
                .range_m
                .expect("sharded world supports range-bounded technologies only");
            let pos = self.view.plans[node.id.as_raw() as usize].position_at(now);
            self.view
                .grid
                .query_into(pos, range + self.view.query_pad_m, self.scratch);
            for &candidate in self.scratch.iter() {
                if candidate == node.id {
                    continue;
                }
                let snap = &self.view.snapshot[candidate.as_raw() as usize];
                if !snap.answers_inquiry(tech, &profile, now) {
                    continue;
                }
                let distance = pos.distance(self.view.plans[candidate.as_raw() as usize].position_at(now));
                if !profile.in_range(distance) {
                    continue;
                }
                if node.rng.chance(profile.inquiry_miss_prob) {
                    continue;
                }
                if let Some(quality) = profile.sample_quality(distance, &mut node.rng) {
                    hits.push(InquiryHit {
                        node: candidate,
                        tech,
                        quality,
                    });
                }
            }
        }
        node.radio.end_inquiry(tech, now);
        node.counters.inquiry_hits += hits.len() as u64;
        self.call_agent(node, now, |agent, ctx| agent.on_inquiry_complete(ctx, tech, hits));
    }

    fn resolve_connect(
        &mut self,
        node: &mut ShardNode,
        now: SimTime,
        attempt: AttemptId,
        peer: NodeId,
        tech: RadioTech,
    ) {
        let profile = self.view.radio.profile(tech);
        // The fault draw mirrors the sequential world: sampled from the
        // initiator's stream at resolve time, before any peer checks.
        let fault = profile.sample_setup_fault(&mut node.rng);
        let error = if fault {
            Some(ConnectError::Fault)
        } else {
            if !self.view.snapshot[peer.as_raw() as usize].enabled(tech) {
                Some(ConnectError::Unreachable)
            } else {
                let own = self.view.plans[node.id.as_raw() as usize].position_at(now);
                let theirs = self.view.plans[peer.as_raw() as usize].position_at(now);
                if !profile.in_range(own.distance(theirs)) {
                    Some(ConnectError::OutOfRange)
                } else {
                    None
                }
            }
        };
        match error {
            Some(error) => {
                node.counters.connect_failures += 1;
                self.call_agent(node, now, |agent, ctx| {
                    agent.on_connect_failed(ctx, attempt, peer, tech, error)
                });
            }
            None => {
                let link = LinkId((node.id.as_raw() << ID_NODE_SHIFT) | node.next_link);
                node.next_link += 1;
                node.pending.insert(attempt, (peer, tech, link));
                let at = now.max(self.view.window_end);
                Self::emit(
                    self.outbox,
                    node,
                    at,
                    peer,
                    MsgBody::ConnectRequest { attempt, link, tech },
                );
            }
        }
    }

    /// Queues the next check of the initiator half `link` at the first poll
    /// on its grid at which the pair could be out of range, and nothing when
    /// it never can: the peer's crash, restart and radio outage arrive as
    /// `Broken`, the node's own tear its table down. `now` is on the grid (the
    /// link was just set up or has just passed a check). May be early, never
    /// late: the check re-evaluates the predicate and asks again.
    fn arm_check(&mut self, node: &mut ShardNode, now: SimTime, link: LinkId) {
        let half = node.links.get_mut(&link).expect("an open initiator half");
        let (own, peer) = (node.id.as_raw() as usize, half.peer.as_raw() as usize);
        half.next_check = if self.view.fixed[own] && self.view.fixed[peer] {
            None
        } else {
            self.view.radio.profile(half.tech).range_m.and_then(|range_m| {
                let exit = self.view.plans[own].range_exit(&self.view.plans[peer], range_m, now)?;
                Some(next_poll(now, self.view.link_check_interval, now, exit))
            })
        };
        if let Some(at) = half.next_check {
            node.queue.schedule(at, NodeEvent::LinkCheck { link });
        }
    }

    fn check_link(&mut self, node: &mut ShardNode, now: SimTime, link: LinkId) {
        if !node.radio.alive {
            return; // the crash already tore the table down
        }
        let Some(half) = node.links.get(&link).copied() else {
            return;
        };
        if half.status != LinkStatus::Open || !half.initiator {
            return;
        }
        // The acceptor proved it carries the technology when it took the
        // request, so for the peer "not enabled" means dead or dark.
        let snap = &self.view.snapshot[half.peer.as_raw() as usize];
        let peer_dead = !snap.alive;
        // Two fixed endpoints were in range when the link was set up and
        // still are: only the radios and the peer's liveness can break it.
        let fixed_pair = self.view.fixed[node.id.as_raw() as usize] && self.view.fixed[half.peer.as_raw() as usize];
        let in_range = !node.radio.radio_off.contains(half.tech)
            && (fixed_pair || {
                let own = self.view.plans[node.id.as_raw() as usize].position_at(now);
                let theirs = self.view.plans[half.peer.as_raw() as usize].position_at(now);
                self.view.radio.profile(half.tech).in_range(own.distance(theirs))
            });
        if snap.enabled(half.tech) && in_range {
            self.arm_check(node, now, link);
            return;
        }
        let reason = if peer_dead {
            DisconnectReason::PeerFailed
        } else {
            DisconnectReason::OutOfRange
        };
        node.links.remove(&link);
        node.counters.links_broken += 1;
        let at = now.max(self.view.window_end);
        Self::emit(self.outbox, node, at, half.peer, MsgBody::Broken { link, reason });
        self.call_agent(node, now, |agent, ctx| {
            agent.on_disconnected(ctx, link, half.peer, reason)
        });
    }

    fn apply_fault(&mut self, node: &mut ShardNode, now: SimTime, idx: usize) {
        let action = node.fault_actions[idx].1;
        match action {
            FaultAction::NodeDown => {
                if !node.radio.alive {
                    return;
                }
                node.radio.alive = false;
                node.epoch += 1;
                node.radio.discoverable = TechSet::default();
                node.radio.inquiring_until = [SimTime::ZERO; 3];
                node.pending.clear();
                node.stats.crashes += 1;
                node.lifecycle.push(LifecycleEvent {
                    at: now,
                    node: node.id,
                    kind: LifecycleKind::NodeDown,
                });
                // Hash order must not pick the Broken emission order (it
                // assigns per-origin sequence numbers): sort into the
                // ascending link-id order the old ordered map produced.
                // A half closed locally is no break: its `Closed` is on its way.
                let mut links: Vec<(LinkId, LinkHalf)> = node
                    .links
                    .drain()
                    .filter(|(_, half)| half.status == LinkStatus::Open)
                    .collect();
                links.sort_unstable_by_key(|(link, _)| link.0);
                let at = now.max(self.view.window_end);
                for (link, half) in links {
                    node.counters.links_broken += 1;
                    Self::emit(
                        self.outbox,
                        node,
                        at,
                        half.peer,
                        MsgBody::Broken {
                            link,
                            reason: DisconnectReason::PeerFailed,
                        },
                    );
                }
            }
            FaultAction::NodeUp => {
                if node.radio.alive {
                    return;
                }
                node.radio.alive = true;
                node.radio.discoverable = node.radio.techs;
                node.stats.restarts += 1;
                node.lifecycle.push(LifecycleEvent {
                    at: now,
                    node: node.id,
                    kind: LifecycleKind::NodeUp,
                });
                self.call_agent(node, now, |agent, ctx| agent.on_restart(ctx));
            }
            FaultAction::RadioDown(tech) => {
                if !node.radio.radio_off.insert(tech) {
                    return;
                }
                node.stats.radio_outages += 1;
                node.lifecycle.push(LifecycleEvent {
                    at: now,
                    node: node.id,
                    kind: LifecycleKind::RadioDown(tech),
                });
                // Links on the dark technology break for both endpoints.
                // Sorted by link id for the same reason as the crash path:
                // emission order assigns message sequence numbers.
                let mut broken: Vec<(LinkId, LinkHalf)> = node
                    .links
                    .iter()
                    .filter(|(_, h)| h.tech == tech)
                    .map(|(l, h)| (*l, *h))
                    .collect();
                broken.sort_unstable_by_key(|(link, _)| link.0);
                let at = now.max(self.view.window_end);
                for (link, half) in broken {
                    node.links.remove(&link);
                    if half.status == LinkStatus::Open {
                        node.counters.links_broken += 1;
                    }
                    Self::emit(
                        self.outbox,
                        node,
                        at,
                        half.peer,
                        MsgBody::Broken {
                            link,
                            reason: DisconnectReason::OutOfRange,
                        },
                    );
                    if node.radio.alive && half.status == LinkStatus::Open {
                        let epoch = node.epoch;
                        node.queue.schedule(
                            now,
                            NodeEvent::Disconnected {
                                link,
                                peer: half.peer,
                                reason: DisconnectReason::OutOfRange,
                                epoch,
                            },
                        );
                    }
                }
            }
            FaultAction::RadioUp(tech) => {
                if !node.radio.radio_off.remove(tech) {
                    return;
                }
                node.stats.radio_restores += 1;
                node.lifecycle.push(LifecycleEvent {
                    at: now,
                    node: node.id,
                    kind: LifecycleKind::RadioUp(tech),
                });
            }
        }
    }

    fn process_msg(&mut self, node: &mut ShardNode, now: SimTime, origin: NodeId, body: MsgBody) {
        match body {
            MsgBody::ConnectRequest { attempt, link, tech } => {
                let at = now.max(self.view.window_end);
                if !node.radio.enabled(tech) {
                    Self::emit(
                        self.outbox,
                        node,
                        at,
                        origin,
                        MsgBody::ConnectReply {
                            attempt,
                            link,
                            tech,
                            accepted: false,
                            error: ConnectError::Unreachable,
                        },
                    );
                    return;
                }
                let mut accepted = false;
                self.call_agent(node, now, |agent, ctx| {
                    accepted = agent.on_incoming_connection(
                        ctx,
                        IncomingConnection {
                            from: origin,
                            tech,
                            link,
                        },
                    );
                });
                if accepted {
                    node.links.insert(
                        link,
                        LinkHalf {
                            peer: origin,
                            tech,
                            initiator: false,
                            status: LinkStatus::Open,
                            next_check: None,
                            last_delivery: SimTime::ZERO,
                        },
                    );
                }
                Self::emit(
                    self.outbox,
                    node,
                    at,
                    origin,
                    MsgBody::ConnectReply {
                        attempt,
                        link,
                        tech,
                        accepted,
                        error: ConnectError::Rejected,
                    },
                );
            }
            MsgBody::ConnectReply {
                attempt,
                link,
                tech,
                accepted,
                error,
            } => {
                let valid = node.radio.alive && node.pending.remove(&attempt).is_some();
                if !valid {
                    if accepted {
                        // We died (or restarted) while the handshake was in
                        // flight; tear the accepted half back down.
                        let at = now.max(self.view.window_end);
                        Self::emit(
                            self.outbox,
                            node,
                            at,
                            origin,
                            MsgBody::Broken {
                                link,
                                reason: DisconnectReason::PeerFailed,
                            },
                        );
                    }
                    return;
                }
                if accepted {
                    node.links.insert(
                        link,
                        LinkHalf {
                            peer: origin,
                            tech,
                            initiator: true,
                            status: LinkStatus::Open,
                            next_check: None,
                            last_delivery: SimTime::ZERO,
                        },
                    );
                    node.counters.connects_established += 1;
                    self.arm_check(node, now, link);
                    self.call_agent(node, now, |agent, ctx| {
                        agent.on_connected(ctx, attempt, link, origin, tech)
                    });
                } else {
                    node.counters.connect_failures += 1;
                    self.call_agent(node, now, |agent, ctx| {
                        agent.on_connect_failed(ctx, attempt, origin, tech, error)
                    });
                }
            }
            MsgBody::Data { link, payload } => {
                let deliverable = node.radio.alive
                    && node
                        .links
                        .get(&link)
                        .map(|h| matches!(h.status, LinkStatus::Open | LinkStatus::ClosedLocal))
                        .unwrap_or(false);
                if deliverable {
                    node.counters.messages_delivered += 1;
                    self.call_agent(node, now, |agent, ctx| agent.on_message(ctx, link, origin, payload));
                } else {
                    node.counters.messages_lost += 1;
                }
            }
            MsgBody::Closed { link } => {
                let Some(half) = node.links.remove(&link) else {
                    return;
                };
                if half.status != LinkStatus::Open {
                    return; // the answer to our own close: the half is reaped
                }
                // Answer behind everything still in flight to the closer, so
                // that it can drop its half: nothing more will come.
                let at = now.max(self.view.window_end).max(half.last_delivery);
                Self::emit(self.outbox, node, at, half.peer, MsgBody::Closed { link });
                if node.radio.alive {
                    self.call_agent(node, now, |agent, ctx| {
                        agent.on_disconnected(ctx, link, half.peer, DisconnectReason::PeerClosed)
                    });
                }
            }
            MsgBody::Broken { link, reason } => {
                let Some(half) = node.links.remove(&link) else {
                    return;
                };
                if half.status == LinkStatus::Open {
                    node.counters.links_broken += 1;
                    if node.radio.alive {
                        self.call_agent(node, now, |agent, ctx| {
                            agent.on_disconnected(ctx, link, half.peer, reason)
                        });
                    }
                }
            }
        }
    }
}

/// The windowed node-side API handed to [`ShardAgent`] callbacks — the
/// sharded mirror of [`NodeCtx`](crate::world::NodeCtx).
pub struct ShardCtx<'a> {
    now: SimTime,
    node: &'a mut ShardNode,
    view: &'a GlobalView<'a>,
    outbox: &'a mut Vec<ShardMsg>,
    tech_msgs: &'a mut [(u64, u64); 3],
    payload_hist: &'a mut Option<Histogram>,
}

impl ShardCtx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this context belongs to.
    pub fn node_id(&self) -> NodeId {
        self.node.id
    }

    /// The node's exact current position.
    pub fn position(&self) -> Point {
        self.view.plans[self.node.id.as_raw() as usize].position_at(self.now)
    }

    /// The node's deterministic random stream (identical to the stream the
    /// sequential world would derive for the same seed and node id).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.node.rng
    }

    /// Schedules [`ShardAgent::on_timer`] with `token` after `after`.
    pub fn schedule(&mut self, after: SimDuration, token: TimerToken) {
        let epoch = self.node.epoch;
        self.node
            .queue
            .schedule(self.now + after, NodeEvent::Timer { token, epoch });
    }

    /// Starts a device inquiry; [`ShardAgent::on_inquiry_complete`] fires
    /// after the technology's inquiry duration. Hits reflect the window
    /// snapshot (at most one window stale) plus exact positions. A no-op on a
    /// technology the node does not carry. GPRS has no radius to bound
    /// discovery with and is not supported in the sharded world.
    pub fn start_inquiry(&mut self, tech: RadioTech) {
        if !self.node.radio.techs.contains(tech) {
            return;
        }
        assert!(
            tech != RadioTech::Gprs,
            "sharded world supports range-bounded technologies only (Bluetooth/WLAN)"
        );
        let done = self.now + self.view.radio.profile(tech).inquiry_duration;
        self.node.radio.begin_inquiry(tech, done);
        self.node.counters.inquiries_started += 1;
        let epoch = self.node.epoch;
        self.node
            .queue
            .schedule(done, NodeEvent::InquiryComplete { tech, epoch });
    }

    /// Changes whether this node answers inquiries on `tech`; a technology
    /// the node does not carry cannot be turned on.
    pub fn set_discoverable(&mut self, tech: RadioTech, on: bool) {
        self.node.radio.set_discoverable(tech, on);
    }

    /// Initiates a connection to `peer` over `tech`. Setup latency is
    /// sampled from this node's stream now; the outcome arrives through
    /// [`ShardAgent::on_connected`] / [`ShardAgent::on_connect_failed`]
    /// after the handshake crosses up to two window barriers.
    pub fn connect(&mut self, peer: NodeId, tech: RadioTech) -> AttemptId {
        let attempt = AttemptId((self.node.id.as_raw() << ID_NODE_SHIFT) | self.node.next_attempt);
        self.node.next_attempt += 1;
        self.node.counters.connect_attempts += 1;
        let latency = self.view.radio.profile(tech).sample_setup_latency(&mut self.node.rng);
        let epoch = self.node.epoch;
        self.node.queue.schedule(
            self.now + latency,
            NodeEvent::ConnectResolve {
                attempt,
                peer,
                tech,
                epoch,
            },
        );
        attempt
    }

    /// Sends `payload` on an established link. Delivery happens at
    /// `max(now + transmission delay, next window barrier)`. A link this node
    /// closed answers [`SendError::Closed`] until the peer has answered the
    /// close, and [`SendError::UnknownLink`] like any other gone link after.
    pub fn send(&mut self, link: LinkId, payload: impl Into<SharedPayload>) -> Result<(), SendError> {
        let Some(half) = self.node.links.get_mut(&link) else {
            return Err(SendError::UnknownLink);
        };
        if half.status != LinkStatus::Open {
            return Err(SendError::Closed);
        }
        let payload = payload.into();
        let profile = self.view.radio.profile(half.tech);
        let delay = profile.transmission_delay(payload.len());
        self.node.counters.messages_sent += 1;
        self.node.counters.bytes_sent += payload.len() as u64;
        let entry = &mut self.tech_msgs[half.tech.index()];
        entry.0 += 1;
        entry.1 += payload.len() as u64;
        if let Some(hist) = self.payload_hist.as_mut() {
            hist.observe(payload.len() as u64);
        }
        let at = (self.now + delay).max(self.view.window_end);
        half.last_delivery = half.last_delivery.max(at);
        let peer = half.peer;
        Executor::emit(self.outbox, self.node, at, peer, MsgBody::Data { link, payload });
        Ok(())
    }

    /// Gracefully closes a link. This node sees
    /// [`ShardAgent::on_disconnected`] with `LocalClosed` once the current
    /// callback returns; the peer sees `PeerClosed` after the barrier,
    /// ordered after all data this node sent before closing.
    pub fn close(&mut self, link: LinkId) {
        let Some(half) = self.node.links.get_mut(&link) else {
            return;
        };
        if half.status != LinkStatus::Open {
            return;
        }
        half.status = LinkStatus::ClosedLocal;
        let peer = half.peer;
        let epoch = self.node.epoch;
        self.node.queue.schedule(
            self.now,
            NodeEvent::Disconnected {
                link,
                peer,
                reason: DisconnectReason::LocalClosed,
                epoch,
            },
        );
        let at = self.now.max(self.view.window_end);
        Executor::emit(self.outbox, self.node, at, peer, MsgBody::Closed { link });
    }

    /// Samples the current quality of an open link (0–255) from the exact
    /// inter-node distance. Unlike the sequential world, the draw comes from
    /// the *querying* node's stream — the only way the sample can be
    /// independent of shard layout.
    pub fn link_quality(&mut self, link: LinkId) -> Option<u8> {
        let half = self.node.links.get(&link).copied()?;
        if half.status != LinkStatus::Open {
            return None;
        }
        self.node.counters.quality_samples += 1;
        let own = self.view.plans[self.node.id.as_raw() as usize].position_at(self.now);
        let theirs = self.view.plans[half.peer.as_raw() as usize].position_at(self.now);
        self.view
            .radio
            .profile(half.tech)
            .sample_quality(own.distance(theirs), &mut self.node.rng)
    }
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
    /// Per node: its plan never moves. Such a node is bucketed in the grid
    /// once, changes stripe only at a re-cut, and a link between two of them
    /// needs no range check.
    fixed: Vec<bool>,
    /// Raw ids of the nodes that do move, ascending.
    movers: Vec<usize>,
    shards: Vec<Shard>,
    owner: Vec<u32>,
    snapshot: Vec<RadioState>,
    grid: WindowGrid,
    /// The stripe boundaries. Uniform until the hysteresis gate fires a
    /// density-adaptive re-cut; either way ownership only decides which
    /// thread runs a node, never what the node observes.
    partition: PartitionMap,
    density: DensityHistogram,
    gate: HysteresisController,
    pstats: PartitionStats,
    /// Whether barriers fold the per-shard load model (adaptivity on, or
    /// per-shard telemetry requested). Off, barriers skip the fold entirely.
    track_loads: bool,
    /// Whether the telemetry recorder wants `shard/*` series.
    shard_series: bool,
    /// Reusable scratch for adaptive re-cuts.
    cuts_scratch: Vec<f64>,
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
        let cell_m = config.resolved_grid_cell_m();
        let master_rng = SimRng::new(config.seed);
        ShardedWorld {
            window,
            master_rng,
            names: Vec::new(),
            plans: Vec::new(),
            fixed: Vec::new(),
            movers: Vec::new(),
            shards: (0..shard_count).map(|_| Shard::new()).collect(),
            owner: Vec::new(),
            snapshot: Vec::new(),
            grid: WindowGrid::new(cell_m),
            partition: PartitionMap::uniform(config.area.min_x, config.area.max_x, shard_count),
            density: DensityHistogram::new(config.area.min_x, config.area.max_x, DENSITY_BINS),
            gate: HysteresisController::new(IMBALANCE_THRESHOLD, PATIENCE),
            pstats: PartitionStats::default(),
            track_loads: config.adaptive,
            shard_series: false,
            cuts_scratch: Vec::new(),
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
        self.track_loads = self.track_loads || config.shard_series;
        self.telemetry = Some(Box::new(Telemetry::new(config)));
        for shard in &mut self.shards {
            shard.payload_hist = Some(Histogram::new(PAYLOAD_SIZE_BOUNDS));
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

    /// Live partition diagnostics: per-shard loads, imbalance, re-cut count.
    /// Populated only while load tracking is on (adaptivity enabled or
    /// `shard/*` telemetry requested); otherwise all zeros.
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
    /// derived exactly as the sequential world derives them.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        mobility: MobilityModel,
        techs: &[RadioTech],
        agent: Box<dyn ShardAgent>,
    ) -> NodeId {
        let raw = self.plans.len() as u64;
        let id = NodeId::from_raw(raw);
        let mut rng = self.master_rng.derive(NODE_RNG_LABEL | raw);
        let plan = mobility.compile(self.config.mobility_horizon, &mut rng);
        let mut node = ShardNode {
            id,
            radio: RadioState::new(techs),
            epoch: 0,
            rng,
            agent: Some(agent),
            queue: Scheduler::new(),
            links: FastMap::default(),
            pending: FastMap::default(),
            fault_actions: Vec::new(),
            counters: Counters::default(),
            stats: FaultStats::default(),
            lifecycle: Vec::new(),
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
        let fixed = !plan.moving_after(SimTime::ZERO);
        if !fixed {
            self.movers.push(raw as usize);
        }
        self.fixed.push(fixed);
        self.snapshot.push(node.radio);
        let shard = &mut self.shards[owner as usize];
        shard.nodes[raw as usize] = Some(Box::new(node));
        shard.note_pending(raw as usize, self.now);
        self.owner.push(owner);
        self.names.push(name.into());
        self.plans.push(plan);
        id
    }

    /// Installs a fault plan on a node. The sharded world supports node
    /// crash/restart and radio outages; loss bursts and flapping links draw
    /// from a globally ordered fault RNG and are rejected.
    pub fn install_fault_plan(&mut self, node: NodeId, plan: &FaultPlan) {
        assert!(
            plan.bursts().is_empty() && plan.flaps().is_empty(),
            "sharded world supports crash/restart/radio-outage faults only"
        );
        let raw = node.as_raw() as usize;
        let shard = &mut self.shards[self.owner[raw] as usize];
        let now = self.now;
        let slot = shard.nodes[raw].as_deref_mut().expect("node exists");
        let mut earliest = SimTime::MAX;
        for &(at, action) in plan.actions() {
            let idx = slot.fault_actions.len();
            let when = at.max(now);
            slot.fault_actions.push((when, action));
            slot.queue.schedule(when, NodeEvent::Fault { idx });
            earliest = earliest.min(when);
        }
        shard.note_pending(raw, earliest);
    }

    /// Rejects adversary schedules. Partition cuts and Byzantine injection
    /// consult globally ordered state (cross-cut link sweeps, one adversary
    /// RNG stream, the sniff ring) that has no shard-local representation
    /// yet, so — exactly like loss bursts — a sharded run refuses the plan
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
        if self.track_loads {
            for shard in &mut self.shards {
                shard.window_events.resize(self.plans.len(), 0);
            }
        }
        while self.now < deadline {
            let t1 = (self.now + self.window).min(deadline);
            let idle = self.shards.iter().all(|s| s.next_due >= t1);
            if !idle {
                let span = self.profiler.begin();
                self.apply_snapshot_deltas();
                self.profiler.end(Phase::Snapshot, span);
                let span = self.profiler.begin();
                self.grid
                    .rebuild(self.now, &self.plans, &self.snapshot, &self.fixed, &self.movers);
                self.profiler.end(Phase::GridRefresh, span);
                let view = GlobalView {
                    radio: &self.config.radio,
                    plans: &self.plans,
                    fixed: &self.fixed,
                    snapshot: &self.snapshot,
                    grid: &self.grid,
                    window_end: t1,
                    link_check_interval: self.config.link_check_interval,
                    query_pad_m: self.config.max_speed_mps * self.window.as_secs_f64() + QUERY_PAD_M,
                };
                let span = self.profiler.begin();
                if self.shards.len() == 1 {
                    self.shards[0].run_window(&view);
                } else {
                    std::thread::scope(|scope| {
                        for shard in self.shards.iter_mut() {
                            let view = &view;
                            scope.spawn(move || shard.run_window(view));
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

    /// Folds per-node state into the aggregate series and emits a frame if a
    /// sample boundary was crossed. Every folded quantity is a commutative
    /// sum (or histogram merge) over node state at the barrier, and node
    /// state at a barrier does not depend on the shard layout, so the
    /// recorded series are identical at any shard count.
    fn sample_telemetry(&mut self) {
        let due = self.telemetry.as_ref().map(|t| t.due(self.now)).unwrap_or(false);
        if !due {
            return;
        }
        let mut alive = 0u64;
        let mut open_halves = 0u64;
        let mut global = Counters::default();
        let mut stats = FaultStats::default();
        let mut tech_msgs = [(0u64, 0u64); 3];
        let mut payload = Histogram::new(PAYLOAD_SIZE_BOUNDS);
        for shard in &self.shards {
            for node in shard.nodes.iter().filter_map(|n| n.as_deref()) {
                if node.radio.alive {
                    alive += 1;
                }
                open_halves += node
                    .links
                    .values()
                    .filter(|half| matches!(half.status, LinkStatus::Open))
                    .count() as u64;
                global.merge(&node.counters);
                stats.crashes += node.stats.crashes;
                stats.restarts += node.stats.restarts;
                stats.radio_outages += node.stats.radio_outages;
            }
            for (idx, &(messages, bytes)) in shard.tech_msgs.iter().enumerate() {
                tech_msgs[idx].0 += messages;
                tech_msgs[idx].1 += bytes;
            }
            if let Some(hist) = shard.payload_hist.as_ref() {
                payload.merge(hist);
            }
        }
        let now = self.now;
        let tel = self.telemetry.as_mut().expect("checked above");
        tel.set_gauge("world", "nodes_alive", None, alive as f64);
        tel.set_gauge("world", "links_open", None, open_halves as f64 / 2.0);
        global.export(tel);
        stats.export(tel);
        for (idx, &(msgs, bytes)) in tech_msgs.iter().enumerate() {
            if msgs == 0 && bytes == 0 {
                continue; // untouched technologies carry no series
            }
            let label = RadioTech::ALL[idx].short_name();
            tel.set_counter("world", "messages_sent_tech", Some(label), msgs);
            tel.set_counter("world", "bytes_sent_tech", Some(label), bytes);
        }
        if payload.count() > 0 {
            tel.set_histogram("world", "payload_bytes", None, payload);
        }
        if self.shard_series {
            for (s, (&load, &occ)) in self.pstats.loads.iter().zip(&self.pstats.occupancy).enumerate() {
                let label = format!("s{s}");
                tel.set_gauge("shard", "load", Some(&label), load as f64);
                tel.set_gauge("shard", "occupancy", Some(&label), occ as f64);
            }
            tel.set_gauge("shard", "imbalance", None, self.pstats.last_imbalance);
            tel.set_counter("shard", "rebalances", None, self.pstats.rebalances);
        }
        tel.sample(now);
    }

    /// Brings the published snapshot up to the window start: every node
    /// whose state changed during the last pass was noted by its shard.
    fn apply_snapshot_deltas(&mut self) {
        for shard in &mut self.shards {
            for (raw, published) in shard.snapshot_delta.drain(..) {
                self.snapshot[raw] = published;
            }
        }
    }

    /// The window barrier: fold the load model (and maybe re-cut the
    /// stripes), migrate ownership to the stripe containing each node's
    /// position at `t1`, then route every outbox message to the inbox of the
    /// shard that owns its addressee. Sorting and queueing the mail is the
    /// owner's job, inside its next pass.
    fn barrier(&mut self, t1: SimTime) {
        #[cfg(debug_assertions)]
        self.audit(t1);
        let recut = self.track_loads && self.fold_loads(t1);
        if self.shards.len() > 1 {
            // A fixed node leaves its stripe only when the stripes move.
            if recut {
                for raw in 0..self.plans.len() {
                    self.rehome(raw, t1);
                }
            } else {
                for i in 0..self.movers.len() {
                    self.rehome(self.movers[i], t1);
                }
            }
        }
        for s in 0..self.shards.len() {
            let mut outbox = std::mem::take(&mut self.shards[s].outbox);
            for msg in outbox.drain(..) {
                let raw = msg.to.as_raw() as usize;
                let owner = &mut self.shards[self.owner[raw] as usize];
                owner.note_pending(raw, msg.at);
                owner.inbox.push(msg);
            }
            self.shards[s].outbox = outbox;
        }
    }

    /// Consistency audit, run by every debug build at each barrier: the pass
    /// consumed its inbox and left exact head times, and no open initiator
    /// half has been left unwatched past an instant at which it could leave
    /// range — one with no check pending is in range now, and polling (the
    /// oracle) finds the pair in range at the grid instants before a pending
    /// check (`link::polls_before` it).
    #[cfg(debug_assertions)]
    fn audit(&self, t1: SimTime) {
        let interval = self.config.link_check_interval;
        for shard in &self.shards {
            assert!(shard.inbox.is_empty(), "a pass consumes its whole inbox");
            for (raw, &due) in shard.due.iter().enumerate() {
                let head = shard.nodes[raw].as_deref().and_then(|n| n.queue.peek_time());
                assert_eq!(due, head.unwrap_or(SimTime::MAX), "stale head time for node {raw}");
            }
            for node in shard.nodes.iter().filter_map(|n| n.as_deref()) {
                let own = &self.plans[node.id.as_raw() as usize];
                for (link, half) in &node.links {
                    if !half.initiator || half.status != LinkStatus::Open {
                        continue;
                    }
                    let peer = &self.plans[half.peer.as_raw() as usize];
                    let profile = self.config.radio.profile(half.tech);
                    let in_range = |at: SimTime| profile.in_range(own.position_at(at).distance(peer.position_at(at)));
                    let Some(pending) = half.next_check else {
                        assert!(in_range(t1), "{link:?} is out of range with no check pending");
                        continue;
                    };
                    assert!(pending >= t1, "{link:?} has a check pending in a finished window");
                    for poll in crate::link::polls_before(pending, interval).take_while(|t| *t >= t1) {
                        assert!(
                            in_range(poll),
                            "{link:?} leaves range at {poll}, before its check at {pending}"
                        );
                    }
                }
            }
        }
    }

    /// Hands node `raw` to the shard whose stripe contains its position at `t1`.
    fn rehome(&mut self, raw: usize, t1: SimTime) {
        let current = self.owner[raw] as usize;
        let target = self.stripe_of(self.plans[raw].position_at(t1)) as usize;
        if target == current {
            return;
        }
        let node = self.shards[current].nodes[raw].take().expect("owned");
        let due = std::mem::replace(&mut self.shards[current].due[raw], SimTime::MAX);
        self.shards[target].nodes[raw] = Some(node);
        self.shards[target].note_pending(raw, due);
        self.owner[raw] = target as u32;
    }

    /// Folds the per-shard load model for the window that just ended and,
    /// when adaptivity is on and the hysteresis gate fires, re-cuts the
    /// stripe boundaries along the weighted prefix sum of the density
    /// histogram. Every input is pure simulation state — per-node event
    /// counts (layout-invariant), node counts and motion-plan positions at
    /// `t1`, folded in canonical shard/node order — so the cut sequence is a
    /// deterministic function of seed + state: never wall clock, thread
    /// identity, or iteration order of any hash table. Returns whether the
    /// stripes were re-cut.
    fn fold_loads(&mut self, t1: SimTime) -> bool {
        let ShardedWorld {
            shards,
            plans,
            owner,
            pstats,
            density,
            ..
        } = self;
        let shard_count = shards.len();
        pstats.loads.clear();
        pstats.loads.resize(shard_count, 0);
        pstats.occupancy.clear();
        pstats.occupancy.resize(shard_count, 0);
        density.clear();
        for (raw, plan) in plans.iter().enumerate() {
            let s = owner[raw] as usize;
            let weight = 1 + std::mem::take(&mut shards[s].window_events[raw]);
            pstats.loads[s] += weight;
            pstats.occupancy[s] += 1;
            density.record(plan.position_at(t1).x, weight);
        }
        pstats.windows += 1;
        pstats.last_imbalance = imbalance(&pstats.loads);
        let recut = self.config.adaptive && shard_count > 1 && self.gate.observe(pstats.last_imbalance);
        if recut {
            density.cut_into(shard_count, &mut self.cuts_scratch);
            self.partition.set_cuts(&self.cuts_scratch);
            pstats.rebalances += 1;
        }
        recut
    }

    /// Rebuilds the aggregated metrics, fault stats and lifecycle stream
    /// from the per-node tallies. Sums are commutative and the lifecycle is
    /// sorted canonically, so the result is independent of shard layout.
    fn assemble(&mut self) {
        self.metrics.reset();
        self.stats = FaultStats::default();
        self.lifecycle.clear();
        for shard in &self.shards {
            for node in shard.nodes.iter().filter_map(|n| n.as_deref()) {
                self.metrics.absorb_node(node.id, &node.counters);
                self.stats.crashes += node.stats.crashes;
                self.stats.restarts += node.stats.restarts;
                self.stats.radio_outages += node.stats.radio_outages;
                self.stats.radio_restores += node.stats.radio_restores;
                self.lifecycle.extend(node.lifecycle.iter().copied());
            }
            for (idx, &(messages, bytes)) in shard.tech_msgs.iter().enumerate() {
                self.metrics.absorb_tech(RadioTech::ALL[idx], messages, bytes);
            }
        }
        // Stable sort: each node's events are already time-ordered, so
        // (time, node) yields the canonical merged stream.
        self.lifecycle.sort_by_key(|e| (e.at, e.node.as_raw()));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Agent, Ctx, OnWorld};

    const HELLO: TimerToken = TimerToken(0x5EED);

    /// A minimal exercise agent, written once for both engines: scans once,
    /// connects to the first hit, pings, echoes, closes after the echo. It
    /// carries WLAN only, and also asks for what it has no radio for.
    #[derive(Default)]
    struct Chatter {
        scans_done: Vec<RadioTech>,
        hits: usize,
        got: Vec<Vec<u8>>,
        connected: u32,
        disconnects: Vec<DisconnectReason>,
    }

    impl Agent for Chatter {
        fn on_start<C: Ctx>(&mut self, ctx: &mut C) {
            ctx.start_inquiry(RadioTech::Bluetooth);
            ctx.set_discoverable(RadioTech::Bluetooth, true);
            if ctx.node_id().as_raw() == 0 {
                ctx.schedule(SimDuration::from_millis(100), HELLO);
            }
        }
        fn on_timer<C: Ctx>(&mut self, ctx: &mut C, _token: TimerToken) {
            ctx.start_inquiry(RadioTech::Wlan);
        }
        fn on_inquiry_complete<C: Ctx>(&mut self, ctx: &mut C, tech: RadioTech, hits: Vec<InquiryHit>) {
            self.scans_done.push(tech);
            self.hits = hits.len();
            if let Some(hit) = hits.first() {
                ctx.connect(hit.node, RadioTech::Wlan);
            }
        }
        fn on_incoming_connection<C: Ctx>(&mut self, _ctx: &mut C, _incoming: IncomingConnection) -> bool {
            true
        }
        fn on_connected<C: Ctx>(
            &mut self,
            ctx: &mut C,
            _attempt: AttemptId,
            link: LinkId,
            _peer: NodeId,
            _tech: RadioTech,
        ) {
            self.connected += 1;
            ctx.send(link, b"ping".to_vec()).unwrap();
        }
        fn on_message<C: Ctx>(&mut self, ctx: &mut C, link: LinkId, _from: NodeId, payload: SharedPayload) {
            self.got.push(payload.to_vec());
            if payload.as_slice() == b"ping" {
                ctx.send(link, b"pong".to_vec()).unwrap();
            } else {
                ctx.close(link);
            }
        }
        fn on_disconnected<C: Ctx>(&mut self, ctx: &mut C, link: LinkId, _peer: NodeId, reason: DisconnectReason) {
            self.disconnects.push(reason);
            assert_eq!(ctx.link_quality(link), None, "the link is gone");
        }
    }

    const A: NodeId = NodeId::from_raw(0);
    const B: NodeId = NodeId::from_raw(1);

    /// What [`Ctx`]'s docs promise, on one script: equal where they say
    /// equal, different exactly where they say *differs*.
    #[test]
    fn the_ctx_contract_holds_on_both_engines() {
        let mut config = crate::world::WorldConfig::with_seed(42);
        config.radio.wlan.setup_fault_prob = 0.0;
        config.radio.wlan.inquiry_miss_prob = 0.0;
        let mut seq = crate::world::World::new(config);
        for (name, x) in [("a", 10.0), ("b", 20.0)] {
            let at = MobilityModel::stationary(Point::new(x, 50.0));
            seq.add_node(name, at, &[RadioTech::Wlan], Box::new(OnWorld(Chatter::default())));
        }
        seq.run_for(SimDuration::from_secs(30));
        let mut par = two_node_world(1);
        par.run_for(SimDuration::from_secs(30));

        let read = |node: NodeId, seq: &mut crate::world::World, par: &mut ShardedWorld| {
            let on_world = seq.with_agent::<Chatter, _>(node, |c, _| std::mem::take(c)).unwrap();
            let on_shards = par.with_agent::<Chatter, _>(node, std::mem::take).unwrap();
            [on_world, on_shards]
        };
        let (a, b) = (read(A, &mut seq, &mut par), read(B, &mut seq, &mut par));
        for (a, b) in a.iter().zip(&b) {
            // Scanning and un-hiding a radio the node lacks did nothing; the
            // WLAN script ran.
            assert_eq!((&a.scans_done, &b.scans_done), (&vec![RadioTech::Wlan], &vec![]));
            assert_eq!((a.hits, a.connected), (1, 1));
            assert_eq!((&a.got, &b.got), (&vec![b"pong".to_vec()], &vec![b"ping".to_vec()]));
            assert_eq!(b.disconnects, [DisconnectReason::PeerClosed]);
        }
        for g in [seq.metrics().global(), par.metrics().global()] {
            assert_eq!((g.inquiries_started, g.inquiry_hits), (1, 1));
            assert_eq!((g.connect_attempts, g.connects_established), (1, 1));
            assert_eq!((g.messages_sent, g.messages_delivered, g.messages_lost), (2, 2, 0));
        }
        // Differs: only shards tell the closer, and only `World` counts a
        // sample of a link that is gone (b's, after the close).
        assert_eq!(a[0].disconnects, []);
        assert_eq!(a[1].disconnects, [DisconnectReason::LocalClosed]);
        assert_eq!(seq.metrics().global().quality_samples, 1);
        assert_eq!(par.metrics().global().quality_samples, 0);
    }

    fn two_node_world(shards: usize) -> ShardedWorld {
        let mut config = ShardedConfig::new(42, Rect::square(100.0));
        config.shards = shards;
        // The exercise asserts an exact event sequence; keep the WLAN
        // handshake free of random setup faults.
        config.radio.wlan.setup_fault_prob = 0.0;
        config.radio.wlan.inquiry_miss_prob = 0.0;
        let mut world = ShardedWorld::new(config);
        world.add_node(
            "a",
            MobilityModel::stationary(Point::new(10.0, 50.0)),
            &[RadioTech::Wlan],
            Box::new(Chatter::default()),
        );
        world.add_node(
            "b",
            MobilityModel::stationary(Point::new(20.0, 50.0)),
            &[RadioTech::Wlan],
            Box::new(Chatter::default()),
        );
        world
    }

    #[test]
    fn connect_message_close_roundtrip() {
        let mut world = two_node_world(1);
        world.run_for(SimDuration::from_secs(30));
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        assert_eq!(world.with_agent::<Chatter, _>(a, |c| c.hits).unwrap(), 1);
        assert_eq!(world.with_agent::<Chatter, _>(a, |c| c.connected).unwrap(), 1);
        // b echoed the ping, a closed after the pong.
        assert_eq!(
            world.with_agent::<Chatter, _>(b, |c| c.got.clone()).unwrap(),
            vec![b"ping".to_vec()]
        );
        assert_eq!(
            world.with_agent::<Chatter, _>(a, |c| c.got.clone()).unwrap(),
            vec![b"pong".to_vec()]
        );
        assert_eq!(
            world.with_agent::<Chatter, _>(a, |c| c.disconnects.clone()).unwrap(),
            vec![DisconnectReason::LocalClosed]
        );
        assert_eq!(
            world.with_agent::<Chatter, _>(b, |c| c.disconnects.clone()).unwrap(),
            vec![DisconnectReason::PeerClosed]
        );
        let g = world.metrics().global();
        assert_eq!(g.connects_established, 1);
        assert_eq!(g.messages_sent, 2);
        assert_eq!(g.messages_delivered, 2);
        assert_eq!(g.messages_lost, 0);
        assert_eq!(world.metrics().messages_for_tech(RadioTech::Wlan), 2);
    }

    #[test]
    fn shard_count_does_not_change_outcomes() {
        let summarise = |shards: usize| {
            let mut world = two_node_world(shards);
            world.run_for(SimDuration::from_secs(30));
            let g = *world.metrics().global();
            let a = world
                .with_agent::<Chatter, _>(NodeId::from_raw(0), |c| (c.hits, c.got.clone()))
                .unwrap();
            (g, a)
        };
        let one = summarise(1);
        assert_eq!(one, summarise(2));
        assert_eq!(one, summarise(8));
    }

    #[test]
    fn crash_breaks_links_and_restart_reboots_the_agent() {
        let mut world = two_node_world(2);
        let b = NodeId::from_raw(1);
        let plan = FaultPlan::new()
            .crash_at(SimTime::from_secs(10))
            .restart_at(SimTime::from_secs(20));
        world.install_fault_plan(b, &plan);
        world.run_for(SimDuration::from_secs(30));
        assert_eq!(world.fault_stats().crashes, 1);
        assert_eq!(world.fault_stats().restarts, 1);
        assert!(world.is_alive(b));
        let kinds: Vec<LifecycleKind> = world.lifecycle_events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![LifecycleKind::NodeDown, LifecycleKind::NodeUp]);
        // a held the link when b crashed: it must observe PeerFailed.
        let a_reasons = world
            .with_agent::<Chatter, _>(NodeId::from_raw(0), |c| c.disconnects.clone())
            .unwrap();
        assert!(
            a_reasons.contains(&DisconnectReason::PeerFailed) || a_reasons.contains(&DisconnectReason::LocalClosed),
            "a must have lost its link: {a_reasons:?}"
        );
    }

    #[test]
    #[should_panic(expected = "crash/restart/radio-outage")]
    fn loss_bursts_are_rejected() {
        let mut world = two_node_world(1);
        let plan = FaultPlan::new().loss_burst(SimTime::from_secs(1), SimTime::from_secs(2), 0.5, 0.0);
        world.install_fault_plan(NodeId::from_raw(0), &plan);
    }

    #[test]
    #[should_panic(expected = "does not support adversary plans")]
    fn adversary_plans_are_rejected() {
        let mut world = two_node_world(1);
        let plan = crate::adversary::AdversaryPlan::new().partition(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            [NodeId::from_raw(0)],
        );
        world.install_adversary_plan(&plan);
    }

    #[test]
    fn empty_adversary_plan_is_accepted_by_the_sharded_world() {
        let mut world = two_node_world(1);
        world.install_adversary_plan(&crate::adversary::AdversaryPlan::new());
        world.run_for(SimDuration::from_secs(1));
    }

    #[test]
    fn profiling_splits_the_scope_into_one_idle_span_per_window() {
        let mut world = two_node_world(2);
        world.enable_profiling();
        world.run_for(SimDuration::from_secs(5));
        let profile = world.profile();
        let windows = profile.calls(Phase::ShardWindows);
        assert!(windows > 0);
        assert_eq!(profile.calls(Phase::ShardIdle), windows);
        // Idle is the part of the scope's core time no shard's pass covers.
        assert!(profile.nanos(Phase::ShardIdle) <= 2 * profile.nanos(Phase::ShardWindows));
    }

    const TICK: TimerToken = TimerToken(0x71C);

    /// A scripted agent for the pass's own paths: dials `dial` on start,
    /// sends one byte per tick once connected, scans back to back when
    /// `scan` is set, accepts everything and logs what it observes.
    #[derive(Default)]
    struct Probe {
        dial: Option<NodeId>,
        scan: bool,
        link: Option<LinkId>,
        heard: Vec<(SimTime, NodeId)>,
        scans: Vec<(SimTime, Vec<NodeId>)>,
        dropped: Vec<(SimTime, NodeId, DisconnectReason)>,
    }

    impl Probe {
        fn dialing(peer: NodeId) -> Box<Self> {
            Box::new(Probe {
                dial: Some(peer),
                ..Probe::default()
            })
        }
        fn scanning() -> Box<Self> {
            Box::new(Probe {
                scan: true,
                ..Probe::default()
            })
        }
    }

    impl ShardAgent for Probe {
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
        fn on_start(&mut self, ctx: &mut ShardCtx<'_>) {
            self.link = None;
            if let Some(peer) = self.dial {
                ctx.connect(peer, RadioTech::Wlan);
            }
            if self.scan {
                ctx.start_inquiry(RadioTech::Wlan);
            }
        }
        fn on_timer(&mut self, ctx: &mut ShardCtx<'_>, _token: TimerToken) {
            if let Some(link) = self.link {
                if ctx.send(link, vec![0x5A]).is_ok() {
                    ctx.schedule(SimDuration::from_millis(500), TICK);
                }
            }
        }
        fn on_inquiry_complete(&mut self, ctx: &mut ShardCtx<'_>, _tech: RadioTech, hits: Vec<InquiryHit>) {
            self.scans.push((ctx.now(), hits.iter().map(|h| h.node).collect()));
            if self.link.is_none() && self.dial.is_none() {
                if let Some(hit) = hits.first() {
                    self.dial = Some(hit.node);
                    ctx.connect(hit.node, RadioTech::Wlan);
                }
            }
            ctx.start_inquiry(RadioTech::Wlan);
        }
        fn on_incoming_connection(&mut self, _ctx: &mut ShardCtx<'_>, _incoming: IncomingConnection) -> bool {
            true
        }
        fn on_connected(
            &mut self,
            ctx: &mut ShardCtx<'_>,
            _attempt: AttemptId,
            link: LinkId,
            _peer: NodeId,
            _tech: RadioTech,
        ) {
            self.link = Some(link);
            ctx.schedule(SimDuration::ZERO, TICK);
        }
        fn on_connect_failed(
            &mut self,
            _ctx: &mut ShardCtx<'_>,
            _attempt: AttemptId,
            _peer: NodeId,
            _tech: RadioTech,
            _error: ConnectError,
        ) {
            if self.scan {
                self.dial = None;
            }
        }
        fn on_message(&mut self, ctx: &mut ShardCtx<'_>, _link: LinkId, from: NodeId, _payload: SharedPayload) {
            self.heard.push((ctx.now(), from));
        }
        fn on_disconnected(&mut self, ctx: &mut ShardCtx<'_>, _link: LinkId, peer: NodeId, reason: DisconnectReason) {
            self.dropped.push((ctx.now(), peer, reason));
            self.link = None;
            if self.scan {
                self.dial = None;
            }
        }
    }

    /// A 100 m square with instantaneous, fault-free, noise-free radios and
    /// the default 500 ms window.
    fn ideal_world(shards: usize) -> ShardedWorld {
        let mut config = ShardedConfig::new(7, Rect::square(100.0));
        config.shards = shards;
        config.radio = RadioEnvironment::ideal();
        ShardedWorld::new(config)
    }

    fn fixed_at(x: f64, y: f64) -> MobilityModel {
        MobilityModel::stationary(Point::new(x, y))
    }

    fn probe<R>(world: &mut ShardedWorld, node: NodeId, f: impl FnOnce(&mut Probe) -> R) -> R {
        world.with_agent::<Probe, _>(node, f).expect("a Probe node")
    }

    fn ms(millis: u64) -> SimTime {
        SimTime::from_millis(millis)
    }

    #[test]
    fn mail_for_a_walker_that_changes_stripe_is_delivered_by_the_new_owner_in_canonical_order() {
        let run = |shards: usize| {
            let mut world = ideal_world(shards);
            let walker = NodeId::from_raw(2);
            let a = world.add_node("a", fixed_at(40.0, 50.0), &[RadioTech::Wlan], Probe::dialing(walker));
            let b = world.add_node("b", fixed_at(60.0, 50.0), &[RadioTech::Wlan], Probe::dialing(walker));
            // Crosses the two-stripe cut at x = 50 at t = 5 s.
            let walk = MobilityModel::walk(Point::new(45.0, 50.0), Point::new(55.0, 50.0), 1.0);
            world.add_node("w", walk, &[RadioTech::Wlan], Box::<Probe>::default());
            let first_owner = world.owner[2];
            world.run_for(SimDuration::from_secs(8));
            let heard = probe(&mut world, walker, |p| p.heard.clone());
            (heard, first_owner, world.owner[2], a, b)
        };
        let (heard, first_owner, last_owner, a, b) = run(2);
        assert_eq!(
            (first_owner, last_owner),
            (0, 1),
            "the walker must change shard mid-run"
        );
        // Both dials resolve in the first window, are answered at 0.5 s and
        // confirmed at 1.0 s; from then on each sender's tick lands one
        // window later, the two always on the same instant.
        let expected: Vec<(SimTime, NodeId)> = (3..16)
            .flat_map(|half_secs| [(ms(500 * half_secs), a), (ms(500 * half_secs), b)])
            .collect();
        assert_eq!(
            heard, expected,
            "every instant: lower origin first, no gap at the migration"
        );
        assert_eq!(run(1).0, expected, "and the same on one shard");
    }

    #[test]
    fn a_crash_installed_between_runs_for_now_lets_the_pending_message_in_first() {
        let mut world = ideal_world(2);
        let b = NodeId::from_raw(1);
        let a = world.add_node("a", fixed_at(40.0, 50.0), &[RadioTech::Wlan], Probe::dialing(b));
        world.add_node("b", fixed_at(60.0, 50.0), &[RadioTech::Wlan], Box::<Probe>::default());
        // a's ticks at 1.0 and 1.5 s arrive at 1.5 and 2.0 s: when this call
        // returns, the second one is pending for exactly `now`.
        world.run_until(ms(2_000));
        world.install_fault_plan(b, &FaultPlan::new().crash_at(ms(2_000)));
        world.run_until(ms(4_000));
        assert!(!world.is_alive(b));
        assert_eq!(
            probe(&mut world, b, |p| p.heard.clone()),
            vec![(ms(1_500), a), (ms(2_000), a)],
            "delivered, then crashed: the barrier's message was queued before the fault"
        );
        // a's 2.0 s tick reaches a dead node, and so does its 2.5 s one: b's
        // `Broken` arrives at 2.5 s, queued behind the tick set at 2.0 s.
        assert_eq!(world.metrics().global().messages_lost, 2);
        assert_eq!(world.metrics().global().messages_sent, 4);
        assert_eq!(probe(&mut world, a, |p| p.link), None);
    }

    #[test]
    fn nodes_added_after_a_run_are_discoverable_and_discover_in_their_first_window() {
        let mut world = ideal_world(2);
        let a = world.add_node("a", fixed_at(10.0, 50.0), &[RadioTech::Wlan], Probe::scanning());
        // a's 2 s scans complete at 2.0, 4.0, ...: stop just short of one.
        world.run_until(ms(3_900));
        let fixed = world.add_node("c", fixed_at(20.0, 50.0), &[RadioTech::Wlan], Probe::scanning());
        let walk = MobilityModel::walk(Point::new(30.0, 50.0), Point::new(40.0, 50.0), 1.0);
        let walker = world.add_node("d", walk, &[RadioTech::Wlan], Probe::scanning());
        world.run_until(ms(6_000));
        let scans_of = |world: &mut ShardedWorld, node| probe(world, node, |p| p.scans.clone());
        assert_eq!(
            scans_of(&mut world, a),
            vec![(ms(2_000), vec![]), (ms(4_000), vec![fixed, walker])],
            "the scan ending in the newcomers' first window must already see both"
        );
        // The newcomers started at 3.9 s; their first scans end at 5.9 s.
        assert_eq!(scans_of(&mut world, fixed), vec![(ms(5_900), vec![a, walker])]);
        assert_eq!(scans_of(&mut world, walker), vec![(ms(5_900), vec![a, fixed])]);
    }

    #[test]
    fn a_crashed_fixed_node_keeps_its_grid_cell_but_is_no_hit_until_it_restarts() {
        let mut world = ideal_world(1);
        let a = world.add_node("a", fixed_at(10.0, 50.0), &[RadioTech::Wlan], Probe::scanning());
        let b = world.add_node("b", fixed_at(20.0, 50.0), &[RadioTech::Wlan], Box::<Probe>::default());
        world.install_fault_plan(b, &FaultPlan::new().crash_at(ms(3_000)).restart_at(ms(7_000)));
        world.run_until(ms(5_000));
        assert!(!world.is_alive(b));
        let mut bucketed = Vec::new();
        world.grid.query_into(Point::new(20.0, 50.0), 1.0, &mut bucketed);
        world.run_until(ms(10_500));
        let hits: Vec<Vec<NodeId>> = probe(&mut world, a, |p| p.scans.iter().map(|(_, h)| h.clone()).collect());
        assert_eq!(hits, vec![vec![b], vec![], vec![], vec![b], vec![b]]);
        assert!(
            bucketed.contains(&b),
            "fixed nodes are indexed once, whatever their liveness: {bucketed:?}"
        );
    }

    #[test]
    fn mostly_fixed_hotspot_is_invariant_to_adaptivity_and_the_recut_moves_fixed_nodes() {
        // 90 fixed nodes crowd the right quarter, 10 walkers cross the city;
        // everyone scans, dials its first hit and ticks.
        let run = |shards: usize, adaptive: bool| {
            let mut config = ShardedConfig::new(11, Rect::square(100.0));
            config.shards = shards;
            config.adaptive = adaptive;
            let mut world = ShardedWorld::new(config);
            let mut placer = SimRng::new(0xF1ED);
            for i in 0..100 {
                let mobility = if i % 10 == 0 {
                    let y = placer.uniform_f64(0.0, 100.0);
                    MobilityModel::walk(Point::new(5.0, y), Point::new(95.0, y), 1.5)
                } else {
                    fixed_at(placer.uniform_f64(75.0, 100.0), placer.uniform_f64(0.0, 100.0))
                };
                world.add_node(format!("n{i}"), mobility, &[RadioTech::Wlan], Probe::scanning());
            }
            world.install_fault_plan(
                NodeId::from_raw(33),
                &FaultPlan::new().crash_at(ms(9_000)).restart_at(ms(15_000)),
            );
            let uniform_owner = world.owner.clone();
            world.run_for(SimDuration::from_secs(30));
            let moved_fixed = (0..100).any(|raw| raw % 10 != 0 && world.owner[raw] != uniform_owner[raw]);
            let logs: Vec<_> = world
                .node_ids()
                .collect::<Vec<_>>()
                .into_iter()
                .map(|node| probe(&mut world, node, |p| (p.heard.clone(), p.scans.clone())))
                .collect();
            let trace = (*world.metrics().global(), world.fault_stats().crashes, logs);
            (trace, world.partition_stats().rebalances, moved_fixed)
        };
        let (reference, _, _) = run(1, false);
        assert!(reference.0.messages_delivered > 0 && reference.0.links_broken > 0);
        for shards in [2, 3] {
            let (fixed_stripes, recuts, moved) = run(shards, false);
            assert_eq!((recuts, moved), (0, false));
            assert!(fixed_stripes == reference, "static stripes diverged at {shards} shards");
            let (adaptive, recuts, moved) = run(shards, true);
            assert!(recuts > 0, "the crowd must trip the gate at {shards} shards");
            assert!(moved, "a re-cut must migrate fixed nodes too");
            assert!(adaptive == reference, "adaptive stripes diverged at {shards} shards");
        }
    }

    /// Where per-interval polling (the parent of the range-exit scheduling)
    /// broke the link of `a_walker_leaves_its_fixed_peer_at_the_instant_polling_found`:
    /// the first instant of the link's 500 ms grid at which the walker is
    /// more than WLAN's 50 m from its peer (50 m exactly at 20.0 s).
    const WALKER_BREAK: SimTime = SimTime::from_millis(20_500);

    #[test]
    fn a_walker_leaves_its_fixed_peer_at_the_instant_polling_found() {
        for shards in [1, 2] {
            let mut world = ideal_world(shards);
            world.enable_profiling();
            let a = world.add_node("a", fixed_at(10.0, 50.0), &[RadioTech::Wlan], Box::<Probe>::default());
            let walk = MobilityModel::walk(Point::new(20.0, 50.0), Point::new(95.0, 50.0), 2.0);
            let w = world.add_node("w", walk, &[RadioTech::Wlan], Probe::dialing(a));
            world.run_for(SimDuration::from_secs(30));
            // The initiator finds out itself; its `Broken` crosses one barrier.
            assert_eq!(
                probe(&mut world, w, |p| p.dropped.clone()),
                vec![(WALKER_BREAK, a, DisconnectReason::OutOfRange)]
            );
            assert_eq!(
                probe(&mut world, a, |p| p.dropped.clone()),
                vec![(
                    WALKER_BREAK + SimDuration::from_millis(500),
                    w,
                    DisconnectReason::OutOfRange
                )]
            );
            assert_eq!(world.metrics().global().links_broken, 2);
            // Two looks at the link where polling took 39: the slack in the
            // exit wakes it at 20.0 s, exactly 50 m out and still in range.
            assert_eq!(world.profile().calls(Phase::LinkCheck), 2);
        }
    }

    #[test]
    fn a_stationary_city_runs_no_link_check_and_its_links_still_break() {
        let mut world = ideal_world(2);
        world.enable_profiling();
        let wlan = [RadioTech::Wlan];
        let pair = |world: &mut ShardedWorld, x: f64| {
            let acceptor = NodeId::from_raw(world.node_count() as u64 + 1);
            let dialer = world.add_node("dialer", fixed_at(x, 40.0), &wlan, Probe::dialing(acceptor));
            world.add_node("acceptor", fixed_at(x, 60.0), &wlan, Box::<Probe>::default());
            (dialer, acceptor)
        };
        let (a, b) = pair(&mut world, 10.0);
        let (c, d) = pair(&mut world, 35.0);
        let (e, f) = pair(&mut world, 65.0);
        let (g, h) = pair(&mut world, 90.0);
        world.install_fault_plan(b, &FaultPlan::new().crash_at(ms(3_000)));
        world.install_fault_plan(
            d,
            &FaultPlan::new().radio_outage(RadioTech::Wlan, ms(5_000), SimDuration::from_secs(2)),
        );
        world.install_fault_plan(g, &FaultPlan::new().crash_at(ms(7_200)));
        world.run_until(ms(12_000));
        assert_eq!(
            world.profile().calls(Phase::LinkCheck),
            0,
            "a link between fixed nodes is never polled"
        );
        // Whatever breaks such a link says so itself, one barrier later.
        let dropped = |world: &mut ShardedWorld, node| probe(world, node, |p| p.dropped.clone());
        assert_eq!(
            dropped(&mut world, a),
            vec![(ms(3_500), b, DisconnectReason::PeerFailed)]
        );
        assert_eq!(
            dropped(&mut world, d),
            vec![(ms(5_000), c, DisconnectReason::OutOfRange)]
        );
        assert_eq!(
            dropped(&mut world, c),
            vec![(ms(5_500), d, DisconnectReason::OutOfRange)]
        );
        assert_eq!(
            dropped(&mut world, h),
            vec![(ms(7_500), g, DisconnectReason::PeerFailed)]
        );
        // 3 crashed or dark endpoints with a link each, 3 peers told.
        assert_eq!(world.metrics().global().links_broken, 6);
        // The untouched pair talks on.
        assert!(dropped(&mut world, e).is_empty() && dropped(&mut world, f).is_empty());
        assert_eq!(probe(&mut world, f, |p| p.heard.last().copied()), Some((ms(11_500), e)));
    }

    #[test]
    fn a_closed_link_leaves_both_tables_and_is_no_break_when_the_closer_crashes() {
        let mut world = two_node_world(1);
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        // a closes after b's pong, b answers the close, a drops its half.
        world.run_for(SimDuration::from_secs(30));
        let links_of = |world: &ShardedWorld, node| world.slot(node).expect("owned").links.len();
        assert_eq!((links_of(&world, a), links_of(&world, b)), (0, 0));
        assert_eq!(world.metrics().global().links_broken, 0);

        // Same exchange, but a crashes in the window of its close, before
        // b's answer can have come back: the half is still `ClosedLocal`.
        let mut world = two_node_world(1);
        let mut closed_at = None;
        while closed_at.is_none() {
            world.run_for(SimDuration::from_millis(500));
            let closing = world
                .slot(a)
                .expect("owned")
                .links
                .values()
                .any(|half| half.status == LinkStatus::ClosedLocal);
            closed_at = closing.then(|| world.now());
            assert!(world.now() < SimTime::from_secs(30), "a closes after the pong");
        }
        world.install_fault_plan(a, &FaultPlan::new().crash_at(world.now()));
        world.run_for(SimDuration::from_secs(5));
        assert!(!world.is_alive(a));
        assert_eq!((links_of(&world, a), links_of(&world, b)), (0, 0));
        assert_eq!(
            world.metrics().global().links_broken,
            0,
            "a graceful close is not a break"
        );
        assert_eq!(
            world.with_agent::<Chatter, _>(b, |c| c.disconnects.clone()).unwrap(),
            vec![DisconnectReason::PeerClosed]
        );
    }

    #[test]
    fn the_window_grid_returns_the_occupants_of_the_covered_cells_in_id_order_whatever_the_hasher() {
        // Both layers of a seeded city, negative cells included, against a
        // scan over every node: the cell map is only ever probed by key.
        let mut rng = SimRng::new(0xC17F);
        let spot = |rng: &mut SimRng| Point::new(rng.uniform_f64(-600.0, 1_400.0), rng.uniform_f64(-600.0, 1_400.0));
        let plans: Vec<MotionPlan> = (0..2_000)
            .map(|i| {
                let mut plan = MotionPlan::starting_at(spot(&mut rng));
                if i % 4 == 0 {
                    plan.move_to(spot(&mut rng), 1.5);
                }
                plan
            })
            .collect();
        let fixed: Vec<bool> = plans.iter().map(|p| !p.moving_after(SimTime::ZERO)).collect();
        let movers: Vec<usize> = (0..plans.len()).filter(|raw| !fixed[*raw]).collect();
        let snapshot = vec![RadioState::new(&[RadioTech::Wlan]); plans.len()];
        let mut grid = WindowGrid::new(50.0);
        let mut got = Vec::new();
        for window in [0u64, 40, 41, 300] {
            let t0 = SimTime::from_secs(window);
            grid.rebuild(t0, &plans, &snapshot, &fixed, &movers);
            for _ in 0..100 {
                let center = spot(&mut rng);
                let reach = rng.uniform_f64(0.0, 130.0);
                let (low, high) = (
                    grid.cell_of(center.offset(-reach - QUERY_PAD_M, -reach - QUERY_PAD_M)),
                    grid.cell_of(center.offset(reach + QUERY_PAD_M, reach + QUERY_PAD_M)),
                );
                let scan: Vec<NodeId> = (0..plans.len())
                    .filter(|raw| {
                        let (cx, cy) = grid.cell_of(plans[*raw].position_at(t0));
                        (low.0..=high.0).contains(&cx) && (low.1..=high.1).contains(&cy)
                    })
                    .map(|raw| NodeId::from_raw(raw as u64))
                    .collect();
                grid.query_into(center, reach, &mut got);
                assert_eq!(got, scan, "window {window}");
            }
        }
    }
}
