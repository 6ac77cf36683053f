//! One shard and the pass it runs over its nodes inside a window.

use super::ctx::ShardCtx;
use super::node::{LinkHalf, LinkStatus, MsgBody, NodeEvent, ShardMsg, ShardNode, ID_NODE_SHIFT};
use super::ShardAgent;
use crate::faults::{FaultAction, LifecycleKind};
use crate::link::range_exit_poll;
use crate::mobility::MotionPlan;
use crate::node::{AttemptId, ConnectError, DisconnectReason, IncomingConnection, LinkId, NodeId};
use crate::radio::{RadioEnvironment, RadioState, RadioTech};
use crate::telemetry::{Histogram, Phase, Profiler};
use crate::time::{SimDuration, SimTime};
use crate::world::grid::SpatialGrid;

/// Immutable state shared by every shard during one window.
pub(super) struct GlobalView<'a> {
    pub(super) radio: &'a RadioEnvironment,
    pub(super) plans: &'a [MotionPlan],
    /// Per node: the plan never moves (`!moving_after(ZERO)`).
    pub(super) fixed: &'a [bool],
    pub(super) snapshot: &'a [RadioState],
    /// Cell residency as of the window start; queries are padded by
    /// `query_pad_m` and callers filter on the snapshot and on exact positions.
    pub(super) grid: &'a SpatialGrid,
    /// End of the current window; cross-node effects emitted during the
    /// window become visible no earlier than this.
    pub(super) window_end: SimTime,
    pub(super) link_check_interval: SimDuration,
    /// `max_speed * window`: how far a candidate can drift from its
    /// window-start position.
    pub(super) query_pad_m: f64,
}

impl GlobalView<'_> {
    /// Exact distance between two nodes at `at`, off their compiled plans.
    pub(super) fn distance(&self, a: NodeId, b: NodeId, at: SimTime) -> f64 {
        let position = |node: NodeId| self.plans[node.as_raw() as usize].position_at(at);
        position(a).distance(position(b))
    }

    /// When a cross-node effect with natural time `earliest` becomes visible:
    /// no earlier than the end of the window it is emitted in.
    pub(super) fn visible_at(&self, earliest: SimTime) -> SimTime {
        earliest.max(self.window_end)
    }
}

/// What a shard's nodes write besides their own state: commutative tallies
/// and the messages the next barrier routes.
#[derive(Default)]
pub(super) struct PassOutput {
    /// Cross-node messages emitted this window.
    pub(super) outbox: Vec<ShardMsg>,
    /// Per-technology (messages, bytes) sent by nodes while owned here,
    /// indexed by `RadioTech::index`; merged into the final [`Metrics`] at
    /// assembly.
    pub(super) tech_msgs: [(u64, u64); 3],
    /// Payload sizes sent, allocated only when telemetry is on; the
    /// coordinator merges the shards' at a sample.
    pub(super) payload_hist: Option<Histogram>,
}

/// One shard: the nodes it currently owns, their event queues, the mail the
/// last barrier routed to them and the outbox of cross-node messages emitted
/// this window.
pub(super) struct Shard {
    /// Dense by raw node id; `None` for nodes owned by other shards.
    pub(super) nodes: Vec<Option<Box<ShardNode>>>,
    /// Dense by raw node id: the earliest thing pending for an owned node —
    /// its queue head, or a message still in `inbox` — and `SimTime::MAX`
    /// for an owned node with nothing pending and for every node owned
    /// elsewhere. The pass reads this instead of the node, so a node with
    /// nothing due in a window is never dereferenced.
    pub(super) due: Vec<SimTime>,
    /// A lower bound on every entry of `due` (exact right after a pass; a
    /// node that migrated away may leave it low, but then the new owner
    /// holds the same time, so the minimum over all shards is always exact).
    pub(super) next_due: SimTime,
    /// Messages the last barrier routed to nodes owned here, not yet in
    /// their queues: the next pass sorts them and schedules each node's
    /// share just before draining that node.
    pub(super) inbox: Vec<ShardMsg>,
    pub(super) out: PassOutput,
    /// `(raw id, snapshot)` of every node whose published state changed
    /// during the last pass; the coordinator applies it at the next window
    /// start.
    pub(super) snapshot_delta: Vec<(usize, RadioState)>,
    /// Wall nanoseconds of the last pass (recorded only while profiling).
    pub(super) pass_ns: u64,
    /// Nodes owned here: `Some` slots of `nodes`, counted where ownership
    /// changes (`add_node`, a barrier's migration).
    pub(super) owned: u64,
    /// Events the passes since the last barrier ran. With `owned`, the
    /// shard's load: a node runs the same events whatever shard executes it.
    pub(super) events: u64,
    /// Reusable grid-query scratch buffer (one per shard, not per query).
    scratch: Vec<NodeId>,
    /// Shard-local per-phase profiler (inert unless profiling is enabled);
    /// folded into the coordinator's view on demand.
    pub(super) profiler: Profiler,
}

impl Shard {
    pub(super) fn new() -> Self {
        Shard {
            nodes: Vec::new(),
            due: Vec::new(),
            next_due: SimTime::MAX,
            inbox: Vec::new(),
            out: PassOutput::default(),
            snapshot_delta: Vec::new(),
            pass_ns: 0,
            owned: 0,
            events: 0,
            scratch: Vec::new(),
            profiler: Profiler::disabled(),
        }
    }

    /// Records that owned node `raw` has something pending at `at`.
    pub(super) fn note_pending(&mut self, raw: usize, at: SimTime) {
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
    pub(super) fn flush_inbox(&mut self) {
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
    pub(super) fn run_window(&mut self, view: &GlobalView<'_>) {
        let started = self.profiler.begin();
        let t1 = view.window_end;
        let Shard {
            nodes,
            due,
            next_due,
            inbox,
            out,
            snapshot_delta,
            events,
            scratch,
            profiler,
            ..
        } = self;
        let mut mail = Self::sorted_mail(inbox);
        let mut exec = Executor { view, out, scratch };
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
            while node.queue.peek_time().is_some_and(|t| t < t1) {
                let (at, event) = node.queue.pop().expect("peeked");
                *events += 1;
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
    out: &'a mut PassOutput,
    scratch: &'a mut Vec<NodeId>,
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
                out: self.out,
            };
            f(agent.as_mut(), &mut ctx);
        }
        node.agent = Some(agent);
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
        let view = self.view;
        let profile = view.radio.profile(tech);
        let mut hits = Vec::new();
        if node.radio.enabled(tech) {
            let range = profile
                .range_m
                .expect("sharded world supports range-bounded technologies only");
            let (own, pos) = (node.id, view.plans[node.id.as_raw() as usize].position_at(now));
            view.grid.query_into(pos, range + view.query_pad_m, self.scratch);
            let answering = self.scratch.iter().filter_map(|&candidate| {
                let raw = candidate.as_raw() as usize;
                if candidate == own || !view.snapshot[raw].answers_inquiry(tech, profile, now) {
                    return None;
                }
                let distance = pos.distance(view.plans[raw].position_at(now));
                profile.in_range(distance).then_some((candidate, distance))
            });
            hits = profile.sample_inquiry(answering, &mut node.rng);
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
        let error = if profile.sample_setup_fault(&mut node.rng) {
            Some(ConnectError::Fault)
        } else if !self.view.snapshot[peer.as_raw() as usize].enabled(tech) {
            Some(ConnectError::Unreachable)
        } else if !profile.in_range(self.view.distance(node.id, peer, now)) {
            Some(ConnectError::OutOfRange)
        } else {
            None
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
                let request = MsgBody::ConnectRequest { attempt, link, tech };
                node.emit(self.out, self.view, now, peer, request);
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
        let view = self.view;
        half.next_check = if view.fixed[own] && view.fixed[peer] {
            None
        } else {
            let (range_m, interval) = (view.radio.profile(half.tech).range_m, view.link_check_interval);
            range_exit_poll(&view.plans[own], &view.plans[peer], range_m, now, interval, now)
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
        let profile = self.view.radio.profile(half.tech);
        let in_range = !node.radio.radio_off.contains(half.tech)
            && (fixed_pair || profile.in_range(self.view.distance(node.id, half.peer, now)));
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
        node.emit(self.out, self.view, now, half.peer, MsgBody::Broken { link, reason });
        self.call_agent(node, now, |agent, ctx| {
            agent.on_disconnected(ctx, link, half.peer, reason)
        });
    }

    fn apply_fault(&mut self, node: &mut ShardNode, now: SimTime, idx: usize) {
        let action = node.faults.as_ref().expect("a fault event implies a plan").actions[idx].1;
        match action {
            FaultAction::NodeDown => {
                if !node.radio.alive {
                    return;
                }
                node.radio.power_off();
                node.epoch += 1;
                node.pending.clear();
                node.record(now, LifecycleKind::NodeDown);
                // A half closed locally is no break: its `Closed` is on its way.
                let reason = DisconnectReason::PeerFailed;
                for (link, half) in std::mem::take(&mut node.links) {
                    if half.status == LinkStatus::Open {
                        node.counters.links_broken += 1;
                        node.emit(self.out, self.view, now, half.peer, MsgBody::Broken { link, reason });
                    }
                }
            }
            FaultAction::NodeUp => {
                if node.radio.alive {
                    return;
                }
                node.radio.power_on();
                node.record(now, LifecycleKind::NodeUp);
                self.call_agent(node, now, |agent, ctx| agent.on_restart(ctx));
            }
            FaultAction::RadioDown(tech) => {
                if !node.radio.radio_off.insert(tech) {
                    return;
                }
                node.record(now, LifecycleKind::RadioDown(tech));
                // Links on the dark technology break for both endpoints.
                let reason = DisconnectReason::OutOfRange;
                // Out of the node while the sweep emits through it.
                let mut links = std::mem::take(&mut node.links);
                links.retain(|link, half| {
                    if half.tech != tech {
                        return true;
                    }
                    if half.status == LinkStatus::Open {
                        node.counters.links_broken += 1;
                    }
                    node.emit(self.out, self.view, now, half.peer, MsgBody::Broken { link, reason });
                    if node.radio.alive && half.status == LinkStatus::Open {
                        node.notify_disconnected(now, link, half.peer, reason);
                    }
                    false
                });
                node.links = links;
            }
            FaultAction::RadioUp(tech) => {
                if !node.radio.radio_off.remove(tech) {
                    return;
                }
                node.record(now, LifecycleKind::RadioUp(tech));
            }
        }
    }

    fn process_msg(&mut self, node: &mut ShardNode, now: SimTime, origin: NodeId, body: MsgBody) {
        match body {
            MsgBody::ConnectRequest { attempt, link, tech } => {
                // Dead, or dark on `tech`, the node is unreachable; otherwise
                // its agent decides.
                let mut accepted = false;
                let error = if node.radio.enabled(tech) {
                    let incoming = IncomingConnection {
                        from: origin,
                        tech,
                        link,
                    };
                    self.call_agent(node, now, |agent, ctx| {
                        accepted = agent.on_incoming_connection(ctx, incoming)
                    });
                    ConnectError::Rejected
                } else {
                    ConnectError::Unreachable
                };
                if accepted {
                    node.links.insert(link, LinkHalf::open(origin, tech, false));
                }
                let reply = MsgBody::ConnectReply {
                    attempt,
                    link,
                    tech,
                    accepted,
                    error,
                };
                node.emit(self.out, self.view, now, origin, reply);
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
                        let reason = DisconnectReason::PeerFailed;
                        node.emit(self.out, self.view, now, origin, MsgBody::Broken { link, reason });
                    }
                    return;
                }
                if accepted {
                    node.links.insert(link, LinkHalf::open(origin, tech, true));
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
                let behind = now.max(half.last_delivery);
                node.emit(self.out, self.view, behind, half.peer, MsgBody::Closed { link });
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
