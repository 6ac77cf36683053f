//! What one shard owns about one node: its state, its halves of its links,
//! its event queue, and the messages nodes exchange across barriers.

use super::exec::{GlobalView, PassOutput};
use super::ShardAgent;
use crate::event::Scheduler;
use crate::faults::{FaultAction, FaultStats, LifecycleEvent, LifecycleKind};
use crate::metrics::Counters;
use crate::node::{AttemptId, ConnectError, DisconnectReason, LinkId, NodeId, TimerToken};
use crate::payload::SharedPayload;
use crate::radio::{RadioState, RadioTech};
use crate::rng::SimRng;
use crate::table::IdTable;
use crate::time::SimTime;

/// Link/attempt identifiers pack the initiating node into the high bits and
/// a per-node counter into the low bits, so ids are unique and
/// shard-count-independent without any shared counter.
pub(super) const ID_NODE_SHIFT: u32 = 32;

/// One endpoint's view of an established link.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum LinkStatus {
    Open,
    /// We closed gracefully; in-flight data from the peer still delivers,
    /// and the half goes when the peer's answering `Closed` arrives behind it.
    ClosedLocal,
}

#[derive(Clone, Copy)]
pub(super) struct LinkHalf {
    pub(super) peer: NodeId,
    pub(super) tech: RadioTech,
    /// The initiating endpoint owns the link checks.
    pub(super) initiator: bool,
    pub(super) status: LinkStatus,
    /// Initiator only: when the half's pending `LinkCheck` fires; `None`
    /// while no passing of time can take the pair out of range.
    pub(super) next_check: Option<SimTime>,
    /// When the latest payload this endpoint sent is due at the peer.
    pub(super) last_delivery: SimTime,
}

impl LinkHalf {
    /// A freshly established half with no check queued yet.
    pub(super) fn open(peer: NodeId, tech: RadioTech, initiator: bool) -> Self {
        LinkHalf {
            peer,
            tech,
            initiator,
            status: LinkStatus::Open,
            next_check: None,
            last_delivery: SimTime::ZERO,
        }
    }
}

/// A cross-node effect, exchanged at window barriers and merged in the
/// canonical `(at, origin, seq)` order.
pub(super) struct ShardMsg {
    pub(super) at: SimTime,
    pub(super) origin: NodeId,
    pub(super) seq: u64,
    pub(super) to: NodeId,
    pub(super) body: MsgBody,
}

pub(super) enum MsgBody {
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
pub(super) enum NodeEvent {
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
    /// after `Ctx::close`), delivered once the current callback returns.
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
pub(super) struct ShardNode {
    pub(super) id: NodeId,
    /// The node's dynamic radio-side state. Other nodes read it only as the
    /// copy published at the window start (`GlobalView::snapshot`), so what
    /// a node observes never depends on which shard executes its neighbours.
    pub(super) radio: RadioState,
    pub(super) epoch: u64,
    pub(super) rng: SimRng,
    pub(super) agent: Option<Box<dyn ShardAgent>>,
    pub(super) queue: Scheduler<NodeEvent>,
    /// The node's halves of its links, in link-id order — the order the
    /// crash and radio-outage tear-downs emit `Broken` in (emission order
    /// assigns message sequence numbers). Two entries for a typical probe,
    /// no storage once the last link is gone.
    pub(super) links: IdTable<LinkId, LinkHalf>,
    /// Initiator-side attempts that sent a `ConnectRequest` and await the
    /// reply: attempt -> (peer, tech, link id reserved for the connection).
    /// Empty, and so without storage, between handshakes.
    pub(super) pending: IdTable<AttemptId, (NodeId, RadioTech, LinkId)>,
    pub(super) counters: Counters,
    /// Allocated by `install_fault_plan` (or the first recorded transition):
    /// a node without a plan pays one pointer for it.
    pub(super) faults: Option<Box<NodeFaults>>,
    pub(super) next_attempt: u64,
    pub(super) next_link: u64,
    pub(super) next_msg_seq: u64,
}

/// A node's fault plan and what it has done so far.
#[derive(Default)]
pub(super) struct NodeFaults {
    /// The installed actions, indexed by `NodeEvent::Fault::idx`.
    pub(super) actions: Vec<(SimTime, FaultAction)>,
    pub(super) stats: FaultStats,
    /// The node's transitions, in time order.
    pub(super) lifecycle: Vec<LifecycleEvent>,
}

impl ShardNode {
    /// Posts a cross-node effect of this node's to `to`, visible at
    /// `earliest` or, if that is inside the current window, at its end.
    pub(super) fn emit(
        &mut self,
        out: &mut PassOutput,
        view: &GlobalView<'_>,
        earliest: SimTime,
        to: NodeId,
        body: MsgBody,
    ) {
        let seq = self.next_msg_seq;
        self.next_msg_seq += 1;
        out.outbox.push(ShardMsg {
            at: view.visible_at(earliest),
            origin: self.id,
            seq,
            to,
            body,
        });
    }

    /// Counts a lifecycle transition and appends it to the node's stream.
    pub(super) fn record(&mut self, at: SimTime, kind: LifecycleKind) {
        let node = self.id;
        let faults = self.faults.get_or_insert_default();
        faults.stats.count(kind);
        faults.lifecycle.push(LifecycleEvent { at, node, kind });
    }

    /// Tells the node's own agent that `link` is gone once the current event
    /// has been handled, if the node is still in the same life by then.
    pub(super) fn notify_disconnected(&mut self, now: SimTime, link: LinkId, peer: NodeId, reason: DisconnectReason) {
        let epoch = self.epoch;
        let notice = NodeEvent::Disconnected {
            link,
            peer,
            reason,
            epoch,
        };
        self.queue.schedule(now, notice);
    }

    /// Queues a message another node addressed to this one.
    pub(super) fn deliver(&mut self, msg: ShardMsg) {
        self.queue.schedule(
            msg.at,
            NodeEvent::Inbox {
                origin: msg.origin,
                body: msg.body,
            },
        );
    }
}
