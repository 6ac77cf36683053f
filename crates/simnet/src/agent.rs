//! One way to write an agent: [`Agent`] over [`Ctx`].
//!
//! [`World`](crate::world::World) and
//! [`ShardedWorld`](crate::world::shard::ShardedWorld) hand their callbacks
//! different contexts ([`NodeCtx`], [`ShardCtx`]); each implements [`Ctx`]
//! once, and `Ctx`'s method docs are the contract: what a call does on both
//! engines and where they may differ. `Ctx` is dyn-compatible, so code that
//! need not be generic takes `&mut dyn Ctx` (the PeerHood middleware does:
//! its applications are trait objects). An [`Agent`] is written once against
//! it and runs on a `ShardedWorld` as it is (every `Agent + Send` **is** a
//! [`ShardAgent`]) and on a `World` as [`OnWorld`].
//!
//! `Ctx` is in [`crate::prelude`]; `Agent` is not. `benchmark/` (frozen)
//! glob-imports the prelude and calls callbacks by method syntax on a probe
//! that must be a `ShardAgent`, so a type implementing both engine traits —
//! or `Agent` in the prelude — would make those calls ambiguous (E0034).
//! Import `simnet::agent::Agent` by name. `Agent` is the trait that survives
//! when `NodeAgent` and `ShardAgent` merge.

use std::any::Any;

use crate::geometry::Point;
use crate::node::{
    AttemptId, ConnectError, DisconnectReason, IncomingConnection, InquiryHit, LinkId, NodeAgent, NodeId, TimerToken,
};
use crate::payload::Payload;
use crate::radio::RadioTech;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::world::shard::{ShardAgent, ShardCtx};
use crate::world::{NodeCtx, SendError};

/// What an agent may ask of the engine it runs on, on behalf of its node.
/// Every *differs* below is bounded by one lookahead window of the sharded
/// engine; `scale_determinism`'s differential oracle and
/// `the_ctx_contract_holds_on_both_engines` pin them.
pub trait Ctx {
    /// Current simulation time, exact on both engines.
    fn now(&self) -> SimTime;

    /// The node this context acts for.
    fn node_id(&self) -> NodeId;

    /// The node's exact position now, from its compiled motion plan.
    fn position(&self) -> Point;

    /// The node's own random stream: a function of the world seed and the
    /// node id alone, so the same on both engines.
    fn rng(&mut self) -> &mut SimRng;

    /// Fires [`Agent::on_timer`] with `token` after `after`; node-local and
    /// exact. A timer dies with the node's current life.
    fn schedule(&mut self, after: SimDuration, token: TimerToken);

    /// Starts an inquiry on `tech`; [`Agent::on_inquiry_complete`] fires after
    /// the technology's inquiry duration, and until then a Bluetooth node
    /// answers nobody else's (§3.4.2). A no-op — nothing counted, no callback
    /// — on a technology the node does not carry. *Differs:* shards read the
    /// neighbours' liveness, discoverability and mid-scan state from the
    /// window-start snapshot. GPRS has no radius to bound a window's query
    /// with: discovery on it is sequential-only and panics on shards.
    fn start_inquiry(&mut self, tech: RadioTech);

    /// Sets whether this node answers inquiries on `tech`; a technology it
    /// does not carry cannot be turned on. *Differs:* on shards others see
    /// the change from the next window start.
    fn set_discoverable(&mut self, tech: RadioTech, discoverable: bool);

    /// Dials `peer` over `tech`: the set-up latency is drawn from this node's
    /// stream now, the outcome arrives as [`Agent::on_connected`] or
    /// [`Agent::on_connect_failed`]. *Differs:* `World` resolves the attempt
    /// in one event and numbers attempts and links world-wide; on shards
    /// request and reply each cross a window barrier, the peer's radio is
    /// judged on the snapshot, and ids pack `(initiator, per-node counter)`.
    fn connect(&mut self, peer: NodeId, tech: RadioTech) -> AttemptId;

    /// Whether `peer` is within this node's `tech` range now: the range check
    /// a dial resolving now would make, so `false` is what a dial refused
    /// with [`ConnectError::OutOfRange`] says. A link that broke with
    /// [`DisconnectReason::OutOfRange`] while this still answers `true` broke
    /// for another reason: a flap, a partition cut, an exhausted quality
    /// override or a dark radio. Exact on both engines (positions come from
    /// the compiled motion plans). A `LinkDown` disconnect reason for those
    /// breaks would carry the split itself and replace this query; it waits
    /// because `benchmark/` matches [`DisconnectReason`] exhaustively.
    /// *Differs:* GPRS dead zones exist on `World` alone; on shards every
    /// GPRS pair is in range, as their dials find it.
    fn in_range(&self, peer: NodeId, tech: RadioTech) -> bool;

    /// Sends `payload` on an open link of this node; it is lost if the link
    /// breaks while it is in flight (the data-loss risk §6.1 points out for
    /// the original `Write`). A [`Payload`] clone shares its bytes, so one
    /// encoded frame fans out to many links without a copy. *Differs:* on
    /// shards delivery is no earlier than the next window start.
    ///
    /// # Errors
    ///
    /// The link is unknown, closed, or not this node's.
    fn send(&mut self, link: LinkId, payload: Payload) -> Result<(), SendError>;

    /// Gracefully closes an open link; the peer hears `PeerClosed` behind
    /// everything already sent to it. *Differs:* on shards the closer itself
    /// hears `LocalClosed` once the current callback returns, on `World`
    /// nothing.
    fn close(&mut self, link: LinkId);

    /// Samples the quality (0–255) of an open link from the exact distance,
    /// as the HCI RSSI / link-quality reading of §3.4.1 does; `None` if it is
    /// closed or out of range. *Differs:* the noise is drawn from the
    /// **asker's** stream on shards and the link initiator's on `World`, and
    /// only `World` counts a sample of a link already gone.
    fn link_quality(&mut self, link: LinkId) -> Option<u8>;
}

/// Behaviour attached to a node, written once for both engines. The
/// callbacks and their defaults are [`NodeAgent`]'s; all run on the simulated
/// event loop and must not block.
#[allow(unused_variables)]
pub trait Agent: Any {
    /// The node has powered on.
    fn on_start<C: Ctx>(&mut self, ctx: &mut C) {}

    /// The node restarted after a crash. Timers, inquiries and attempts from
    /// before it are dead; an agent carrying per-session state resets it
    /// here. Defaults to [`Agent::on_start`].
    fn on_restart<C: Ctx>(&mut self, ctx: &mut C) {
        self.on_start(ctx);
    }

    /// A timer scheduled through [`Ctx::schedule`] fired.
    fn on_timer<C: Ctx>(&mut self, ctx: &mut C, token: TimerToken) {}

    /// An inquiry started through [`Ctx::start_inquiry`] finished.
    fn on_inquiry_complete<C: Ctx>(&mut self, ctx: &mut C, tech: RadioTech, hits: Vec<InquiryHit>) {}

    /// A peer asks to connect; `false` fails its attempt with
    /// [`ConnectError::Rejected`].
    fn on_incoming_connection<C: Ctx>(&mut self, ctx: &mut C, incoming: IncomingConnection) -> bool {
        false
    }

    /// A connection attempt initiated by this node succeeded.
    fn on_connected<C: Ctx>(&mut self, ctx: &mut C, attempt: AttemptId, link: LinkId, peer: NodeId, tech: RadioTech) {}

    /// A connection attempt initiated by this node failed.
    fn on_connect_failed<C: Ctx>(
        &mut self,
        ctx: &mut C,
        attempt: AttemptId,
        peer: NodeId,
        tech: RadioTech,
        error: ConnectError,
    ) {
    }

    /// A payload sent by the peer arrived on an open link.
    fn on_message<C: Ctx>(&mut self, ctx: &mut C, link: LinkId, from: NodeId, payload: Payload) {}

    /// An established link went down.
    fn on_disconnected<C: Ctx>(&mut self, ctx: &mut C, link: LinkId, peer: NodeId, reason: DisconnectReason) {}
}

/// The nine callbacks of an engine trait over `$ctx`, each handing on to the
/// [`Agent`] that `$agent` names.
macro_rules! engine_callbacks {
    ($ctx:ident, $this:ident => $agent:expr) => {
        fn on_start(&mut $this, ctx: &mut $ctx<'_>) {
            Agent::on_start($agent, ctx)
        }
        fn on_restart(&mut $this, ctx: &mut $ctx<'_>) {
            Agent::on_restart($agent, ctx)
        }
        fn on_timer(&mut $this, ctx: &mut $ctx<'_>, token: TimerToken) {
            Agent::on_timer($agent, ctx, token)
        }
        fn on_inquiry_complete(&mut $this, ctx: &mut $ctx<'_>, tech: RadioTech, hits: Vec<InquiryHit>) {
            Agent::on_inquiry_complete($agent, ctx, tech, hits)
        }
        fn on_incoming_connection(&mut $this, ctx: &mut $ctx<'_>, incoming: IncomingConnection) -> bool {
            Agent::on_incoming_connection($agent, ctx, incoming)
        }
        fn on_connected(&mut $this, ctx: &mut $ctx<'_>, attempt: AttemptId, link: LinkId, peer: NodeId, tech: RadioTech) {
            Agent::on_connected($agent, ctx, attempt, link, peer, tech)
        }
        fn on_connect_failed(
            &mut $this,
            ctx: &mut $ctx<'_>,
            attempt: AttemptId,
            peer: NodeId,
            tech: RadioTech,
            error: ConnectError,
        ) {
            Agent::on_connect_failed($agent, ctx, attempt, peer, tech, error)
        }
        fn on_message(&mut $this, ctx: &mut $ctx<'_>, link: LinkId, from: NodeId, payload: Payload) {
            Agent::on_message($agent, ctx, link, from, payload)
        }
        fn on_disconnected(&mut $this, ctx: &mut $ctx<'_>, link: LinkId, peer: NodeId, reason: DisconnectReason) {
            Agent::on_disconnected($agent, ctx, link, peer, reason)
        }
    };
}

impl<A: Agent + Send> ShardAgent for A {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    engine_callbacks!(ShardCtx, self => self);
}

/// Runs an [`Agent`] on the sequential [`World`](crate::world::World):
/// `world.add_node(.., Box::new(OnWorld(agent)))`. Downcasts reach the wrapped
/// agent, so `World::with_agent::<A, _>` names the agent type, as
/// `ShardedWorld::with_agent::<A, _>` does.
pub struct OnWorld<A>(pub A);

impl<A: Agent> NodeAgent for OnWorld<A> {
    fn as_any(&self) -> &dyn Any {
        &self.0
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        &mut self.0
    }
    engine_callbacks!(NodeCtx, self => &mut self.0);
}
