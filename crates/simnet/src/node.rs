//! Node identities and the agent trait.
//!
//! A *node* is a physical device in the simulated world (a phone, laptop or
//! PC). Its behaviour — in this repository, the PeerHood middleware stack —
//! is written once as an [`Agent`](crate::agent::Agent) and acts through
//! [`Ctx`](crate::agent::Ctx). [`NodeAgent`] is the sequential engine's own
//! callback trait: the world delivers radio events through it, and an
//! `Agent` runs on it as [`OnWorld`](crate::agent::OnWorld).

use std::any::Any;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::payload::Payload;
use crate::radio::RadioTech;
use crate::world::NodeCtx;

/// Identifier of a node in the world. Stable for the lifetime of the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u64);

impl NodeId {
    /// Builds an id from its raw value. Mostly useful in tests and for keys
    /// in serialised reports.
    pub const fn from_raw(raw: u64) -> Self {
        NodeId(raw)
    }

    /// Raw value of the id.
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an in-progress connection attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AttemptId(pub u64);

impl fmt::Display for AttemptId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "attempt{}", self.0)
    }
}

/// Identifier of an established point-to-point link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u64);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link{}", self.0)
    }
}

/// Opaque timer payload. The agent chooses the value when scheduling and
/// receives it back in [`NodeAgent::on_timer`]; the simulator never
/// interprets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TimerToken(pub u64);

/// One device found by a discovery inquiry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InquiryHit {
    /// The discovered node.
    pub node: NodeId,
    /// Technology the node was found on.
    pub tech: RadioTech,
    /// Link quality sampled during the inquiry (0-255).
    pub quality: u8,
}

/// Why a connection attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConnectError {
    /// A technology-level fault (the "normal Bluetooth connection fault"
    /// observed in §4.3 even with a strong signal).
    Fault,
    /// The peer moved out of radio range before setup completed.
    OutOfRange,
    /// The peer's agent declined the connection.
    Rejected,
    /// The target node does not exist, is switched off, or lacks the radio.
    Unreachable,
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConnectError::Fault => "technology-level connection fault",
            ConnectError::OutOfRange => "peer out of range",
            ConnectError::Rejected => "connection rejected by peer",
            ConnectError::Unreachable => "peer unreachable",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ConnectError {}

/// Why an established link went down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DisconnectReason {
    /// The endpoints drifted out of radio range (coverage loss, Fig. 1.1).
    OutOfRange,
    /// The remote endpoint closed the connection.
    PeerClosed,
    /// This endpoint closed the connection.
    LocalClosed,
    /// The remote node crashed or was switched off.
    PeerFailed,
}

impl fmt::Display for DisconnectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DisconnectReason::OutOfRange => "out of range",
            DisconnectReason::PeerClosed => "peer closed",
            DisconnectReason::LocalClosed => "locally closed",
            DisconnectReason::PeerFailed => "peer failed",
        };
        f.write_str(s)
    }
}

/// Description of an inbound connection delivered to
/// [`NodeAgent::on_incoming_connection`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IncomingConnection {
    /// The node that initiated the connection.
    pub from: NodeId,
    /// The technology the connection uses.
    pub tech: RadioTech,
    /// The link that will exist if the connection is accepted.
    pub link: LinkId,
}

/// Behaviour attached to a node. All callbacks run on the simulated event
/// loop; implementations must not block.
///
/// The `as_any`/`as_any_mut` methods let scenario drivers reach the concrete
/// agent type (e.g. the PeerHood node) through
/// [`crate::world::World::with_agent`].
///
/// An [`Agent`](crate::agent::Agent) runs here as [`OnWorld`](crate::agent::OnWorld).
pub trait NodeAgent: Any {
    /// Upcast for immutable downcasting.
    fn as_any(&self) -> &dyn Any;
    /// Upcast for mutable downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Called once when the node is added to the world.
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let _ = ctx;
    }

    /// Called when the node restarts after a crash (scheduled by a
    /// [`FaultPlan`](crate::faults::FaultPlan) or forced through
    /// [`World::restart_node`](crate::world::World::restart_node)). Timers,
    /// inquiries and connection attempts from before the crash are dead and
    /// will never call back; the agent is expected to come up with fresh
    /// state, like a rebooted device. The default implementation simply runs
    /// [`NodeAgent::on_start`] again — agents carrying per-session state
    /// should override this to reset it first.
    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        self.on_start(ctx);
    }

    /// Called when a timer scheduled via [`Ctx::schedule`](crate::agent::Ctx::schedule) fires.
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: TimerToken) {
        let _ = (ctx, timer);
    }

    /// Called when a device-discovery inquiry started via
    /// [`Ctx::start_inquiry`](crate::agent::Ctx::start_inquiry) completes.
    fn on_inquiry_complete(&mut self, ctx: &mut NodeCtx<'_>, tech: RadioTech, hits: Vec<InquiryHit>) {
        let _ = (ctx, tech, hits);
    }

    /// Called when a remote node attempts to connect. Return `true` to
    /// accept; returning `false` fails the remote attempt with
    /// [`ConnectError::Rejected`].
    fn on_incoming_connection(&mut self, ctx: &mut NodeCtx<'_>, incoming: IncomingConnection) -> bool {
        let _ = (ctx, incoming);
        false
    }

    /// Called on the initiator when a connection attempt succeeds.
    fn on_connected(&mut self, ctx: &mut NodeCtx<'_>, attempt: AttemptId, link: LinkId, peer: NodeId, tech: RadioTech) {
        let _ = (ctx, attempt, link, peer, tech);
    }

    /// Called on the initiator when a connection attempt fails.
    fn on_connect_failed(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        attempt: AttemptId,
        peer: NodeId,
        tech: RadioTech,
        error: ConnectError,
    ) {
        let _ = (ctx, attempt, peer, tech, error);
    }

    /// Called when a payload sent by the peer arrives on an open link. The
    /// payload is a shared [`Payload`] clone — cheap to keep, copy-on-write
    /// to mutate.
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, from: NodeId, payload: Payload) {
        let _ = (ctx, link, from, payload);
    }

    /// Called when an established link goes down for any reason.
    fn on_disconnected(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, peer: NodeId, reason: DisconnectReason) {
        let _ = (ctx, link, peer, reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip_and_display() {
        let id = NodeId::from_raw(42);
        assert_eq!(id.as_raw(), 42);
        assert_eq!(id.to_string(), "n42");
        assert_eq!(LinkId(3).to_string(), "link3");
        assert_eq!(AttemptId(9).to_string(), "attempt9");
    }

    #[test]
    fn errors_display_something_useful() {
        assert!(ConnectError::Fault.to_string().contains("fault"));
        assert!(ConnectError::OutOfRange.to_string().contains("range"));
        assert!(DisconnectReason::PeerClosed.to_string().contains("peer"));
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(NodeId::from_raw(1) < NodeId::from_raw(2));
        assert!(LinkId(5) > LinkId(4));
    }
}
