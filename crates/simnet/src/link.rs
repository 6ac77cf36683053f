//! Link bookkeeping: established connections, and the pending attempts and
//! in-flight transmissions the world's events carry.
//!
//! These types are internal to the world's event processing, but a read-only
//! [`LinkInfo`] snapshot is exposed for scenario drivers and tests.

use serde::{Deserialize, Serialize};

use crate::node::{AttemptId, LinkId, NodeId};
use crate::payload::Payload;
use crate::radio::RadioTech;
use crate::time::SimTime;

/// An artificial link-quality override.
///
/// §5.2.1 of the thesis simulates connection deterioration by "subtracting
/// the monitored link quality value artificially by 1 every second" instead
/// of physically moving devices. Setting an override on a link reproduces
/// exactly that: quality starts at `initial` when the override is installed
/// and decreases linearly by `decay_per_sec`; the link is considered broken
/// once it reaches zero.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualityOverride {
    /// Instant the override was installed.
    pub set_at: SimTime,
    /// Quality value at `set_at`.
    pub initial: f64,
    /// Linear decay in quality units per second (may be zero for a frozen
    /// quality).
    pub decay_per_sec: f64,
}

impl QualityOverride {
    /// Quality value at time `now`, clamped to the 0-255 scale.
    pub fn value_at(&self, now: SimTime) -> u8 {
        let elapsed = now.saturating_since(self.set_at).as_secs_f64();
        (self.initial - self.decay_per_sec * elapsed).round().clamp(0.0, 255.0) as u8
    }

    /// True if the override has decayed to zero at `now`.
    pub fn exhausted_at(&self, now: SimTime) -> bool {
        self.value_at(now) == 0
    }
}

/// Internal state of an established link.
#[derive(Debug, Clone)]
pub(crate) struct LinkState {
    pub id: LinkId,
    pub a: NodeId,
    pub b: NodeId,
    pub tech: RadioTech,
    pub established_at: SimTime,
    pub open: bool,
    /// True when the link was closed deliberately by an endpoint: payloads
    /// already in flight are still delivered (socket buffers flush), unlike a
    /// coverage loss where they are dropped.
    pub closed_gracefully: bool,
    pub quality_override: Option<QualityOverride>,
    /// Payloads sent on the link whose `Deliver` event has not run yet.
    pub in_flight: u32,
    /// Latest delivery time ever scheduled on the link. While anything is in
    /// flight this is also the latest *pending* delivery: every undelivered
    /// payload is due at or after `now`, every delivered one was due before.
    pub last_delivery: SimTime,
}

impl LinkState {
    /// The endpoint opposite to `node`, if `node` is an endpoint at all.
    pub fn peer_of(&self, node: NodeId) -> Option<NodeId> {
        if node == self.a {
            Some(self.b)
        } else if node == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// True if `node` is one of the two endpoints.
    pub fn has_endpoint(&self, node: NodeId) -> bool {
        node == self.a || node == self.b
    }
}

/// Public, read-only snapshot of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkInfo {
    /// The link identifier.
    pub id: LinkId,
    /// Initiating endpoint.
    pub initiator: NodeId,
    /// Accepting endpoint.
    pub acceptor: NodeId,
    /// Radio technology in use.
    pub tech: RadioTech,
    /// When the link was established.
    pub established_at: SimTime,
    /// Whether the link is still open.
    pub open: bool,
}

impl From<&LinkState> for LinkInfo {
    fn from(s: &LinkState) -> Self {
        LinkInfo {
            id: s.id,
            initiator: s.a,
            acceptor: s.b,
            tech: s.tech,
            established_at: s.established_at,
            open: s.open,
        }
    }
}

/// A connection attempt that has been initiated but not yet resolved; it
/// travels inside its `ConnectResolve` event.
#[derive(Debug, Clone)]
pub(crate) struct PendingAttempt {
    pub id: AttemptId,
    pub from: NodeId,
    pub to: NodeId,
    pub tech: RadioTech,
    /// The initiator's life the attempt belongs to; stale attempts from
    /// before a crash resolve to nothing.
    pub epoch: u64,
}

/// A payload travelling across a link, carried by its `Deliver` event. The
/// payload is a shared [`Payload`] clone, so queueing a frame on many links
/// (or re-delivering it along a bridge chain) never copies the bytes.
#[derive(Debug, Clone)]
pub(crate) struct InFlightMessage {
    pub link: LinkId,
    /// The sending endpoint; the payload goes to the link's other one.
    pub from: NodeId,
    pub payload: Payload,
    /// Built by the adversary's forge: already hostile, so the delivery-time
    /// tamper pass skips it.
    pub injected: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn override_decays_linearly() {
        let ov = QualityOverride {
            set_at: SimTime::from_secs(10),
            initial: 240.0,
            decay_per_sec: 1.0,
        };
        assert_eq!(ov.value_at(SimTime::from_secs(10)), 240);
        assert_eq!(ov.value_at(SimTime::from_secs(20)), 230);
        assert_eq!(ov.value_at(SimTime::from_secs(250)), 0);
        assert!(ov.exhausted_at(SimTime::from_secs(250)));
        assert!(!ov.exhausted_at(SimTime::from_secs(20)));
        // Querying before set_at clamps to the initial value.
        assert_eq!(ov.value_at(SimTime::ZERO), 240);
    }

    #[test]
    fn override_clamps_to_scale() {
        let ov = QualityOverride {
            set_at: SimTime::ZERO,
            initial: 400.0,
            decay_per_sec: 0.0,
        };
        assert_eq!(ov.value_at(SimTime::from_secs(5)), 255);
    }

    #[test]
    fn link_state_peer_lookup() {
        let s = LinkState {
            id: LinkId(1),
            a: NodeId::from_raw(1),
            b: NodeId::from_raw(2),
            tech: RadioTech::Bluetooth,
            established_at: SimTime::ZERO,
            open: true,
            closed_gracefully: false,
            quality_override: None,
            in_flight: 0,
            last_delivery: SimTime::ZERO,
        };
        assert_eq!(s.peer_of(NodeId::from_raw(1)), Some(NodeId::from_raw(2)));
        assert_eq!(s.peer_of(NodeId::from_raw(2)), Some(NodeId::from_raw(1)));
        assert_eq!(s.peer_of(NodeId::from_raw(3)), None);
        assert!(s.has_endpoint(NodeId::from_raw(2)));
        assert!(!s.has_endpoint(NodeId::from_raw(3)));
        let info = LinkInfo::from(&s);
        assert_eq!(info.initiator, NodeId::from_raw(1));
        assert_eq!(info.acceptor, NodeId::from_raw(2));
        assert!(info.open);
        assert_eq!(info.established_at + SimDuration::ZERO, SimTime::ZERO);
    }
}
