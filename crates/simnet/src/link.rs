//! Link bookkeeping: established connections, and the pending attempts and
//! in-flight transmissions the world's events carry.
//!
//! These types are internal to the world's event processing, but a read-only
//! [`LinkInfo`] snapshot is exposed for scenario drivers and tests.

use serde::{Deserialize, Serialize};

use crate::mobility::MotionPlan;
use crate::node::{AttemptId, LinkId, NodeId};
use crate::payload::Payload;
use crate::radio::RadioTech;
use crate::time::{SimDuration, SimTime, MICROS_PER_SEC};

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

    /// An instant at or before the first one at which the override is
    /// exhausted (never late, a microsecond early), or `None` if it never
    /// decays that far.
    pub(crate) fn exhaustion(&self) -> Option<SimTime> {
        // `value_at` rounds, so zero means strictly less than a half is left.
        let spare = self.initial - 0.5;
        if spare < 0.0 {
            return Some(self.set_at);
        }
        if self.decay_per_sec.is_nan() || self.decay_per_sec <= 0.0 {
            return None;
        }
        let micros = (spare / self.decay_per_sec * MICROS_PER_SEC as f64) as u64;
        Some(
            self.set_at
                .saturating_add(SimDuration::from_micros(micros.saturating_sub(1))),
        )
    }
}

/// The first instant of the poll grid `phase + k·interval` that is later
/// than `now` and not before `earliest`. Link checks stay on their link's
/// own grid, so a break is seen at the instant per-interval polling saw it.
pub(crate) fn next_poll(phase: SimTime, interval: SimDuration, now: SimTime, earliest: SimTime) -> SimTime {
    let step = interval.as_micros().max(1);
    let target = earliest.max(now.saturating_add(SimDuration::from_micros(1)));
    let steps = target.saturating_since(phase).as_micros().div_ceil(step);
    phase.saturating_add(SimDuration::from_micros(step.saturating_mul(steps)))
}

/// The first poll after `now`, on the grid `phase + k·interval`, at which two
/// nodes on plans `a` and `b` could be more than `range_m` apart — where both
/// engines queue a link's next check — or `None` when the technology has no
/// range or the pair never leaves it. May be early, never late.
pub(crate) fn range_exit_poll(
    a: &MotionPlan,
    b: &MotionPlan,
    range_m: Option<f64>,
    phase: SimTime,
    interval: SimDuration,
    now: SimTime,
) -> Option<SimTime> {
    let exit = a.range_exit(b, range_m?, now)?;
    Some(next_poll(phase, interval, now, exit))
}

/// The grid instants just before the check pending at `pending`, latest
/// first: the polls a debug audit replays as the oracle, to see that none of
/// the skipped ones would have broken the link. Sixteen of them — the unsound
/// skip, if there is one, sits right before the check, and every audit looks
/// again.
#[cfg(debug_assertions)]
pub(crate) fn polls_before(pending: SimTime, interval: SimDuration) -> impl Iterator<Item = SimTime> {
    (1..=16u64)
        .map_while(move |k| pending.as_micros().checked_sub(interval.as_micros().saturating_mul(k)))
        .map(SimTime::from_micros)
}

/// The net under every skipped poll, for one open link at an audit at `now`;
/// `ahead` is the first instant whose events have not run yet. A link with no
/// check pending must not have `lost` coverage at `now`; a pending check is
/// not behind `ahead`, and polling — the oracle — finds coverage at every
/// grid instant from `ahead` up to it ([`polls_before`]), so no check is
/// queued later than the first poll that would have broken the link.
#[cfg(debug_assertions)]
pub(crate) fn audit_skipped_polls(
    link: LinkId,
    pending: Option<SimTime>,
    now: SimTime,
    ahead: SimTime,
    interval: SimDuration,
    lost: impl Fn(SimTime) -> bool,
) {
    let Some(pending) = pending else {
        assert!(!lost(now), "{link:?} lost coverage with no check pending");
        return;
    };
    assert!(pending >= ahead, "{link:?} has a check pending in the past");
    for poll in polls_before(pending, interval).take_while(|t| *t >= ahead) {
        assert!(
            !lost(poll),
            "{link:?} loses coverage at {poll}, before its check at {pending}"
        );
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
    /// When the link's one live `LinkCheck` event fires; `None` while nothing
    /// time-dependent can break the link. A `LinkCheck` for any other instant
    /// was superseded and is ignored.
    pub next_check: Option<SimTime>,
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
    fn override_exhaustion_is_never_late_and_at_most_one_poll_early() {
        let step = SimDuration::from_millis(500);
        for (initial, decay) in [
            (240.0, 1.0),
            (3.0, 0.7),
            (0.5, 2.0),
            (0.4, 1.0),
            (17.3, 11.0),
            (255.0, 0.013),
        ] {
            let ov = QualityOverride {
                set_at: SimTime::from_millis(1_250),
                initial,
                decay_per_sec: decay,
            };
            let first_exhausted = (1u64..)
                .map(|k| ov.set_at + step * k)
                .find(|t| ov.exhausted_at(*t))
                .expect("a decaying override runs out");
            let woken = next_poll(ov.set_at, step, ov.set_at, ov.exhaustion().unwrap());
            assert!(
                woken <= first_exhausted,
                "{initial}/{decay}: woken {woken} after {first_exhausted}"
            );
            assert!(
                first_exhausted - woken <= step,
                "{initial}/{decay}: woken {woken} for {first_exhausted}"
            );
        }
        let frozen = QualityOverride {
            set_at: SimTime::ZERO,
            initial: 10.0,
            decay_per_sec: 0.0,
        };
        assert_eq!(frozen.exhaustion(), None);
    }

    #[test]
    fn next_poll_stays_on_the_phase_and_moves_on() {
        let (phase, step) = (SimTime::from_millis(130), SimDuration::from_millis(500));
        let at = |ms| SimTime::from_millis(ms);
        // Already due: the next grid instant after `now`, never `now` itself.
        assert_eq!(next_poll(phase, step, at(630), at(0)), at(1_130));
        assert_eq!(next_poll(phase, step, at(630), at(630)), at(1_130));
        assert_eq!(next_poll(phase, step, at(700), at(700)), at(1_130));
        // An exact grid instant is taken, anything past it rounds up.
        assert_eq!(next_poll(phase, step, at(630), at(2_130)), at(2_130));
        assert_eq!(next_poll(phase, step, at(630), at(2_131)), at(2_630));
        assert_eq!(next_poll(phase, step, at(630), SimTime::MAX), SimTime::MAX);
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
            next_check: None,
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
