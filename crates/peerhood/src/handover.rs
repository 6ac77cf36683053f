//! Per-connection handover state (the HandoverThread of §5.2).
//!
//! The thesis' HandoverThread has three states (Fig. 5.5):
//!
//! * **State 0** — walk the device list and find, among the direct
//!   neighbours, the ones that report the connected device as *their* direct
//!   neighbour; remember the best-quality alternative route.
//! * **State 1** — monitor the link quality of the existing connection; after
//!   more than three consecutive "signal low" samples, move to state 2.
//! * **State 2** — create a new bridge connection through the stored route,
//!   and once it is confirmed substitute the old connection and notify the
//!   application through the `ChangeConnection` callback.
//!
//! This module holds the pure per-connection state machine; the node glue in
//! [`crate::node`] drives it from the monitor timer and the connection
//! events.

use serde::{Deserialize, Serialize};

use crate::ids::DeviceAddress;
use crate::quality::LowSignalCounter;

/// What the handover machinery aims the replacement route at.
///
/// The thesis' implementation re-routes towards the *current link peer*,
/// which is what produces the "monitoring limitation" chains of Fig. 5.6/5.7.
/// Re-routing towards the final destination avoids the problem; experiment
/// E11 compares the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum HandoverTarget {
    /// Re-route towards the device the degrading link currently points at
    /// (the thesis' behaviour; chains can grow).
    LinkPeer,
    /// Re-route towards the connection's final destination (chains stay
    /// minimal).
    #[default]
    FinalDestination,
}

/// A candidate alternative route found in state 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HandoverCandidate {
    /// The direct neighbour to use as bridge.
    pub bridge: DeviceAddress,
    /// Our measured quality towards the bridge.
    pub quality_to_bridge: u8,
    /// The quality the bridge reported towards the target.
    pub bridge_to_target: u8,
}

impl HandoverCandidate {
    /// Combined score used to pick the best candidate (the sum rule of
    /// Fig. 3.8 applied to the two hops).
    pub fn score(&self) -> u32 {
        self.quality_to_bridge as u32 + self.bridge_to_target as u32
    }
}

/// The state-machine phase a monitored connection is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HandoverPhase {
    /// States 0+1: tracking candidates and watching quality.
    Monitoring,
    /// State 2: a replacement bridge connection is being established.
    Switching,
}

/// Handover monitoring state attached to an outgoing connection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HandoverMonitor {
    /// Quality watcher (state 1).
    pub counter: LowSignalCounter,
    /// Best known alternative route (state 0).
    pub candidate: Option<HandoverCandidate>,
    /// Routing-handover attempts performed so far on this connection.
    pub attempts: u32,
    /// Current phase.
    pub phase: HandoverPhase,
    /// Opaque key of the inputs the candidate was last refreshed from
    /// (the storage's two generations summed, target, excluded bridge). Lets the monitoring
    /// pass skip recomputing the candidate list when nothing it derives
    /// from has changed — the steady-state common case. `None` until the
    /// first refresh; dies with the monitor, so a replacement monitor
    /// always recomputes.
    refresh_key: Option<(u64, DeviceAddress, Option<DeviceAddress>)>,
}

impl HandoverMonitor {
    /// Creates a monitor with the given quality threshold.
    pub fn new(quality_threshold: u8) -> Self {
        HandoverMonitor {
            counter: LowSignalCounter::new(quality_threshold),
            candidate: None,
            attempts: 0,
            phase: HandoverPhase::Monitoring,
            refresh_key: None,
        }
    }

    /// The key of the last refresh, if any (see
    /// [`HandoverMonitor::note_refreshed`]).
    pub fn refresh_key(&self) -> Option<(u64, DeviceAddress, Option<DeviceAddress>)> {
        self.refresh_key
    }

    /// Records that the candidate list was just recomputed from inputs
    /// identified by `key`; while the caller observes the same key it may
    /// skip the recomputation ([`HandoverMonitor::refresh_candidates`] is a
    /// pure function of its inputs).
    pub fn note_refreshed(&mut self, key: (u64, DeviceAddress, Option<DeviceAddress>)) {
        self.refresh_key = Some(key);
    }

    /// State 0: refresh the best candidate from the list produced by
    /// [`crate::storage::DeviceStorage::handover_candidates_iter`], excluding the
    /// bridge currently in use (there is no point re-routing through it).
    pub fn refresh_candidates(&mut self, candidates: &[(DeviceAddress, u8, u8)], exclude: Option<DeviceAddress>) {
        self.candidate = candidates
            .iter()
            .filter(|(bridge, _, _)| Some(*bridge) != exclude)
            .map(|(bridge, ours, theirs)| HandoverCandidate {
                bridge: *bridge,
                quality_to_bridge: *ours,
                bridge_to_target: *theirs,
            })
            .max_by_key(HandoverCandidate::score);
    }

    /// State 1: record a quality sample. Returns `true` if the connection has
    /// degraded past the tolerance and a switch should start (provided a
    /// candidate exists and no switch is already running).
    pub fn record_quality(&mut self, quality: Option<u8>) -> bool {
        if self.phase == HandoverPhase::Switching {
            return false;
        }
        match quality {
            Some(q) => self.counter.record(q),
            None => self.counter.record_missing(),
        }
    }

    /// Moves to state 2, consuming the stored candidate. Returns the
    /// candidate to switch through, or `None` if none is known.
    pub fn begin_switch(&mut self) -> Option<HandoverCandidate> {
        if self.phase == HandoverPhase::Switching {
            return None;
        }
        let candidate = self.candidate?;
        self.phase = HandoverPhase::Switching;
        self.attempts += 1;
        Some(candidate)
    }

    /// Called when the replacement connection was confirmed: return to
    /// monitoring with a cleared low counter.
    pub fn switch_succeeded(&mut self) {
        self.phase = HandoverPhase::Monitoring;
        self.counter.reset();
        self.candidate = None;
    }

    /// Called when the replacement connection could not be established:
    /// return to monitoring (the old link may still limp along, or the
    /// disconnection path will take over).
    pub fn switch_failed(&mut self) {
        self.phase = HandoverPhase::Monitoring;
    }

    /// True while a switch is in progress.
    pub fn is_switching(&self) -> bool {
        self.phase == HandoverPhase::Switching
    }

    /// True once the configured number of routing attempts has been used up.
    pub fn attempts_exhausted(&self, max_attempts: u32) -> bool {
        self.attempts >= max_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u64) -> DeviceAddress {
        DeviceAddress::from_node_raw(n)
    }

    fn monitor() -> HandoverMonitor {
        HandoverMonitor::new(230)
    }

    #[test]
    fn candidate_selection_prefers_best_combined_quality_and_excludes_current_bridge() {
        let mut m = monitor();
        let candidates = vec![(addr(1), 240, 230), (addr(2), 250, 252), (addr(3), 255, 255)];
        m.refresh_candidates(&candidates, Some(addr(3)));
        let c = m.candidate.unwrap();
        assert_eq!(c.bridge, addr(2));
        assert_eq!(c.score(), 502);
        // Without the exclusion the best is device 3.
        m.refresh_candidates(&candidates, None);
        assert_eq!(m.candidate.unwrap().bridge, addr(3));
        // No candidates at all.
        m.refresh_candidates(&[], None);
        assert!(m.candidate.is_none());
    }

    #[test]
    fn quality_monitoring_triggers_after_tolerance() {
        let mut m = monitor();
        assert!(!m.record_quality(Some(240)));
        assert!(!m.record_quality(Some(229)));
        assert!(!m.record_quality(Some(220)));
        assert!(!m.record_quality(Some(210)));
        // Fourth consecutive low sample exceeds LOW_COUNT_LIMIT (3).
        assert!(m.record_quality(Some(205)));
    }

    #[test]
    fn missing_samples_count_as_low() {
        let mut m = monitor();
        for _ in 0..3 {
            assert!(!m.record_quality(None));
        }
        assert!(m.record_quality(None));
    }

    #[test]
    fn switch_lifecycle() {
        let mut m = monitor();
        m.refresh_candidates(&[(addr(5), 240, 245)], None);
        let c = m.begin_switch().unwrap();
        assert_eq!(c.bridge, addr(5));
        assert!(m.is_switching());
        assert_eq!(m.attempts, 1);
        // While switching, further low samples do not re-trigger.
        assert!(!m.record_quality(Some(10)));
        // A second begin_switch while switching is refused.
        assert!(m.begin_switch().is_none());
        m.switch_succeeded();
        assert!(!m.is_switching());
        assert_eq!(m.counter.consecutive_low(), 0);
        assert!(m.candidate.is_none());
    }

    #[test]
    fn switch_without_candidate_is_refused() {
        let mut m = monitor();
        assert!(m.begin_switch().is_none());
        assert!(!m.is_switching());
        assert_eq!(m.attempts, 0);
    }

    #[test]
    fn failed_switch_returns_to_monitoring_and_counts_attempt() {
        let mut m = monitor();
        m.refresh_candidates(&[(addr(5), 240, 245)], None);
        m.begin_switch().unwrap();
        m.switch_failed();
        assert!(!m.is_switching());
        assert_eq!(m.attempts, 1);
        assert!(!m.attempts_exhausted(2));
        m.refresh_candidates(&[(addr(6), 240, 245)], None);
        m.begin_switch().unwrap();
        assert!(m.attempts_exhausted(2));
    }

    #[test]
    fn default_target_is_final_destination() {
        assert_eq!(HandoverTarget::default(), HandoverTarget::FinalDestination);
    }
}
