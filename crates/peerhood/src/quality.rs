//! Link-quality values and the route-quality rules of §3.4.1.
//!
//! Link quality is the 0–255 scale obtained by listening on the connection
//! channel (RSSI / HCI link quality for Bluetooth). The thesis uses it three
//! ways:
//!
//! 1. the **sum** of hop qualities ranks routes with the same jump count
//!    (Fig. 3.8),
//! 2. every individual hop must be at least the **minimum demanded
//!    threshold** (230) or the route is rejected even if its sum is higher
//!    (Fig. 3.9),
//! 3. a connection whose sampled quality stays below the threshold for more
//!    than [`LOW_COUNT_LIMIT`] consecutive samples is considered to be
//!    degrading and triggers handover (§5.2.1).

use serde::{Deserialize, Serialize};

/// Sum of hop qualities along a route (Fig. 3.8's "addition").
pub fn route_quality_sum(hops: &[u8]) -> u32 {
    hops.iter().map(|&q| q as u32).sum()
}

/// The Fig. 3.9 acceptance rule: a route is usable only if **every** hop is
/// at or above the minimum demanded threshold.
pub fn route_acceptable(hops: &[u8], threshold: u8) -> bool {
    !hops.is_empty() && hops.iter().all(|&q| q >= threshold)
}

/// Compares two routes with an equal number of jumps by the rules of
/// Fig. 3.8/3.9: reject routes with a hop below `threshold`; among the
/// acceptable ones pick the larger quality sum. Returns `true` when
/// `candidate` should replace `current`.
pub fn candidate_quality_better(candidate: &[u8], current: &[u8], threshold: u8) -> bool {
    let cand_ok = route_acceptable(candidate, threshold);
    let curr_ok = route_acceptable(current, threshold);
    match (cand_ok, curr_ok) {
        (true, false) => true,
        (false, _) => false,
        (true, true) => route_quality_sum(candidate) > route_quality_sum(current),
    }
}

/// Consecutive "signal low" samples tolerated before handover starts: the
/// thesis uses 3, so the fourth low sample triggers (§5.2.1).
pub const LOW_COUNT_LIMIT: u32 = 3;

/// Tracks consecutive "signal low" samples for a monitored connection
/// (state 1 of the routing-handover diagram, Fig. 5.5): handover triggers
/// once more than [`LOW_COUNT_LIMIT`] consecutive samples fall below the
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LowSignalCounter {
    threshold: u8,
    count: u32,
}

impl LowSignalCounter {
    /// Creates a counter with the given threshold (the thesis uses 230).
    pub fn new(threshold: u8) -> Self {
        LowSignalCounter { threshold, count: 0 }
    }

    /// Records a quality sample. Returns `true` if this sample pushed the
    /// counter over the limit (i.e. handover should start now).
    pub fn record(&mut self, quality: u8) -> bool {
        if quality < self.threshold {
            self.count += 1;
            self.count > LOW_COUNT_LIMIT
        } else {
            self.count = 0;
            false
        }
    }

    /// Records a failure to sample (e.g. the link already dropped); counts as
    /// a low sample.
    pub fn record_missing(&mut self) -> bool {
        self.count += 1;
        self.count > LOW_COUNT_LIMIT
    }

    /// Number of consecutive low samples so far.
    pub fn consecutive_low(&self) -> u32 {
        self.count
    }

    /// Resets the counter (used after a successful handover).
    pub fn reset(&mut self) {
        self.count = 0;
    }

    /// The configured threshold.
    pub fn threshold(&self) -> u8 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{QUALITY_LOW_THRESHOLD, QUALITY_MAX};

    #[test]
    fn constants_match_thesis() {
        assert_eq!(QUALITY_MAX, 255);
        assert_eq!(QUALITY_LOW_THRESHOLD, 230);
    }

    #[test]
    fn sums_and_minimum() {
        assert_eq!(route_quality_sum(&[230, 230]), 460);
        assert_eq!(route_quality_sum(&[]), 0);
    }

    #[test]
    fn figure_3_9_equity_case() {
        // Fig. 3.9: routes A-B-D (230 + 230) and A-C-D (210 + 250) have equal
        // sums, but A-C is below the minimum threshold 230, so A-B-D is the
        // only acceptable route.
        let abd = [230u8, 230];
        let acd = [210u8, 250];
        assert_eq!(route_quality_sum(&abd), route_quality_sum(&acd));
        assert!(route_acceptable(&abd, 230));
        assert!(!route_acceptable(&acd, 230));
        assert!(candidate_quality_better(&abd, &acd, 230));
        assert!(!candidate_quality_better(&acd, &abd, 230));
    }

    #[test]
    fn higher_sum_wins_when_both_acceptable() {
        let a = [235u8, 250];
        let b = [231u8, 240];
        assert!(candidate_quality_better(&a, &b, 230));
        assert!(!candidate_quality_better(&b, &a, 230));
        // Equal sums: keep the current route (no replacement).
        assert!(!candidate_quality_better(&a, &a, 230));
    }

    #[test]
    fn unacceptable_candidate_never_replaces() {
        let good = [240u8, 240];
        let bad = [229u8, 255];
        assert!(!candidate_quality_better(&bad, &good, 230));
        // But an acceptable candidate replaces an unacceptable current route
        // even with a lower sum.
        assert!(candidate_quality_better(&[230, 230], &[255, 200], 230));
    }

    #[test]
    fn empty_route_is_never_acceptable() {
        assert!(!route_acceptable(&[], 0));
    }

    #[test]
    fn low_signal_counter_triggers_after_limit_exceeded() {
        // Thesis: "if the signal has been too low for 3 times ... go to
        // state 2" — i.e. the fourth consecutive low sample triggers.
        let mut c = LowSignalCounter::new(230);
        assert!(!c.record(229));
        assert!(!c.record(210));
        assert!(!c.record(200));
        assert!(c.record(199));
        assert_eq!(c.consecutive_low(), 4);
    }

    #[test]
    fn good_sample_resets_counter() {
        let mut c = LowSignalCounter::new(230);
        c.record(100);
        c.record(100);
        assert_eq!(c.consecutive_low(), 2);
        c.record(240);
        assert_eq!(c.consecutive_low(), 0);
        assert!(!c.record(100));
    }

    #[test]
    fn missing_samples_count_as_low() {
        let mut c = LowSignalCounter::new(230);
        for _ in 0..LOW_COUNT_LIMIT {
            assert!(!c.record_missing());
        }
        assert!(c.record_missing());
        c.reset();
        assert_eq!(c.consecutive_low(), 0);
        assert_eq!(c.threshold(), 230);
    }
}
