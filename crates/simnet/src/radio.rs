//! Radio technology models.
//!
//! PeerHood runs over Bluetooth, WLAN and GPRS (Ch. 2). Each technology is
//! described by a [`RadioProfile`]: coverage range, bit-rate, inquiry
//! behaviour, connection-setup latency/fault distribution and the
//! link-quality model. The Bluetooth profile is calibrated to the numbers the
//! thesis measured: single connection setup of roughly 1.5–9 s and a ~15 %
//! per-attempt fault probability (so a two-leg bridge connection takes 3–18 s
//! and fails ~3 times out of 10, §4.3), an inquiry cycle of ~10 s, and the
//! 0–255 link-quality scale with the 230 "signal low" threshold used in
//! §5.2.1.

use serde::{Deserialize, Serialize};

use crate::node::{InquiryHit, NodeId};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// The wireless technologies PeerHood plugins exist for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RadioTech {
    /// Short-range, slow setup, the technology chosen for the thesis'
    /// implementation.
    Bluetooth,
    /// Medium-range, fast setup wireless LAN.
    Wlan,
    /// Cellular packet radio: infrastructure coverage (modelled as unlimited
    /// range outside of configured dead zones), higher latency, low bit-rate.
    Gprs,
}

impl RadioTech {
    /// All supported technologies, in plugin registration order.
    pub const ALL: [RadioTech; 3] = [RadioTech::Bluetooth, RadioTech::Wlan, RadioTech::Gprs];

    /// Short human-readable name (`"bt"`, `"wlan"`, `"gprs"`).
    pub fn short_name(self) -> &'static str {
        match self {
            RadioTech::Bluetooth => "bt",
            RadioTech::Wlan => "wlan",
            RadioTech::Gprs => "gprs",
        }
    }

    /// Position in [`RadioTech::ALL`], which is also the derived `Ord` order:
    /// the index of per-technology arrays and the bit of a `TechSet`.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for RadioTech {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Maximum value of the link-quality scale (Bluetooth HCI link quality is a
/// byte).
pub const QUALITY_MAX: u8 = 255;

/// The "signal low" threshold used throughout the thesis (Fig. 3.9, §5.2.1).
pub const QUALITY_LOW_THRESHOLD: u8 = 230;

/// Behavioural parameters of one radio technology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RadioProfile {
    /// Technology this profile describes.
    pub tech: RadioTech,
    /// Coverage radius in metres. `None` means infrastructure coverage
    /// (GPRS): any two nodes can talk unless one is inside a dead zone.
    pub range_m: Option<f64>,
    /// Application-visible bit-rate in bits per second.
    pub bitrate_bps: f64,
    /// Fixed per-message latency added on top of the serialisation delay.
    pub base_latency: SimDuration,
    /// How long one device-discovery inquiry scan takes.
    pub inquiry_duration: SimDuration,
    /// Probability that a device which is in range and discoverable is
    /// nevertheless missed by a single inquiry (Bluetooth inquiries are
    /// lossy).
    pub inquiry_miss_prob: f64,
    /// If true, a device that is itself running an inquiry is not
    /// discoverable by others during the scan (the Bluetooth asymmetry
    /// discussed in §3.4.2).
    pub inquiry_asymmetric: bool,
    /// Minimum connection-establishment latency in seconds.
    pub setup_min_s: f64,
    /// Maximum connection-establishment latency in seconds.
    pub setup_max_s: f64,
    /// Probability that a connection attempt fails outright even though the
    /// peer is in range ("normal Bluetooth connection fault", §4.3).
    pub setup_fault_prob: f64,
    /// Distance (as a fraction of the range) below which quality is at its
    /// maximum.
    pub quality_plateau_fraction: f64,
    /// Link quality measured exactly at the edge of the coverage range.
    pub quality_at_edge: u8,
    /// Standard deviation of the gaussian noise added to quality samples.
    pub quality_noise_std: f64,
}

impl RadioProfile {
    /// The Bluetooth profile calibrated to the thesis' measurements.
    pub fn bluetooth() -> Self {
        RadioProfile {
            tech: RadioTech::Bluetooth,
            range_m: Some(10.0),
            bitrate_bps: 700_000.0,
            base_latency: SimDuration::from_millis(30),
            inquiry_duration: SimDuration::from_millis(10_240),
            inquiry_miss_prob: 0.05,
            inquiry_asymmetric: true,
            setup_min_s: 1.5,
            setup_max_s: 9.0,
            setup_fault_prob: 0.15,
            quality_plateau_fraction: 0.25,
            quality_at_edge: 170,
            quality_noise_std: 2.0,
        }
    }

    /// A wireless-LAN profile: longer range, quick association, few faults.
    pub fn wlan() -> Self {
        RadioProfile {
            tech: RadioTech::Wlan,
            range_m: Some(50.0),
            bitrate_bps: 10_000_000.0,
            base_latency: SimDuration::from_millis(5),
            inquiry_duration: SimDuration::from_millis(2_000),
            inquiry_miss_prob: 0.01,
            inquiry_asymmetric: false,
            setup_min_s: 0.2,
            setup_max_s: 1.0,
            setup_fault_prob: 0.02,
            quality_plateau_fraction: 0.3,
            quality_at_edge: 180,
            quality_noise_std: 3.0,
        }
    }

    /// A GPRS profile: infrastructure coverage, slow and high latency.
    pub fn gprs() -> Self {
        RadioProfile {
            tech: RadioTech::Gprs,
            range_m: None,
            bitrate_bps: 40_000.0,
            base_latency: SimDuration::from_millis(600),
            inquiry_duration: SimDuration::from_millis(1_000),
            inquiry_miss_prob: 0.0,
            inquiry_asymmetric: false,
            setup_min_s: 1.0,
            setup_max_s: 3.0,
            setup_fault_prob: 0.05,
            quality_plateau_fraction: 1.0,
            quality_at_edge: 255,
            quality_noise_std: 0.0,
        }
    }

    /// True if two nodes separated by `distance_m` are within radio range.
    /// Infrastructure technologies are always in range (dead zones are
    /// handled by the world, which knows node positions).
    pub fn in_range(&self, distance_m: f64) -> bool {
        match self.range_m {
            Some(range) => distance_m <= range,
            None => true,
        }
    }

    /// Noise-free link quality for a pair separated by `distance_m`, or
    /// `None` if out of range.
    ///
    /// The model is flat at [`QUALITY_MAX`] up to `quality_plateau_fraction`
    /// of the range and then falls off quadratically to `quality_at_edge` at
    /// the edge of coverage, which reproduces the fast decay the thesis
    /// observed when carrying a laptop from the office into the corridor.
    pub fn quality_at_distance(&self, distance_m: f64) -> Option<u8> {
        let range = match self.range_m {
            Some(r) => r,
            None => return Some(QUALITY_MAX),
        };
        if distance_m > range {
            return None;
        }
        let plateau = range * self.quality_plateau_fraction;
        if distance_m <= plateau {
            return Some(QUALITY_MAX);
        }
        let span = (range - plateau).max(f64::EPSILON);
        let frac = (distance_m - plateau) / span; // 0..1
        let drop = (QUALITY_MAX as f64 - self.quality_at_edge as f64) * frac * frac;
        Some((QUALITY_MAX as f64 - drop).round().clamp(0.0, 255.0) as u8)
    }

    /// Link quality with measurement noise applied.
    pub fn sample_quality(&self, distance_m: f64, rng: &mut SimRng) -> Option<u8> {
        self.quality_at_distance(distance_m).map(|q| {
            if self.quality_noise_std <= 0.0 {
                q
            } else {
                rng.gaussian(q as f64, self.quality_noise_std).round().clamp(0.0, 255.0) as u8
            }
        })
    }

    /// The outcome of one inquiry: per candidate `(peer, distance)` — in range
    /// and answering, in ascending id order — the miss draw and then, for a
    /// peer not missed, the quality draw, both from the inquirer's stream.
    pub(crate) fn sample_inquiry(
        &self,
        candidates: impl IntoIterator<Item = (NodeId, f64)>,
        rng: &mut SimRng,
    ) -> Vec<InquiryHit> {
        // Sized once, at its bound: every candidate a hit.
        let candidates = candidates.into_iter();
        let mut hits = Vec::with_capacity(candidates.size_hint().0);
        for (node, distance) in candidates {
            if rng.chance(self.inquiry_miss_prob) {
                continue;
            }
            if let Some(quality) = self.sample_quality(distance, rng) {
                let tech = self.tech;
                hits.push(InquiryHit { node, tech, quality });
            }
        }
        hits
    }

    /// Draws a connection-establishment latency from the profile.
    pub fn sample_setup_latency(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(rng.uniform_f64(self.setup_min_s, self.setup_max_s))
    }

    /// Returns true if a connection attempt should fail due to a random
    /// technology-level fault.
    pub fn sample_setup_fault(&self, rng: &mut SimRng) -> bool {
        rng.chance(self.setup_fault_prob)
    }

    /// Time needed to serialise and deliver `bytes` of payload over this
    /// technology, including the fixed base latency.
    pub fn transmission_delay(&self, bytes: usize) -> SimDuration {
        let serialise = (bytes as f64 * 8.0) / self.bitrate_bps;
        self.base_latency + SimDuration::from_secs_f64(serialise)
    }
}

/// The set of profiles in force for a simulation world.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RadioEnvironment {
    /// Profile per technology.
    pub bluetooth: RadioProfile,
    /// Profile per technology.
    pub wlan: RadioProfile,
    /// Profile per technology.
    pub gprs: RadioProfile,
}

impl Default for RadioEnvironment {
    fn default() -> Self {
        RadioEnvironment {
            bluetooth: RadioProfile::bluetooth(),
            wlan: RadioProfile::wlan(),
            gprs: RadioProfile::gprs(),
        }
    }
}

impl RadioEnvironment {
    /// Returns the profile for the requested technology.
    pub fn profile(&self, tech: RadioTech) -> &RadioProfile {
        match tech {
            RadioTech::Bluetooth => &self.bluetooth,
            RadioTech::Wlan => &self.wlan,
            RadioTech::Gprs => &self.gprs,
        }
    }

    /// Mutable access to the profile for the requested technology.
    pub fn profile_mut(&mut self, tech: RadioTech) -> &mut RadioProfile {
        match tech {
            RadioTech::Bluetooth => &mut self.bluetooth,
            RadioTech::Wlan => &mut self.wlan,
            RadioTech::Gprs => &mut self.gprs,
        }
    }

    /// The spatial index's cell side when a world's config names none: the
    /// smallest positive finite range, so a range query covers a handful of
    /// cells, and 50 m when every technology has infrastructure coverage.
    pub(crate) fn default_grid_cell_m(&self) -> f64 {
        let min_range = RadioTech::ALL
            .iter()
            .filter_map(|tech| self.profile(*tech).range_m)
            .filter(|range| range.is_finite() && *range > 0.0)
            .fold(f64::INFINITY, f64::min);
        if min_range.is_finite() {
            min_range
        } else {
            50.0
        }
    }

    /// An environment where all radio setup is instantaneous and fault-free.
    /// Useful for tests that exercise middleware logic rather than radio
    /// behaviour.
    pub fn ideal() -> Self {
        let mut env = RadioEnvironment::default();
        for tech in RadioTech::ALL {
            let p = env.profile_mut(tech);
            p.setup_min_s = 0.01;
            p.setup_max_s = 0.02;
            p.setup_fault_prob = 0.0;
            p.inquiry_miss_prob = 0.0;
            p.inquiry_asymmetric = false;
            p.quality_noise_std = 0.0;
        }
        env
    }
}

/// A set of radio technologies, one bit per [`RadioTech::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct TechSet(u8);

impl TechSet {
    pub(crate) fn of(techs: &[RadioTech]) -> Self {
        TechSet(techs.iter().fold(0, |bits, t| bits | 1 << t.index()))
    }

    pub(crate) fn contains(self, tech: RadioTech) -> bool {
        self.0 & (1 << tech.index()) != 0
    }

    /// Adds `tech`; true if it was not in the set before.
    pub(crate) fn insert(&mut self, tech: RadioTech) -> bool {
        let added = !self.contains(tech);
        self.0 |= 1 << tech.index();
        added
    }

    /// Removes `tech`; true if it was in the set.
    pub(crate) fn remove(&mut self, tech: RadioTech) -> bool {
        let removed = self.contains(tech);
        self.0 &= !(1 << tech.index());
        removed
    }
}

/// The dynamic radio-side state of one node: what other nodes can observe of
/// it. Both engines keep one per node; the sharded engine also publishes it
/// as the node's window-start snapshot, which is why it stays `Copy` and
/// comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RadioState {
    pub(crate) alive: bool,
    /// Technologies the node carries (fixed at creation).
    pub(crate) techs: TechSet,
    /// Technologies the agent answers inquiries on.
    pub(crate) discoverable: TechSet,
    /// Radios a fault has forced dark (airplane mode), whatever
    /// discoverability the agent chose.
    pub(crate) radio_off: TechSet,
    /// End of the node's own running scan per technology;
    /// [`SimTime::ZERO`] when it is not scanning.
    pub(crate) inquiring_until: [SimTime; 3],
}

impl RadioState {
    /// A powered-on node carrying `techs`, discoverable on all of them.
    pub(crate) fn new(techs: &[RadioTech]) -> Self {
        let techs = TechSet::of(techs);
        RadioState {
            alive: true,
            techs,
            discoverable: techs,
            radio_off: TechSet::default(),
            inquiring_until: [SimTime::ZERO; 3],
        }
    }

    /// The node crashes. What it chose and what it was scanning for stay
    /// until [`RadioState::power_on`]: nothing reads them of a dead node.
    pub(crate) fn power_off(&mut self) {
        self.alive = false;
    }

    /// The node restarts with a fresh node's discoverability and no scan
    /// running; radio outages in force are kept (the fault schedule, not the
    /// reboot, ends them).
    pub(crate) fn power_on(&mut self) {
        self.alive = true;
        self.discoverable = self.techs;
        self.inquiring_until = [SimTime::ZERO; 3];
    }

    /// True when the node is alive, carries `tech`, and the radio is not
    /// forced dark — it can communicate over that technology right now.
    pub(crate) fn enabled(&self, tech: RadioTech) -> bool {
        self.alive && self.techs.contains(tech) && !self.radio_off.contains(tech)
    }

    /// True if the node would answer an inquiry on `tech` at `now`: enabled
    /// and discoverable on the radio, and not itself mid-scan when the
    /// technology's inquiries are asymmetric (§3.4.2).
    pub(crate) fn answers_inquiry(&self, tech: RadioTech, profile: &RadioProfile, now: SimTime) -> bool {
        self.enabled(tech)
            && self.discoverable.contains(tech)
            && !(profile.inquiry_asymmetric && self.inquiring_until[tech.index()] > now)
    }

    /// The agent's choice whether to answer inquiries on `tech`. A
    /// technology the node does not carry cannot be turned on.
    pub(crate) fn set_discoverable(&mut self, tech: RadioTech, on: bool) {
        if !on {
            self.discoverable.remove(tech);
        } else if self.techs.contains(tech) {
            self.discoverable.insert(tech);
        }
    }

    /// The node starts (or extends) a scan on `tech` that ends at `until`.
    pub(crate) fn begin_inquiry(&mut self, tech: RadioTech, until: SimTime) {
        let slot = &mut self.inquiring_until[tech.index()];
        *slot = (*slot).max(until);
    }

    /// A scan on `tech` completed at `now`: unless a later scan is still
    /// running, the node stops being mid-scan.
    pub(crate) fn end_inquiry(&mut self, tech: RadioTech, now: SimTime) {
        let slot = &mut self.inquiring_until[tech.index()];
        if *slot <= now {
            *slot = SimTime::ZERO;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profiles_match_their_tech() {
        for tech in RadioTech::ALL {
            assert_eq!(RadioEnvironment::default().profile(tech).tech, tech);
        }
    }

    #[test]
    fn bluetooth_range_and_quality_shape() {
        let bt = RadioProfile::bluetooth();
        assert!(bt.in_range(5.0));
        assert!(!bt.in_range(10.5));
        assert_eq!(bt.quality_at_distance(0.0), Some(QUALITY_MAX));
        assert_eq!(bt.quality_at_distance(1.0), Some(QUALITY_MAX));
        let mid = bt.quality_at_distance(6.0).unwrap();
        let edge = bt.quality_at_distance(10.0).unwrap();
        assert!(mid < QUALITY_MAX && mid > edge, "mid {mid}, edge {edge}");
        assert_eq!(edge, bt.quality_at_edge);
        assert_eq!(bt.quality_at_distance(12.0), None);
    }

    #[test]
    fn quality_monotonically_decreases_with_distance() {
        let bt = RadioProfile::bluetooth();
        let mut prev = u8::MAX;
        for step in 0..=100 {
            let d = step as f64 * 0.1;
            let q = bt.quality_at_distance(d).unwrap();
            assert!(q <= prev, "quality increased at {d}");
            prev = q;
        }
    }

    #[test]
    fn gprs_is_infrastructure() {
        let g = RadioProfile::gprs();
        assert!(g.in_range(5_000.0));
        assert_eq!(g.quality_at_distance(5_000.0), Some(QUALITY_MAX));
    }

    #[test]
    fn setup_latency_matches_paper_bounds() {
        // §4.3: a bridge connection (two sequential setups) took 3-18 s, so a
        // single Bluetooth setup must sit within 1.5-9 s.
        let bt = RadioProfile::bluetooth();
        let mut rng = SimRng::new(1);
        for _ in 0..200 {
            let s = bt.sample_setup_latency(&mut rng).as_secs_f64();
            assert!((1.5..=9.0).contains(&s), "setup latency {s}");
        }
    }

    #[test]
    fn fault_rate_gives_roughly_three_in_ten_bridge_failures() {
        // Two independent legs, each with the profile fault probability:
        // P(bridge fails) = 1 - (1-p)^2 ≈ 0.28 for p = 0.15, matching the
        // 3-out-of-10 failures reported in §4.3.
        let bt = RadioProfile::bluetooth();
        let mut rng = SimRng::new(2);
        let trials = 20_000;
        let failures = (0..trials)
            .filter(|_| bt.sample_setup_fault(&mut rng) || bt.sample_setup_fault(&mut rng))
            .count();
        let rate = failures as f64 / trials as f64;
        assert!((0.24..0.33).contains(&rate), "bridge failure rate {rate}");
    }

    #[test]
    fn transmission_delay_scales_with_size() {
        let bt = RadioProfile::bluetooth();
        let small = bt.transmission_delay(100);
        let large = bt.transmission_delay(100_000);
        assert!(large > small);
        // 100 kB at 700 kbit/s is a bit over a second.
        assert!(large.as_secs_f64() > 1.0 && large.as_secs_f64() < 2.5);
    }

    #[test]
    fn sample_quality_noise_stays_in_scale() {
        let bt = RadioProfile::bluetooth();
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let q = bt.sample_quality(9.5, &mut rng).unwrap();
            assert!(q >= 150, "unreasonably low sample {q}");
        }
    }

    #[test]
    fn sample_inquiry_draws_what_both_engines_inlined_loops_drew() {
        // Constants from the parent commit, where `World::complete_inquiry`
        // and the sharded executor each spelled the loop out: per candidate
        // one miss draw, then one quality draw if it was not missed.
        let bt = RadioProfile {
            inquiry_miss_prob: 0.3,
            ..RadioProfile::bluetooth()
        };
        let candidates = (0..12u64).map(|i| (NodeId::from_raw(3 + 2 * i), 10.0 * i as f64 / 11.0));
        let mut rng = SimRng::new(0xD1C);
        let hits = bt.sample_inquiry(candidates, &mut rng);
        assert!(hits.iter().all(|hit| hit.tech == RadioTech::Bluetooth));
        let seen: Vec<(u64, u8)> = hits.iter().map(|hit| (hit.node.as_raw(), hit.quality)).collect();
        let parent = [
            (5, 252),
            (7, 255),
            (9, 254),
            (17, 232),
            (19, 220),
            (21, 208),
            (23, 188),
            (25, 171),
        ];
        assert_eq!(seen, parent);
        assert_eq!(
            rng.next_u64(),
            0xf922_7e48_592a_c015,
            "the stream is where the loops left it"
        );
    }

    #[test]
    fn ideal_environment_is_fault_free() {
        let env = RadioEnvironment::ideal();
        for tech in RadioTech::ALL {
            let p = env.profile(tech);
            assert_eq!(p.setup_fault_prob, 0.0);
            assert_eq!(p.inquiry_miss_prob, 0.0);
            assert!(!p.inquiry_asymmetric);
        }
    }

    #[test]
    fn short_names() {
        assert_eq!(RadioTech::Bluetooth.short_name(), "bt");
        assert_eq!(RadioTech::Wlan.to_string(), "wlan");
        assert_eq!(RadioTech::Gprs.to_string(), "gprs");
    }

    #[test]
    fn index_is_the_position_in_all_and_the_ord_order() {
        for (i, tech) in RadioTech::ALL.into_iter().enumerate() {
            assert_eq!(tech.index(), i);
        }
        assert!(RadioTech::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn tech_set_insert_and_remove_report_changes() {
        let mut set = TechSet::of(&[]);
        assert_eq!(set, TechSet::default());
        assert!(RadioTech::ALL.iter().all(|t| !set.contains(*t)));
        assert!(set.insert(RadioTech::Wlan));
        assert!(!set.insert(RadioTech::Wlan), "already present");
        assert!(set.contains(RadioTech::Wlan) && !set.contains(RadioTech::Bluetooth));
        assert_eq!(set, TechSet::of(&[RadioTech::Wlan, RadioTech::Wlan]));
        assert!(!set.remove(RadioTech::Gprs), "never present");
        assert!(set.remove(RadioTech::Wlan));
        assert!(!set.remove(RadioTech::Wlan));
        assert_eq!(set, TechSet::default());
    }

    #[test]
    fn radio_state_is_a_small_plain_value() {
        // The sharded engine copies and compares one per node per window.
        assert_eq!(std::mem::size_of::<RadioState>(), 32);
    }

    #[test]
    fn answers_inquiry_truth_table() {
        let bt = RadioTech::Bluetooth;
        let asymmetric = RadioProfile::bluetooth();
        let symmetric = RadioProfile {
            inquiry_asymmetric: false,
            ..RadioProfile::bluetooth()
        };
        let now = SimTime::from_secs(10);
        let base = RadioState::new(&[bt]);
        assert!(base.enabled(bt) && base.answers_inquiry(bt, &asymmetric, now));

        let dead = RadioState { alive: false, ..base };
        assert!(!dead.enabled(bt) && !dead.answers_inquiry(bt, &asymmetric, now));

        // Not carried: neither enabled nor answering, whatever else is set.
        assert!(!base.enabled(RadioTech::Wlan));
        assert!(!base.answers_inquiry(RadioTech::Wlan, &RadioProfile::wlan(), now));

        let mut dark = base;
        dark.radio_off.insert(bt);
        assert!(!dark.enabled(bt) && !dark.answers_inquiry(bt, &asymmetric, now));

        // Hidden: can still communicate, just does not answer scans.
        let mut hidden = base;
        hidden.set_discoverable(bt, false);
        assert!(hidden.enabled(bt) && !hidden.answers_inquiry(bt, &asymmetric, now));
        hidden.set_discoverable(bt, true);
        hidden.set_discoverable(RadioTech::Wlan, true);
        assert_eq!(hidden, base, "back on; a radio the node lacks cannot be turned on");

        let mut scanning = base;
        scanning.begin_inquiry(bt, now + SimDuration::from_secs(1));
        assert!(scanning.enabled(bt));
        assert!(!scanning.answers_inquiry(bt, &asymmetric, now), "mid-scan, asymmetric");
        assert!(scanning.answers_inquiry(bt, &symmetric, now), "mid-scan, symmetric");

        // A scan that ends exactly at `now` no longer hides the node.
        let mut ending = base;
        ending.begin_inquiry(bt, now);
        assert!(ending.answers_inquiry(bt, &asymmetric, now));
    }

    #[test]
    fn overlapping_scans_end_with_the_later_one() {
        let bt = RadioTech::Bluetooth;
        let (early, late) = (SimTime::from_secs(5), SimTime::from_secs(8));
        let mut state = RadioState::new(&[bt]);
        state.begin_inquiry(bt, late);
        state.begin_inquiry(bt, early);
        assert_eq!(
            state.inquiring_until[bt.index()],
            late,
            "a shorter scan never shortens a running one"
        );
        state.end_inquiry(bt, early);
        assert_eq!(
            state.inquiring_until[bt.index()],
            late,
            "the later scan is still running"
        );
        state.end_inquiry(bt, late);
        assert_eq!(state.inquiring_until[bt.index()], SimTime::ZERO);
    }
}
