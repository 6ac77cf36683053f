//! `peerhood::resilience` — circuit breakers, backpressure and admission
//! control on the PeerHood data path.
//!
//! The thesis' middleware trusts every peer and accepts every connection,
//! which degrades ungracefully under overload (see the E13/E14 fault
//! experiments). This module adds an ordered, per-node middleware pipeline
//! interposed on the data path, switched on as a whole by the
//! [`ResilienceConfig`] in
//! [`PeerHoodConfig::resilience`](crate::config::PeerHoodConfig::resilience)
//! and tuned by the constants below:
//!
//! 1. **per-peer circuit breakers** — Closed/Open/HalfOpen state machines,
//!    one in each peer's row of the [`PeerTable`], tripped by connect
//!    failures, peer crashes and flapping (repeated link breaks within a
//!    window), with deterministic virtual-clock cooldowns and half-open
//!    probes, gating the node's own dials (application connects, service
//!    reconnections, daemon fetches, reply reconnects and handover legs); a
//!    relay's downstream leg is not gated, though its failures still count,
//! 2. **bounded per-app inbound/outbound rate limits with explicit
//!    shedding** — token buckets plus a cap on the §5.3 result-routing
//!    outbox; shed work is surfaced as
//!    [`PeerHoodError::Overloaded`](crate::error::PeerHoodError::Overloaded)
//!    or a typed [`Shed`](crate::node::PeerHoodEvent::Shed) event to the
//!    owning app, never dropped silently,
//! 3. **admission control** on incoming radio connections — a per-node
//!    concurrent-session cap and a per-peer accept-rate cap, whose log of
//!    recent accepts is the peer row's admission column; rejected
//!    attempts are answered at the radio layer (the dialer sees
//!    `ConnectError::Rejected`) before any middleware state is allocated,
//!    and hot neighbours re-asking for inquiry responses are already served
//!    from the generation-keyed cached frame.
//!
//! Every decision is a pure function of the virtual clock and the observed
//! event stream — the pipeline draws **no randomness**, and switched off
//! (the default) it is behaviourally invisible, preserving byte-identical
//! reports for all existing experiments. There is no per-layer switch: no
//! caller ever turned one layer on without the others.
//!
//! Layers 1 and 3 keep no state of their own: their gates are handed the
//! node's [`PeerTable`] (owned by [`Security`](crate::security::Security))
//! and insert a row only when the pipeline is on.
//!
//! A [`ResilienceStats`] snapshot (per-layer trips, sheds, admits/rejects,
//! breaker states) is exported per node through
//! [`PeerHoodNode::resilience_stats`](crate::node::PeerHoodNode::resilience_stats).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use simnet::table::IdTable;
use simnet::{SimDuration, SimTime, Telemetry};

use crate::ids::DeviceAddress;
use crate::node::AppId;
use crate::security::{Peer, PeerTable};

/// Consecutive dial failures (connect refused/failed, peer crashed) that trip
/// a Closed breaker open.
pub const FAILURE_THRESHOLD: u32 = 3;
/// Link breaks towards one peer within [`FLAP_WINDOW`] that trip the breaker
/// (the flapping-neighbour detector).
pub const FLAP_THRESHOLD: usize = 3;
/// Sliding window for flap counting.
pub const FLAP_WINDOW: SimDuration = SimDuration::from_secs(60);
/// How long an Open breaker blocks dials before admitting a half-open probe.
pub const COOLDOWN: SimDuration = SimDuration::from_secs(30);
/// Successful dials a HalfOpen breaker requires before closing again.
pub const PROBE_SUCCESSES: u32 = 1;

/// Sustained inbound payload rate per app (payloads/second).
pub const INBOUND_RATE: u32 = 50;
/// Inbound burst size (bucket capacity).
pub const INBOUND_BURST: u32 = 100;
/// Sustained outbound send rate per app (payloads/second).
pub const OUTBOUND_RATE: u32 = 50;
/// Outbound burst size (bucket capacity).
pub const OUTBOUND_BURST: u32 = 100;
/// Cap on the §5.3 result-routing outbox of one connection; further queued
/// results are shed with an explicit error.
pub const OUTBOX_CAP: usize = 64;

/// Maximum concurrent incoming sessions (established incoming app
/// connections plus not-yet-identified accepted links).
pub const MAX_SESSIONS: usize = 48;
/// Accepted connections per peer within [`PER_PEER_WINDOW`].
pub const PER_PEER_RATE: usize = 6;
/// Sliding window for the per-peer accept-rate cap.
pub const PER_PEER_WINDOW: SimDuration = SimDuration::from_secs(10);

/// The resilience pipeline's one switch: all three layers (circuit
/// breakers, backpressure, admission control) run, tuned by the constants
/// of this module, or none does. The default is off, making the pipeline
/// behaviourally invisible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Whether the pipeline runs.
    pub enabled: bool,
}

impl ResilienceConfig {
    /// Every layer enabled.
    pub fn all_on() -> Self {
        ResilienceConfig { enabled: true }
    }
}

/// State of one per-peer circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Dials flow; failures are counted.
    Closed,
    /// Dials are refused locally until the cooldown elapses.
    Open,
    /// The cooldown elapsed; probe dials are admitted and decide the fate.
    HalfOpen,
}

/// One per-peer Closed→Open→HalfOpen state machine. All transitions are
/// driven by the deterministic virtual clock; no randomness is involved.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    breaks: VecDeque<SimTime>,
    opened_at: SimTime,
    probe_successes: u32,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            breaks: VecDeque::new(),
            opened_at: SimTime::ZERO,
            probe_successes: 0,
        }
    }
}

impl CircuitBreaker {
    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    fn trip(&mut self, now: SimTime) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.consecutive_failures = 0;
        self.probe_successes = 0;
    }

    /// Link breaks booked within the flap window, as of the latest one.
    #[cfg(test)]
    pub(crate) fn breaks(&self) -> usize {
        self.breaks.len()
    }

    /// Gate for one outgoing dial. An Open breaker past its cooldown moves
    /// to HalfOpen and admits the dial as a probe; returns whether the dial
    /// may proceed.
    pub fn allow(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now.saturating_since(self.opened_at) >= COOLDOWN {
                    self.state = BreakerState::HalfOpen;
                    self.probe_successes = 0;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful dial (link established to the peer).
    pub fn record_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.probe_successes += 1;
                if self.probe_successes >= PROBE_SUCCESSES {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                    self.breaks.clear();
                }
            }
            BreakerState::Open => {}
        }
    }

    /// Records a dial failure (or a peer crash). Returns true when this
    /// failure tripped the breaker open.
    pub fn record_failure(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::HalfOpen => {
                // The probe failed: straight back to Open, cooldown restarts.
                self.trip(now);
                true
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= FAILURE_THRESHOLD {
                    self.trip(now);
                    true
                } else {
                    false
                }
            }
            BreakerState::Open => false,
        }
    }

    /// Records a link break towards the peer (the flap detector). Returns
    /// true when the break tripped the breaker.
    pub fn record_break(&mut self, now: SimTime) -> bool {
        slide(&mut self.breaks, now, FLAP_WINDOW);
        self.breaks.push_back(now);
        match self.state {
            BreakerState::HalfOpen => {
                // The probe's link broke under it.
                self.trip(now);
                true
            }
            BreakerState::Closed if self.breaks.len() >= FLAP_THRESHOLD => {
                self.trip(now);
                true
            }
            _ => false,
        }
    }
}

/// Drops the instants of an oldest-first log that lie more than `window`
/// before `now`: the one rule of both sliding windows, the flap log and the
/// admission log.
fn slide(log: &mut VecDeque<SimTime>, now: SimTime, window: SimDuration) {
    while log.front().is_some_and(|first| now.saturating_since(*first) > window) {
        log.pop_front();
    }
}

const MICRO_TOKEN: u64 = 1_000_000;

/// Deterministic integer token bucket: one token = [`MICRO_TOKEN`]
/// micro-tokens, refilled linearly from the virtual clock.
#[derive(Debug, Clone)]
struct TokenBucket {
    rate_per_sec: u64,
    burst: u64,
    micro: u64,
    last: SimTime,
}

impl TokenBucket {
    fn new(rate_per_sec: u32, burst: u32, now: SimTime) -> Self {
        TokenBucket {
            rate_per_sec: rate_per_sec as u64,
            burst: (burst.max(1)) as u64,
            micro: (burst.max(1)) as u64 * MICRO_TOKEN,
            last: now,
        }
    }

    fn try_take(&mut self, now: SimTime) -> bool {
        let elapsed = now.saturating_since(self.last).as_micros();
        self.last = now;
        self.micro = self
            .micro
            .saturating_add(elapsed.saturating_mul(self.rate_per_sec))
            .min(self.burst * MICRO_TOKEN);
        if self.micro >= MICRO_TOKEN {
            self.micro -= MICRO_TOKEN;
            true
        } else {
            false
        }
    }
}

/// Point-in-time snapshot of the pipeline's per-layer counters and breaker
/// population, exported per node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Times any breaker transitioned to Open.
    pub breaker_trips: u64,
    /// Outgoing dials refused locally by an Open breaker.
    pub breaker_blocked: u64,
    /// Half-open probe dials admitted.
    pub breaker_probes: u64,
    /// Breakers currently Open.
    pub breakers_open: usize,
    /// Breakers currently HalfOpen.
    pub breakers_half_open: usize,
    /// Inbound payloads shed by the per-app token bucket.
    pub inbound_shed: u64,
    /// Outbound sends shed by the per-app token bucket.
    pub outbound_shed: u64,
    /// Results shed by the outbox queue cap.
    pub queue_shed: u64,
    /// Incoming connections admitted by the admission layer.
    pub admitted: u64,
    /// Incoming connections rejected by the concurrent-session cap.
    pub rejected_sessions: u64,
    /// Incoming connections rejected by the per-peer rate cap.
    pub rejected_rate: u64,
    /// Inquiry responses served from the generation-keyed cached frame.
    pub inquiries_cached: u64,
    /// Inquiry responses that required a fresh encode.
    pub inquiries_encoded: u64,
}

impl ResilienceStats {
    /// Adds another snapshot into this one; breaker populations and counters
    /// all sum, so a fleet-wide roll-up is a plain fold.
    pub fn absorb(&mut self, other: &ResilienceStats) {
        self.breaker_trips += other.breaker_trips;
        self.breaker_blocked += other.breaker_blocked;
        self.breaker_probes += other.breaker_probes;
        self.breakers_open += other.breakers_open;
        self.breakers_half_open += other.breakers_half_open;
        self.inbound_shed += other.inbound_shed;
        self.outbound_shed += other.outbound_shed;
        self.queue_shed += other.queue_shed;
        self.admitted += other.admitted;
        self.rejected_sessions += other.rejected_sessions;
        self.rejected_rate += other.rejected_rate;
        self.inquiries_cached += other.inquiries_cached;
        self.inquiries_encoded += other.inquiries_encoded;
    }

    /// Mirrors the snapshot into the telemetry plane under the `resilience`
    /// subsystem: monotonic tallies as counters, the live breaker population
    /// as gauges.
    pub fn export(&self, tel: &mut Telemetry) {
        tel.set_counter("resilience", "breaker_trips", None, self.breaker_trips);
        tel.set_counter("resilience", "breaker_blocked", None, self.breaker_blocked);
        tel.set_counter("resilience", "breaker_probes", None, self.breaker_probes);
        tel.set_gauge("resilience", "breakers_open", None, self.breakers_open as f64);
        tel.set_gauge("resilience", "breakers_half_open", None, self.breakers_half_open as f64);
        tel.set_counter("resilience", "inbound_shed", None, self.inbound_shed);
        tel.set_counter("resilience", "outbound_shed", None, self.outbound_shed);
        tel.set_counter("resilience", "queue_shed", None, self.queue_shed);
        tel.set_counter("resilience", "admitted", None, self.admitted);
        tel.set_counter("resilience", "rejected_sessions", None, self.rejected_sessions);
        tel.set_counter("resilience", "rejected_rate", None, self.rejected_rate);
        tel.set_counter("resilience", "inquiries_cached", None, self.inquiries_cached);
        tel.set_counter("resilience", "inquiries_encoded", None, self.inquiries_encoded);
    }
}

/// Runtime state of one node's resilience pipeline. Owned by the middleware
/// core; every data-path hook funnels through the methods here, and each
/// method is a no-op returning "allow" when the pipeline is off. The
/// per-peer layers read and write the [`PeerTable`] they are handed.
#[derive(Debug, Clone)]
pub struct Resilience {
    cfg: ResilienceConfig,
    inbound: IdTable<Option<AppId>, TokenBucket>,
    outbound: IdTable<Option<AppId>, TokenBucket>,
    /// The monotonic tallies; the two breaker-population fields stay zero
    /// here and are counted by [`Resilience::stats`].
    counters: ResilienceStats,
}

/// The breaker towards `peer`, its row created on first use.
fn breaker(peers: &mut PeerTable, peer: DeviceAddress) -> &mut CircuitBreaker {
    &mut peers.get_or_insert_with(peer, Peer::default).breaker
}

impl Resilience {
    /// Builds the pipeline from its configuration.
    pub fn new(cfg: ResilienceConfig) -> Self {
        Resilience {
            cfg,
            inbound: IdTable::default(),
            outbound: IdTable::default(),
            counters: ResilienceStats::default(),
        }
    }

    // ------------------------------------------------------------------
    // Layer 1: per-peer circuit breakers
    // ------------------------------------------------------------------

    /// Gate for one outgoing dial towards `peer` (the first physical hop).
    /// The node asks here in `Core::dial` before every dial of its own —
    /// daemon fetches, reply reconnects, handover legs, service
    /// reconnections — and in `op_connect_to` before it allocates a
    /// connection id. A relay's downstream leg does not ask.
    pub fn allow_dial(&mut self, peers: &mut PeerTable, peer: DeviceAddress, now: SimTime) -> bool {
        if !self.cfg.enabled {
            return true;
        }
        let breaker = breaker(peers, peer);
        let was_open = breaker.state() == BreakerState::Open;
        let ok = breaker.allow(now);
        if ok {
            if was_open {
                self.counters.breaker_probes += 1;
            }
        } else {
            self.counters.breaker_blocked += 1;
        }
        ok
    }

    /// Records a successful dial (radio link established towards `peer`).
    /// Creates no row: a success leaves a new breaker as it was.
    pub fn record_dial_success(&self, peers: &mut PeerTable, peer: DeviceAddress) {
        if !self.cfg.enabled {
            return;
        }
        if let Some(row) = peers.get_mut(&peer) {
            row.breaker.record_success();
        }
    }

    /// Records a failed dial (connect refused/failed) or a peer crash.
    pub fn record_dial_failure(&mut self, peers: &mut PeerTable, peer: DeviceAddress, now: SimTime) {
        if !self.cfg.enabled {
            return;
        }
        if breaker(peers, peer).record_failure(now) {
            self.counters.breaker_trips += 1;
        }
    }

    /// Records a link break towards `peer` (flap counting).
    pub fn record_link_break(&mut self, peers: &mut PeerTable, peer: DeviceAddress, now: SimTime) {
        if !self.cfg.enabled {
            return;
        }
        if breaker(peers, peer).record_break(now) {
            self.counters.breaker_trips += 1;
        }
    }

    // ------------------------------------------------------------------
    // Layer 2: per-app backpressure
    // ------------------------------------------------------------------

    /// Gate for one outbound application send by `app`.
    pub fn allow_outbound(&mut self, app: Option<AppId>, now: SimTime) -> bool {
        if !self.cfg.enabled {
            return true;
        }
        let ok = self
            .outbound
            .get_or_insert_with(app, || TokenBucket::new(OUTBOUND_RATE, OUTBOUND_BURST, now))
            .try_take(now);
        if !ok {
            self.counters.outbound_shed += 1;
        }
        ok
    }

    /// Gate for one inbound payload delivered to `app`.
    pub fn allow_inbound(&mut self, app: Option<AppId>, now: SimTime) -> bool {
        if !self.cfg.enabled {
            return true;
        }
        let ok = self
            .inbound
            .get_or_insert_with(app, || TokenBucket::new(INBOUND_RATE, INBOUND_BURST, now))
            .try_take(now);
        if !ok {
            self.counters.inbound_shed += 1;
        }
        ok
    }

    /// The outbox queue cap, when the pipeline is on.
    pub fn outbox_cap(&self) -> Option<usize> {
        self.cfg.enabled.then_some(OUTBOX_CAP)
    }

    /// Counts one result shed by the outbox cap.
    pub fn note_queue_shed(&mut self) {
        self.counters.queue_shed += 1;
    }

    // ------------------------------------------------------------------
    // Layer 3: admission control
    // ------------------------------------------------------------------

    /// Gate for one incoming radio connection from `peer`.
    /// `active_sessions` is the caller-computed concurrent incoming-session
    /// count (established incoming connections plus unidentified links).
    pub fn admit(&mut self, peers: &mut PeerTable, peer: DeviceAddress, now: SimTime, active_sessions: usize) -> bool {
        if !self.cfg.enabled {
            return true;
        }
        if active_sessions >= MAX_SESSIONS {
            self.counters.rejected_sessions += 1;
            return false;
        }
        let recent = &mut peers.get_or_insert_with(peer, Peer::default).admits;
        slide(recent, now, PER_PEER_WINDOW);
        if recent.len() >= PER_PEER_RATE {
            self.counters.rejected_rate += 1;
            return false;
        }
        recent.push_back(now);
        self.counters.admitted += 1;
        true
    }

    // ------------------------------------------------------------------
    // Layer 4: observability
    // ------------------------------------------------------------------

    /// Counts one inquiry response, served from the cached frame or freshly
    /// encoded (pure accounting; the cache itself lives in the wire layer).
    pub fn note_inquiry_served(&mut self, cached: bool) {
        if cached {
            self.counters.inquiries_cached += 1;
        } else {
            self.counters.inquiries_encoded += 1;
        }
    }

    /// Point-in-time snapshot of every per-layer counter plus the live
    /// breaker population of `peers`.
    pub fn stats(&self, peers: &PeerTable) -> ResilienceStats {
        let population = |state| peers.values().filter(|row| row.breaker.state() == state).count();
        ResilienceStats {
            breakers_open: population(BreakerState::Open),
            breakers_half_open: population(BreakerState::HalfOpen),
            ..self.counters.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    /// The state of the breaker in `peer`'s row, if it has a row.
    fn breaker_state(peers: &PeerTable, peer: DeviceAddress) -> Option<BreakerState> {
        peers.get(&peer).map(|row| row.breaker.state())
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_and_recovers_via_probe() {
        let mut b = CircuitBreaker::default();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.record_failure(t(1)));
        assert!(!b.record_failure(t(2)));
        // Third consecutive failure trips Closed → Open.
        assert!(b.record_failure(t(3)));
        assert_eq!(b.state(), BreakerState::Open);
        // Blocked while the cooldown runs.
        assert!(!b.allow(t(4)));
        assert!(!b.allow(t(32)));
        // Cooldown edge: exactly 30 s after the trip the probe is admitted.
        assert!(b.allow(t(33)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Probe success closes the breaker and resets the failure count.
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.record_failure(t(40)));
    }

    #[test]
    fn probe_failure_retrips_and_restarts_the_cooldown() {
        let mut b = CircuitBreaker::default();
        for s in 0..3 {
            b.record_failure(t(s));
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(t(40)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // The probe fails: straight back to Open, new cooldown from t=40.
        assert!(b.record_failure(t(40)));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(t(69)));
        assert!(b.allow(t(70)));
    }

    #[test]
    fn success_resets_the_consecutive_failure_count() {
        let mut b = CircuitBreaker::default();
        b.record_failure(t(1));
        b.record_failure(t(2));
        b.record_success();
        // The streak restarted: two more failures do not trip.
        assert!(!b.record_failure(t(3)));
        assert!(!b.record_failure(t(4)));
        assert!(b.record_failure(t(5)));
    }

    #[test]
    fn flapping_breaks_inside_the_window_trip_the_breaker() {
        let mut b = CircuitBreaker::default();
        assert!(!b.record_break(t(10)));
        assert!(!b.record_break(t(30)));
        // Third break within the 60 s window trips.
        assert!(b.record_break(t(50)));
        assert_eq!(b.state(), BreakerState::Open);

        // Spread outside the window: never trips.
        let mut slow = CircuitBreaker::default();
        assert!(!slow.record_break(t(0)));
        assert!(!slow.record_break(t(100)));
        assert!(!slow.record_break(t(200)));
        assert_eq!(slow.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_break_retrips() {
        let mut b = CircuitBreaker::default();
        for s in 0..3 {
            b.record_failure(t(s));
        }
        assert!(b.allow(t(60)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.record_break(t(61)));
        assert_eq!(b.state(), BreakerState::Open);
    }

    /// Both sliding windows keep an instant exactly one window old and drop
    /// it a microsecond later.
    #[test]
    fn both_windows_keep_an_instant_exactly_a_window_old() {
        let after = |at: SimTime| at + SimDuration::from_micros(1);
        let mut b = CircuitBreaker::default();
        b.record_break(t(0));
        b.record_break(t(30));
        assert!(b.record_break(t(60)), "the break at 0 s still counts at 60 s");
        let mut late = CircuitBreaker::default();
        late.record_break(t(0));
        late.record_break(t(30));
        assert!(!late.record_break(after(t(60))));

        let mut r = Resilience::new(ResilienceConfig::all_on());
        let mut peers = PeerTable::default();
        let peer = DeviceAddress::from_node_raw(5);
        for _ in 0..PER_PEER_RATE {
            assert!(r.admit(&mut peers, peer, t(0), 0));
        }
        assert!(
            !r.admit(&mut peers, peer, t(10), 0),
            "the accepts at 0 s still count at 10 s"
        );
        assert!(r.admit(&mut peers, peer, after(t(10)), 0));
    }

    #[test]
    fn token_bucket_refills_linearly_and_caps_at_burst() {
        let mut bucket = TokenBucket::new(2, 4, t(0));
        // Starts full: the whole burst drains immediately.
        for _ in 0..4 {
            assert!(bucket.try_take(t(0)));
        }
        assert!(!bucket.try_take(t(0)));
        // 2 tokens/s: after 500 ms exactly one token is back.
        let half = SimTime::ZERO + SimDuration::from_millis(500);
        assert!(bucket.try_take(half));
        assert!(!bucket.try_take(half));
        // A long idle refills to the burst cap, not beyond.
        for _ in 0..4 {
            assert!(bucket.try_take(t(100)));
        }
        assert!(!bucket.try_take(t(100)));
    }

    /// The default switch leaves all three layers inert past every cap: more
    /// dial failures than `FAILURE_THRESHOLD`, more sends than either burst,
    /// more sessions than `MAX_SESSIONS` and more accepts than
    /// `PER_PEER_RATE` all pass, and no counter moves.
    #[test]
    fn disabled_layers_allow_everything_and_count_nothing() {
        let mut r = Resilience::new(ResilienceConfig::default());
        let mut peers = PeerTable::default();
        let peer = DeviceAddress::from_node_raw(7);
        for _ in 0..=FAILURE_THRESHOLD {
            r.record_dial_failure(&mut peers, peer, t(0));
            r.record_link_break(&mut peers, peer, t(0));
        }
        assert!(r.allow_dial(&mut peers, peer, t(0)));
        for _ in 0..=OUTBOUND_BURST.max(INBOUND_BURST) {
            assert!(r.allow_outbound(None, t(0)));
            assert!(r.allow_inbound(None, t(0)));
        }
        for _ in 0..=PER_PEER_RATE {
            assert!(r.admit(&mut peers, peer, t(0), MAX_SESSIONS + 1));
        }
        assert!(peers.is_empty(), "a switched-off pipeline created a row");
        assert_eq!(r.outbox_cap(), None);
        assert_eq!(r.stats(&peers), ResilienceStats::default());
    }

    #[test]
    fn pipeline_counters_track_each_layer() {
        let mut r = Resilience::new(ResilienceConfig::all_on());
        let mut peers = PeerTable::default();
        let peer = DeviceAddress::from_node_raw(9);
        for s in 0..3 {
            r.record_dial_failure(&mut peers, peer, t(s));
        }
        assert_eq!(breaker_state(&peers, peer), Some(BreakerState::Open));
        assert!(!r.allow_dial(&mut peers, peer, t(4)));
        let stats = r.stats(&peers);
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(stats.breaker_blocked, 1);
        assert_eq!(stats.breakers_open, 1);
        // Cooldown over: the next dial is a counted probe.
        assert!(r.allow_dial(&mut peers, peer, t(40)));
        assert_eq!(r.stats(&peers).breaker_probes, 1);
        assert_eq!(r.stats(&peers).breakers_half_open, 1);
        r.record_dial_success(&mut peers, peer);
        assert_eq!(breaker_state(&peers, peer), Some(BreakerState::Closed));
    }

    #[test]
    fn admission_enforces_session_and_rate_caps() {
        let mut r = Resilience::new(ResilienceConfig::all_on());
        let mut peers = PeerTable::default();
        let peer = DeviceAddress::from_node_raw(3);
        // Session cap: one below MAX_SESSIONS is admitted, at it is not.
        assert!(r.admit(&mut peers, peer, t(0), MAX_SESSIONS - 1));
        assert!(!r.admit(&mut peers, peer, t(0), MAX_SESSIONS));
        assert_eq!(r.stats(&peers).rejected_sessions, 1);
        // Per-peer rate cap inside the window...
        for _ in 1..PER_PEER_RATE {
            assert!(r.admit(&mut peers, peer, t(1), 0));
        }
        assert!(!r.admit(&mut peers, peer, t(2), 0));
        assert_eq!(r.stats(&peers).rejected_rate, 1);
        // ...which is per peer...
        assert!(r.admit(&mut peers, DeviceAddress::from_node_raw(4), t(2), 0));
        // ...and recovers once the window slides past.
        assert!(r.admit(&mut peers, peer, t(20), 0));
        assert_eq!(r.stats(&peers).admitted, PER_PEER_RATE as u64 + 2);
    }

    #[test]
    fn backpressure_sheds_past_the_burst() {
        let mut r = Resilience::new(ResilienceConfig::all_on());
        let app = Some(AppId(0));
        for _ in 0..OUTBOUND_BURST {
            assert!(r.allow_outbound(app, t(0)));
        }
        assert!(!r.allow_outbound(app, t(0)));
        assert_eq!(r.stats(&PeerTable::default()).outbound_shed, 1);
        assert_eq!(r.outbox_cap(), Some(OUTBOX_CAP));
        // Separate apps have separate buckets, and so do the two directions.
        assert!(r.allow_outbound(Some(AppId(1)), t(0)));
        assert!(r.allow_inbound(app, t(0)));
        // One second later OUTBOUND_RATE tokens are back, no more.
        for _ in 0..OUTBOUND_RATE {
            assert!(r.allow_outbound(app, t(1)));
        }
        assert!(!r.allow_outbound(app, t(1)));
    }
}
