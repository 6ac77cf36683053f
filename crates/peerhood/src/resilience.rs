//! `peerhood::resilience` — circuit breakers, backpressure and admission
//! control on the PeerHood data path.
//!
//! The thesis' middleware trusts every peer and accepts every connection,
//! which degrades ungracefully under overload (see the E13/E14 fault
//! experiments). This module adds an ordered, per-node middleware pipeline
//! interposed on the data path, composed via [`ResilienceConfig`] on the
//! node builder with each layer independently disableable:
//!
//! 1. **per-peer circuit breakers** — Closed/Open/HalfOpen state machines
//!    keyed by [`DeviceAddress`], tripped by connect failures, peer crashes
//!    and flapping (repeated link breaks within a window), with
//!    deterministic virtual-clock cooldowns and half-open probes, gating
//!    every outgoing dial (application connects, daemon fetches, reply
//!    reconnects and handover legs all funnel through the same gate),
//! 2. **bounded per-app inbound/outbound rate limits with explicit
//!    shedding** — token buckets plus a cap on the §5.3 result-routing
//!    outbox; shed work is surfaced as
//!    [`PeerHoodError::Overloaded`](crate::error::PeerHoodError::Overloaded)
//!    or a typed [`Shed`](crate::node::PeerHoodEvent::Shed) event to the
//!    owning app, never dropped silently,
//! 3. **admission control** on incoming radio connections — a per-node
//!    concurrent-session cap and a per-peer accept-rate cap; rejected
//!    attempts are answered at the radio layer (the dialer sees
//!    `ConnectError::Rejected`) before any middleware state is allocated,
//!    and hot neighbours re-asking for inquiry responses are already served
//!    from the generation-keyed cached frame.
//!
//! Every decision is a pure function of the virtual clock and the observed
//! event stream — the pipeline draws **no randomness**, and with every layer
//! disabled (the default) it is behaviourally invisible, preserving
//! byte-identical reports for all existing experiments.
//!
//! A [`ResilienceStats`] snapshot (per-layer trips, sheds, admits/rejects,
//! breaker states) is exported per node through
//! [`PeerHoodNode::resilience_stats`](crate::node::PeerHoodNode::resilience_stats).

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};
use simnet::{SimDuration, SimTime, Telemetry};

use crate::ids::DeviceAddress;
use crate::node::AppId;

/// Circuit-breaker layer tuning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Master switch of the breaker layer.
    pub enabled: bool,
    /// Consecutive dial failures (connect refused/failed, peer crashed) that
    /// trip a Closed breaker open.
    pub failure_threshold: u32,
    /// Link breaks towards one peer within [`BreakerConfig::flap_window`]
    /// that trip the breaker (the flapping-neighbour detector).
    pub flap_threshold: u32,
    /// Sliding window for flap counting.
    pub flap_window: SimDuration,
    /// How long an Open breaker blocks dials before admitting a half-open
    /// probe.
    pub cooldown: SimDuration,
    /// Successful dials a HalfOpen breaker requires before closing again.
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            enabled: false,
            failure_threshold: 3,
            flap_threshold: 3,
            flap_window: SimDuration::from_secs(60),
            cooldown: SimDuration::from_secs(30),
            probe_successes: 1,
        }
    }
}

/// Backpressure layer tuning (per-app token buckets plus queue caps).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackpressureConfig {
    /// Master switch of the backpressure layer.
    pub enabled: bool,
    /// Sustained inbound payload rate per app (payloads/second).
    pub inbound_rate: u32,
    /// Inbound burst size (bucket capacity).
    pub inbound_burst: u32,
    /// Sustained outbound send rate per app (payloads/second).
    pub outbound_rate: u32,
    /// Outbound burst size (bucket capacity).
    pub outbound_burst: u32,
    /// Cap on the §5.3 result-routing outbox of one connection; further
    /// queued results are shed with an explicit error.
    pub outbox_cap: usize,
    /// Master switch of rate adaptation: when set, each bucket learns its
    /// app's typical demand via a windowed EWMA and tightens the admitted
    /// rate to `demand × headroom`, clamped to `[adapt_min_rate, the static
    /// rate]`. The static rate stays a hard ceiling — adaptation only ever
    /// tightens — so a peer or app that suddenly blasts traffic far beyond
    /// its learned envelope is shed early instead of riding the full static
    /// budget. Off by default, and off ⇒ byte-identical to the fixed bucket.
    #[serde(default)]
    pub adaptive: bool,
    /// Observation window of the adaptation law; boundaries are derived from
    /// the virtual clock, so adaptation is fully deterministic.
    #[serde(default = "default_adapt_window")]
    pub adapt_window: SimDuration,
    /// EWMA weight (percent) of the newest window's observed demand.
    #[serde(default = "default_adapt_alpha")]
    pub adapt_alpha_percent: u32,
    /// Slack (percent) granted above the learned demand: the adapted rate is
    /// `ewma_demand × adapt_headroom_percent / 100`.
    #[serde(default = "default_adapt_headroom")]
    pub adapt_headroom_percent: u32,
    /// Floor of the adapted rate, so a freshly idle app is never throttled
    /// to zero and can always ramp back up.
    #[serde(default = "default_adapt_min_rate")]
    pub adapt_min_rate: u32,
}

fn default_adapt_window() -> SimDuration {
    SimDuration::from_secs(5)
}

fn default_adapt_alpha() -> u32 {
    30
}

fn default_adapt_headroom() -> u32 {
    150
}

fn default_adapt_min_rate() -> u32 {
    5
}

impl Default for BackpressureConfig {
    fn default() -> Self {
        BackpressureConfig {
            enabled: false,
            inbound_rate: 50,
            inbound_burst: 100,
            outbound_rate: 50,
            outbound_burst: 100,
            outbox_cap: 64,
            adaptive: false,
            adapt_window: default_adapt_window(),
            adapt_alpha_percent: default_adapt_alpha(),
            adapt_headroom_percent: default_adapt_headroom(),
            adapt_min_rate: default_adapt_min_rate(),
        }
    }
}

/// Admission-control layer tuning (incoming radio connections).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Master switch of the admission layer.
    pub enabled: bool,
    /// Maximum concurrent incoming sessions (established incoming app
    /// connections plus not-yet-identified accepted links).
    pub max_sessions: usize,
    /// Accepted connections per peer within
    /// [`AdmissionConfig::per_peer_window`].
    pub per_peer_rate: u32,
    /// Sliding window for the per-peer rate cap.
    pub per_peer_window: SimDuration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            enabled: false,
            max_sessions: 48,
            per_peer_rate: 6,
            per_peer_window: SimDuration::from_secs(10),
        }
    }
}

/// Composition of the resilience pipeline: breaker → backpressure →
/// admission, each layer independently disableable. The default disables
/// everything, making the pipeline behaviourally invisible.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Per-peer circuit breakers on every outgoing dial.
    pub breaker: BreakerConfig,
    /// Per-app inbound/outbound rate limits and queue caps.
    pub backpressure: BackpressureConfig,
    /// Admission control on incoming radio connections.
    pub admission: AdmissionConfig,
}

impl ResilienceConfig {
    /// Every layer disabled (the default; byte-identical to a build without
    /// the subsystem).
    pub fn disabled() -> Self {
        ResilienceConfig::default()
    }

    /// Every layer enabled with its default knobs.
    pub fn all_on() -> Self {
        let mut cfg = ResilienceConfig::default();
        cfg.breaker.enabled = true;
        cfg.backpressure.enabled = true;
        cfg.admission.enabled = true;
        cfg
    }

    /// True when at least one layer is active.
    pub fn any_enabled(&self) -> bool {
        self.breaker.enabled || self.backpressure.enabled || self.admission.enabled
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

    /// Gate for one outgoing dial. An Open breaker past its cooldown moves
    /// to HalfOpen and admits the dial as a probe; returns whether the dial
    /// may proceed.
    pub fn allow(&mut self, now: SimTime, cfg: &BreakerConfig) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now.saturating_since(self.opened_at) >= cfg.cooldown {
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
    pub fn record_success(&mut self, cfg: &BreakerConfig) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.probe_successes += 1;
                if self.probe_successes >= cfg.probe_successes {
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
    pub fn record_failure(&mut self, now: SimTime, cfg: &BreakerConfig) -> bool {
        match self.state {
            BreakerState::HalfOpen => {
                // The probe failed: straight back to Open, cooldown restarts.
                self.trip(now);
                true
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= cfg.failure_threshold {
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
    pub fn record_break(&mut self, now: SimTime, cfg: &BreakerConfig) -> bool {
        let horizon = now.saturating_since(SimTime::ZERO);
        while let Some(first) = self.breaks.front() {
            if horizon
                .as_micros()
                .saturating_sub(first.saturating_since(SimTime::ZERO).as_micros())
                > cfg.flap_window.as_micros()
            {
                self.breaks.pop_front();
            } else {
                break;
            }
        }
        self.breaks.push_back(now);
        match self.state {
            BreakerState::HalfOpen => {
                // The probe's link broke under it.
                self.trip(now);
                true
            }
            BreakerState::Closed if self.breaks.len() >= cfg.flap_threshold as usize => {
                self.trip(now);
                true
            }
            _ => false,
        }
    }
}

const MICRO_TOKEN: u64 = 1_000_000;

/// After this many consecutive empty windows the EWMA demand is treated as
/// fully decayed (it is below any representable rate long before that),
/// which bounds the catch-up work after an arbitrarily long idle.
const EWMA_DECAY_CAP: u32 = 64;

/// The EWMA adaptation law of the backpressure layer, separated from the
/// bucket so it can be driven window-by-window in tests: feed it one
/// observation (attempted takes) per elapsed window and read back the rate
/// the bucket should refill at. All arithmetic is integer micro-units off
/// the deterministic virtual clock — the law draws no randomness.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveRate {
    /// EWMA of per-window demand, in micro-attempts per window.
    ewma_micro: u64,
    /// Static configured rate (tokens/second) — the hard ceiling.
    ceiling: u32,
    /// Floor of the adapted rate (tokens/second).
    floor: u32,
    /// EWMA weight (percent) of the newest observation.
    alpha_percent: u32,
    /// Slack (percent) granted above the learned demand.
    headroom_percent: u32,
    /// Window length in seconds (micro-precision kept by the caller).
    window_secs_micro: u64,
}

impl AdaptiveRate {
    /// A law that has seen no traffic yet. Until the first window closes the
    /// effective rate is the static ceiling, so adaptation never penalises
    /// startup.
    pub fn new(cfg: &BackpressureConfig, ceiling: u32) -> Self {
        AdaptiveRate {
            // Seed the EWMA at the ceiling's own per-window demand so the
            // learned envelope starts wide open and tightens only from
            // observed behaviour.
            ewma_micro: (ceiling as u64)
                .saturating_mul(cfg.adapt_window.as_micros())
                .max(MICRO_TOKEN),
            ceiling,
            floor: cfg.adapt_min_rate.min(ceiling),
            alpha_percent: cfg.adapt_alpha_percent.min(100),
            headroom_percent: cfg.adapt_headroom_percent,
            window_secs_micro: cfg.adapt_window.as_micros().max(1),
        }
    }

    /// Folds one closed window's observed demand (attempted takes, admitted
    /// or shed) into the EWMA.
    pub fn observe_window(&mut self, attempts: u64) {
        let alpha = self.alpha_percent as u64;
        self.ewma_micro = attempts
            .saturating_mul(MICRO_TOKEN)
            .saturating_mul(alpha)
            .saturating_add(self.ewma_micro.saturating_mul(100 - alpha))
            / 100;
    }

    /// Folds `windows` consecutive empty windows at once (bounded decay, so
    /// a long idle costs constant work).
    pub fn observe_idle(&mut self, windows: u32) {
        for _ in 0..windows.min(EWMA_DECAY_CAP) {
            self.observe_window(0);
        }
        if windows > EWMA_DECAY_CAP {
            self.ewma_micro = 0;
        }
    }

    /// The rate (tokens/second) the bucket should refill at: the learned
    /// per-second demand plus headroom, clamped to `[floor, ceiling]`.
    pub fn effective_rate(&self) -> u32 {
        let demand_per_sec_micro = self
            .ewma_micro
            .saturating_mul(MICRO_TOKEN)
            .checked_div(self.window_secs_micro)
            .unwrap_or(0);
        let with_headroom = demand_per_sec_micro.saturating_mul(self.headroom_percent as u64) / 100;
        let rate = (with_headroom / MICRO_TOKEN).min(u32::MAX as u64) as u32;
        rate.clamp(self.floor, self.ceiling)
    }
}

/// Deterministic integer token bucket: one token = [`MICRO_TOKEN`]
/// micro-tokens, refilled linearly from the virtual clock. With an
/// [`AdaptiveRate`] attached, the refill rate is re-derived at every
/// virtual-clock window boundary from the learned demand EWMA.
#[derive(Debug, Clone)]
struct TokenBucket {
    rate_per_sec: u64,
    burst: u64,
    micro: u64,
    last: SimTime,
    adaptive: Option<AdaptiveBucketState>,
}

#[derive(Debug, Clone)]
struct AdaptiveBucketState {
    law: AdaptiveRate,
    window_micros: u64,
    /// Index of the window `last observation` falls in.
    window_index: u64,
    /// Attempted takes in the current window.
    attempts: u64,
    /// Window rolls that changed the effective rate (for the stats plane).
    adaptations: u64,
    /// The static rate and burst, so the burst can scale with the adapted
    /// rate: a tightened envelope must also stop the app from banking the
    /// full static burst while quiet and then blasting it in one tick.
    static_rate: u64,
    static_burst: u64,
}

impl TokenBucket {
    fn new(rate_per_sec: u32, burst: u32, now: SimTime) -> Self {
        TokenBucket {
            rate_per_sec: rate_per_sec as u64,
            burst: (burst.max(1)) as u64,
            micro: (burst.max(1)) as u64 * MICRO_TOKEN,
            last: now,
            adaptive: None,
        }
    }

    fn new_adaptive(rate_per_sec: u32, burst: u32, now: SimTime, cfg: &BackpressureConfig) -> Self {
        let mut bucket = TokenBucket::new(rate_per_sec, burst, now);
        let window_micros = cfg.adapt_window.as_micros().max(1);
        bucket.adaptive = Some(AdaptiveBucketState {
            law: AdaptiveRate::new(cfg, rate_per_sec),
            window_micros,
            window_index: now.saturating_since(SimTime::ZERO).as_micros() / window_micros,
            attempts: 0,
            adaptations: 0,
            static_rate: (rate_per_sec.max(1)) as u64,
            static_burst: (burst.max(1)) as u64,
        });
        bucket
    }

    /// Closes every window boundary crossed since the last observation and
    /// re-derives the refill rate from the law.
    fn roll_windows(&mut self, now: SimTime) {
        let Some(state) = self.adaptive.as_mut() else {
            return;
        };
        let index = now.saturating_since(SimTime::ZERO).as_micros() / state.window_micros;
        if index <= state.window_index {
            return;
        }
        let crossed = index - state.window_index;
        state.law.observe_window(state.attempts);
        if crossed > 1 {
            state.law.observe_idle((crossed - 1).min(u32::MAX as u64) as u32);
        }
        state.attempts = 0;
        state.window_index = index;
        let rate = state.law.effective_rate() as u64;
        if rate != self.rate_per_sec {
            state.adaptations += 1;
            self.rate_per_sec = rate;
            // Scale the burst with the rate, so a tightened envelope also
            // shrinks how many tokens a quiet app can bank.
            self.burst = (rate.saturating_mul(state.static_burst) / state.static_rate).max(1);
            self.micro = self.micro.min(self.burst * MICRO_TOKEN);
        }
    }

    fn try_take(&mut self, now: SimTime) -> bool {
        // Refill first (at the rate that was in force), then roll the
        // adaptation window, then count this attempt as demand.
        let elapsed = now.saturating_since(self.last).as_micros();
        self.last = now;
        self.micro = self
            .micro
            .saturating_add(elapsed.saturating_mul(self.rate_per_sec))
            .min(self.burst * MICRO_TOKEN);
        self.roll_windows(now);
        if let Some(state) = self.adaptive.as_mut() {
            state.attempts += 1;
        }
        if self.micro >= MICRO_TOKEN {
            self.micro -= MICRO_TOKEN;
            true
        } else {
            false
        }
    }

    fn adaptations(&self) -> u64 {
        self.adaptive.as_ref().map(|s| s.adaptations).unwrap_or(0)
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
    /// Window rolls of the adaptive law that actually changed a bucket's
    /// refill rate (zero unless [`BackpressureConfig::adaptive`] is set).
    pub rate_adaptations: u64,
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
        self.rate_adaptations += other.rate_adaptations;
        self.admitted += other.admitted;
        self.rejected_sessions += other.rejected_sessions;
        self.rejected_rate += other.rejected_rate;
        self.inquiries_cached += other.inquiries_cached;
        self.inquiries_encoded += other.inquiries_encoded;
    }

    /// Mirrors the snapshot into the telemetry plane under the `resilience`
    /// subsystem: monotonic tallies as counters, the live breaker population
    /// as gauges. `label` distinguishes scopes (a node name, or `None` for a
    /// fleet-wide roll-up).
    pub fn export_gauges(&self, tel: &mut Telemetry, label: Option<&str>) {
        tel.set_counter("resilience", "breaker_trips", label, self.breaker_trips);
        tel.set_counter("resilience", "breaker_blocked", label, self.breaker_blocked);
        tel.set_counter("resilience", "breaker_probes", label, self.breaker_probes);
        tel.set_gauge("resilience", "breakers_open", label, self.breakers_open as f64);
        tel.set_gauge(
            "resilience",
            "breakers_half_open",
            label,
            self.breakers_half_open as f64,
        );
        tel.set_counter("resilience", "inbound_shed", label, self.inbound_shed);
        tel.set_counter("resilience", "outbound_shed", label, self.outbound_shed);
        tel.set_counter("resilience", "queue_shed", label, self.queue_shed);
        tel.set_counter("resilience", "rate_adaptations", label, self.rate_adaptations);
        tel.set_counter("resilience", "admitted", label, self.admitted);
        tel.set_counter("resilience", "rejected_sessions", label, self.rejected_sessions);
        tel.set_counter("resilience", "rejected_rate", label, self.rejected_rate);
        tel.set_counter("resilience", "inquiries_cached", label, self.inquiries_cached);
        tel.set_counter("resilience", "inquiries_encoded", label, self.inquiries_encoded);
    }
}

/// Runtime state of one node's resilience pipeline. Owned by the middleware
/// core; every data-path hook funnels through the methods here, and each
/// method is a no-op returning "allow" when its layer is disabled.
#[derive(Debug, Clone)]
pub struct Resilience {
    cfg: ResilienceConfig,
    breakers: BTreeMap<DeviceAddress, CircuitBreaker>,
    inbound: BTreeMap<Option<AppId>, TokenBucket>,
    outbound: BTreeMap<Option<AppId>, TokenBucket>,
    admits: BTreeMap<DeviceAddress, VecDeque<SimTime>>,
    breaker_trips: u64,
    breaker_blocked: u64,
    breaker_probes: u64,
    inbound_shed: u64,
    outbound_shed: u64,
    queue_shed: u64,
    admitted: u64,
    rejected_sessions: u64,
    rejected_rate: u64,
    inquiries_cached: u64,
    inquiries_encoded: u64,
}

impl Resilience {
    /// Builds the pipeline from its configuration.
    pub fn new(cfg: ResilienceConfig) -> Self {
        Resilience {
            cfg,
            breakers: BTreeMap::new(),
            inbound: BTreeMap::new(),
            outbound: BTreeMap::new(),
            admits: BTreeMap::new(),
            breaker_trips: 0,
            breaker_blocked: 0,
            breaker_probes: 0,
            inbound_shed: 0,
            outbound_shed: 0,
            queue_shed: 0,
            admitted: 0,
            rejected_sessions: 0,
            rejected_rate: 0,
            inquiries_cached: 0,
            inquiries_encoded: 0,
        }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &ResilienceConfig {
        &self.cfg
    }

    // ------------------------------------------------------------------
    // Layer 1: per-peer circuit breakers
    // ------------------------------------------------------------------

    /// Gate for one outgoing dial towards `peer` (the first physical hop).
    /// Every dial the middleware starts — application connects, daemon
    /// fetches, reply reconnects, handover legs — asks here first.
    pub fn allow_dial(&mut self, peer: DeviceAddress, now: SimTime) -> bool {
        if !self.cfg.breaker.enabled {
            return true;
        }
        let breaker = self.breakers.entry(peer).or_default();
        let was_open = breaker.state() == BreakerState::Open;
        let ok = breaker.allow(now, &self.cfg.breaker);
        if ok {
            if was_open {
                self.breaker_probes += 1;
            }
        } else {
            self.breaker_blocked += 1;
        }
        ok
    }

    /// Records a successful dial (radio link established towards `peer`).
    pub fn record_dial_success(&mut self, peer: DeviceAddress) {
        if !self.cfg.breaker.enabled {
            return;
        }
        if let Some(b) = self.breakers.get_mut(&peer) {
            b.record_success(&self.cfg.breaker);
        }
    }

    /// Records a failed dial (connect refused/failed) or a peer crash.
    pub fn record_dial_failure(&mut self, peer: DeviceAddress, now: SimTime) {
        if !self.cfg.breaker.enabled {
            return;
        }
        if self
            .breakers
            .entry(peer)
            .or_default()
            .record_failure(now, &self.cfg.breaker)
        {
            self.breaker_trips += 1;
        }
    }

    /// Records a link break towards `peer` (flap counting).
    pub fn record_link_break(&mut self, peer: DeviceAddress, now: SimTime) {
        if !self.cfg.breaker.enabled {
            return;
        }
        if self
            .breakers
            .entry(peer)
            .or_default()
            .record_break(now, &self.cfg.breaker)
        {
            self.breaker_trips += 1;
        }
    }

    /// The breaker state towards a peer (`None` when the peer was never
    /// dialled or the layer is disabled).
    pub fn breaker_state(&self, peer: DeviceAddress) -> Option<BreakerState> {
        self.breakers.get(&peer).map(|b| b.state())
    }

    // ------------------------------------------------------------------
    // Layer 2: per-app backpressure
    // ------------------------------------------------------------------

    /// Gate for one outbound application send by `app`.
    pub fn allow_outbound(&mut self, app: Option<AppId>, now: SimTime) -> bool {
        if !self.cfg.backpressure.enabled {
            return true;
        }
        let cfg = &self.cfg.backpressure;
        let bucket = self.outbound.entry(app).or_insert_with(|| {
            if cfg.adaptive {
                TokenBucket::new_adaptive(cfg.outbound_rate, cfg.outbound_burst, now, cfg)
            } else {
                TokenBucket::new(cfg.outbound_rate, cfg.outbound_burst, now)
            }
        });
        let ok = bucket.try_take(now);
        if !ok {
            self.outbound_shed += 1;
        }
        ok
    }

    /// Gate for one inbound payload delivered to `app`.
    pub fn allow_inbound(&mut self, app: Option<AppId>, now: SimTime) -> bool {
        if !self.cfg.backpressure.enabled {
            return true;
        }
        let cfg = &self.cfg.backpressure;
        let bucket = self.inbound.entry(app).or_insert_with(|| {
            if cfg.adaptive {
                TokenBucket::new_adaptive(cfg.inbound_rate, cfg.inbound_burst, now, cfg)
            } else {
                TokenBucket::new(cfg.inbound_rate, cfg.inbound_burst, now)
            }
        });
        let ok = bucket.try_take(now);
        if !ok {
            self.inbound_shed += 1;
        }
        ok
    }

    /// The outbox queue cap, when the backpressure layer is active.
    pub fn outbox_cap(&self) -> Option<usize> {
        self.cfg
            .backpressure
            .enabled
            .then_some(self.cfg.backpressure.outbox_cap)
    }

    /// Counts one result shed by the outbox cap.
    pub fn note_queue_shed(&mut self) {
        self.queue_shed += 1;
    }

    // ------------------------------------------------------------------
    // Layer 3: admission control
    // ------------------------------------------------------------------

    /// Gate for one incoming radio connection from `peer`.
    /// `active_sessions` is the caller-computed concurrent incoming-session
    /// count (established incoming connections plus unidentified links).
    pub fn admit(&mut self, peer: DeviceAddress, now: SimTime, active_sessions: usize) -> bool {
        if !self.cfg.admission.enabled {
            return true;
        }
        if active_sessions >= self.cfg.admission.max_sessions {
            self.rejected_sessions += 1;
            return false;
        }
        let window = self.cfg.admission.per_peer_window;
        let recent = self.admits.entry(peer).or_default();
        while let Some(first) = recent.front() {
            if now.saturating_since(*first) > window {
                recent.pop_front();
            } else {
                break;
            }
        }
        if recent.len() >= self.cfg.admission.per_peer_rate as usize {
            self.rejected_rate += 1;
            return false;
        }
        recent.push_back(now);
        self.admitted += 1;
        true
    }

    // ------------------------------------------------------------------
    // Layer 4: observability
    // ------------------------------------------------------------------

    /// Counts one inquiry response, served from the cached frame or freshly
    /// encoded (pure accounting; the cache itself lives in the wire layer).
    pub fn note_inquiry_served(&mut self, cached: bool) {
        if cached {
            self.inquiries_cached += 1;
        } else {
            self.inquiries_encoded += 1;
        }
    }

    /// Point-in-time snapshot of every per-layer counter.
    pub fn stats(&self) -> ResilienceStats {
        ResilienceStats {
            breaker_trips: self.breaker_trips,
            breaker_blocked: self.breaker_blocked,
            breaker_probes: self.breaker_probes,
            breakers_open: self
                .breakers
                .values()
                .filter(|b| b.state() == BreakerState::Open)
                .count(),
            breakers_half_open: self
                .breakers
                .values()
                .filter(|b| b.state() == BreakerState::HalfOpen)
                .count(),
            inbound_shed: self.inbound_shed,
            outbound_shed: self.outbound_shed,
            queue_shed: self.queue_shed,
            rate_adaptations: self
                .inbound
                .values()
                .chain(self.outbound.values())
                .map(TokenBucket::adaptations)
                .sum(),
            admitted: self.admitted,
            rejected_sessions: self.rejected_sessions,
            rejected_rate: self.rejected_rate,
            inquiries_cached: self.inquiries_cached,
            inquiries_encoded: self.inquiries_encoded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            enabled: true,
            ..BreakerConfig::default()
        }
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_and_recovers_via_probe() {
        let cfg = cfg();
        let mut b = CircuitBreaker::default();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.record_failure(t(1), &cfg));
        assert!(!b.record_failure(t(2), &cfg));
        // Third consecutive failure trips Closed → Open.
        assert!(b.record_failure(t(3), &cfg));
        assert_eq!(b.state(), BreakerState::Open);
        // Blocked while the cooldown runs.
        assert!(!b.allow(t(4), &cfg));
        assert!(!b.allow(t(32), &cfg));
        // Cooldown edge: exactly 30 s after the trip the probe is admitted.
        assert!(b.allow(t(33), &cfg));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Probe success closes the breaker and resets the failure count.
        b.record_success(&cfg);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.record_failure(t(40), &cfg));
    }

    #[test]
    fn probe_failure_retrips_and_restarts_the_cooldown() {
        let cfg = cfg();
        let mut b = CircuitBreaker::default();
        for s in 0..3 {
            b.record_failure(t(s), &cfg);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(t(40), &cfg));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // The probe fails: straight back to Open, new cooldown from t=40.
        assert!(b.record_failure(t(40), &cfg));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(t(69), &cfg));
        assert!(b.allow(t(70), &cfg));
    }

    #[test]
    fn success_resets_the_consecutive_failure_count() {
        let cfg = cfg();
        let mut b = CircuitBreaker::default();
        b.record_failure(t(1), &cfg);
        b.record_failure(t(2), &cfg);
        b.record_success(&cfg);
        // The streak restarted: two more failures do not trip.
        assert!(!b.record_failure(t(3), &cfg));
        assert!(!b.record_failure(t(4), &cfg));
        assert!(b.record_failure(t(5), &cfg));
    }

    #[test]
    fn flapping_breaks_inside_the_window_trip_the_breaker() {
        let cfg = cfg();
        let mut b = CircuitBreaker::default();
        assert!(!b.record_break(t(10), &cfg));
        assert!(!b.record_break(t(30), &cfg));
        // Third break within the 60 s window trips.
        assert!(b.record_break(t(50), &cfg));
        assert_eq!(b.state(), BreakerState::Open);

        // Spread outside the window: never trips.
        let mut slow = CircuitBreaker::default();
        assert!(!slow.record_break(t(0), &cfg));
        assert!(!slow.record_break(t(100), &cfg));
        assert!(!slow.record_break(t(200), &cfg));
        assert_eq!(slow.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_break_retrips() {
        let cfg = cfg();
        let mut b = CircuitBreaker::default();
        for s in 0..3 {
            b.record_failure(t(s), &cfg);
        }
        assert!(b.allow(t(60), &cfg));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.record_break(t(61), &cfg));
        assert_eq!(b.state(), BreakerState::Open);
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

    #[test]
    fn disabled_layers_allow_everything_and_count_nothing() {
        let mut r = Resilience::new(ResilienceConfig::disabled());
        let peer = DeviceAddress::from_node_raw(7);
        for s in 0..10 {
            r.record_dial_failure(peer, t(s));
            r.record_link_break(peer, t(s));
            assert!(r.allow_dial(peer, t(s)));
            assert!(r.allow_outbound(None, t(s)));
            assert!(r.allow_inbound(None, t(s)));
            assert!(r.admit(peer, t(s), usize::MAX - 1));
        }
        assert_eq!(r.outbox_cap(), None);
        let stats = r.stats();
        assert_eq!(stats, ResilienceStats::default());
    }

    #[test]
    fn pipeline_counters_track_each_layer() {
        let mut r = Resilience::new(ResilienceConfig::all_on());
        let peer = DeviceAddress::from_node_raw(9);
        for s in 0..3 {
            r.record_dial_failure(peer, t(s));
        }
        assert_eq!(r.breaker_state(peer), Some(BreakerState::Open));
        assert!(!r.allow_dial(peer, t(4)));
        let stats = r.stats();
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(stats.breaker_blocked, 1);
        assert_eq!(stats.breakers_open, 1);
        // Cooldown over: the next dial is a counted probe.
        assert!(r.allow_dial(peer, t(40)));
        assert_eq!(r.stats().breaker_probes, 1);
        assert_eq!(r.stats().breakers_half_open, 1);
        r.record_dial_success(peer);
        assert_eq!(r.breaker_state(peer), Some(BreakerState::Closed));
    }

    #[test]
    fn admission_enforces_session_and_rate_caps() {
        let mut cfg = ResilienceConfig::default();
        cfg.admission.enabled = true;
        cfg.admission.max_sessions = 2;
        cfg.admission.per_peer_rate = 2;
        cfg.admission.per_peer_window = SimDuration::from_secs(10);
        let mut r = Resilience::new(cfg);
        let peer = DeviceAddress::from_node_raw(3);
        // Session cap.
        assert!(!r.admit(peer, t(0), 2));
        assert_eq!(r.stats().rejected_sessions, 1);
        // Per-peer rate cap inside the window...
        assert!(r.admit(peer, t(1), 0));
        assert!(r.admit(peer, t(2), 0));
        assert!(!r.admit(peer, t(3), 0));
        assert_eq!(r.stats().rejected_rate, 1);
        // ...and recovery once the window slides past.
        assert!(r.admit(peer, t(20), 0));
        assert_eq!(r.stats().admitted, 3);
    }

    fn adaptive_cfg(rate: u32, burst: u32) -> ResilienceConfig {
        let mut cfg = ResilienceConfig::default();
        cfg.backpressure.enabled = true;
        cfg.backpressure.adaptive = true;
        cfg.backpressure.adapt_window = SimDuration::from_secs(1);
        cfg.backpressure.outbound_rate = rate;
        cfg.backpressure.outbound_burst = burst;
        cfg
    }

    #[test]
    fn adaptation_law_tracks_demand_and_respects_the_clamp() {
        let mut cfg = BackpressureConfig {
            adapt_window: SimDuration::from_secs(1),
            adapt_alpha_percent: 50,
            adapt_headroom_percent: 150,
            adapt_min_rate: 5,
            ..BackpressureConfig::default()
        };
        let mut law = AdaptiveRate::new(&cfg, 100);
        // Seeded at the ceiling: startup is never penalised.
        assert_eq!(law.effective_rate(), 100);
        // Steady demand of 10/s converges to 10 × 1.5 = 15 tokens/s.
        for _ in 0..20 {
            law.observe_window(10);
        }
        assert_eq!(law.effective_rate(), 15);
        // A single wild window moves the EWMA by α, not to the spike:
        // 0.5·1000 + 0.5·10 = 505/s → headroom 757, clamped to the ceiling.
        law.observe_window(1000);
        assert_eq!(law.effective_rate(), 100);
        // Sustained silence decays to the floor, never to zero.
        law.observe_idle(EWMA_DECAY_CAP + 1);
        assert_eq!(law.effective_rate(), 5);
        // And the floor itself is capped by the ceiling.
        cfg.adapt_min_rate = 500;
        let floor_law = AdaptiveRate::new(&cfg, 100);
        assert_eq!(floor_law.effective_rate(), 100);
    }

    #[test]
    fn adaptation_is_deterministic_in_the_window_count() {
        let cfg = BackpressureConfig {
            adapt_window: SimDuration::from_secs(1),
            ..BackpressureConfig::default()
        };
        let mut a = AdaptiveRate::new(&cfg, 50);
        let mut b = AdaptiveRate::new(&cfg, 50);
        for _ in 0..5 {
            a.observe_window(0);
        }
        b.observe_idle(5);
        assert_eq!(a.effective_rate(), b.effective_rate());
    }

    #[test]
    fn adaptive_bucket_tightens_to_the_learned_envelope() {
        let mut r = Resilience::new(adaptive_cfg(50, 50));
        let app = Some(AppId(0));
        // Two quiet windows per second for a while: demand 2/s, so the
        // learned rate converges to max(2 × 1.5, floor 5) = 5 tokens/s.
        for s in 1..40 {
            assert!(r.allow_outbound(app, t(s)));
            assert!(r.allow_outbound(app, SimTime::ZERO + SimDuration::from_millis(s * 1000 + 500)));
        }
        assert!(r.stats().rate_adaptations > 0);
        // Now the app goes hostile and blasts a burst: the static config
        // would admit 50 back-to-back, the learned envelope sheds far
        // earlier.
        let mut admitted = 0;
        for _ in 0..50 {
            if r.allow_outbound(app, t(40)) {
                admitted += 1;
            }
        }
        assert!(
            admitted < 25,
            "learned envelope must shed the burst early, admitted {admitted}"
        );
        assert!(r.stats().outbound_shed > 0);
    }

    #[test]
    fn adaptation_never_tightens_below_steady_demand_plus_headroom() {
        // An app that steadily uses its full static budget sees the exact
        // same admissions with adaptation on as off: the envelope only
        // tightens on demand *below* the ceiling, never on conformant load.
        let mut adaptive = Resilience::new(adaptive_cfg(4, 4));
        let mut fixed = Resilience::new({
            let mut c = adaptive_cfg(4, 4);
            c.backpressure.adaptive = false;
            c
        });
        let app = Some(AppId(2));
        for s in 0..120 {
            let at = SimTime::ZERO + SimDuration::from_millis(s * 250);
            assert_eq!(adaptive.allow_outbound(app, at), fixed.allow_outbound(app, at));
        }
        assert_eq!(adaptive.stats().outbound_shed, fixed.stats().outbound_shed);
        assert_eq!(fixed.stats().rate_adaptations, 0);
    }

    #[test]
    fn backpressure_sheds_past_the_burst() {
        let mut cfg = ResilienceConfig::default();
        cfg.backpressure.enabled = true;
        cfg.backpressure.outbound_rate = 1;
        cfg.backpressure.outbound_burst = 2;
        let mut r = Resilience::new(cfg);
        let app = Some(AppId(0));
        assert!(r.allow_outbound(app, t(0)));
        assert!(r.allow_outbound(app, t(0)));
        assert!(!r.allow_outbound(app, t(0)));
        assert_eq!(r.stats().outbound_shed, 1);
        assert_eq!(r.outbox_cap(), Some(64));
        // Separate apps have separate buckets.
        assert!(r.allow_outbound(Some(AppId(1)), t(0)));
    }
}
