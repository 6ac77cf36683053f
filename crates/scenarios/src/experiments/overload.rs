//! E16: the overload city — a flash crowd against a flapping hotspot, run
//! with and without the `peerhood::resilience` pipeline.
//!
//! The scenario is the one the resilience subsystem was built for: a crowd
//! of clients all inside radio range of two `"hotspot"` providers. The
//! closer, higher-quality provider sits behind a seeded flapping link
//! schedule ([`FaultPlan::flapping_link`]) towards every client, so the
//! §3.4.3 best-provider ranking keeps steering the inner half of the crowd
//! onto a peer that tears their sessions down a few seconds later.
//!
//! * **resilience off** (the default stack): every loss is followed by a
//!   re-dial to the same flapping provider — the inner crowd starves on a
//!   connect/break treadmill while the outer crowd is served normally, so
//!   both goodput and per-app fairness (min/max delivered) collapse.
//! * **resilience on** ([`ResilienceConfig::all_on`]): per-peer circuit
//!   breakers trip on the repeated failures and link breaks, the next
//!   attach sees [`PeerHoodError::CircuitOpen`] synchronously and the
//!   [`CrowdApp`] diverts to the next known provider — the crowd converges
//!   on the healthy hotspot and stays there.
//!
//! Determinism: both modes run the *same* world seed (identical flap
//! phases), and the pipeline itself draws no randomness, so one seed gives
//! one byte-identical report per mode (asserted by the tests below).

use std::sync::Arc;

use peerhood::application::Application;
use peerhood::error::PeerHoodError;
use peerhood::ids::{ConnectionId, DeviceAddress};
use peerhood::node::{PeerHoodApi, PeerHoodNode};
use peerhood::resilience::{ResilienceConfig, ResilienceStats};
use peerhood::service::ServiceInfo;
use simnet::prelude::*;

use crate::experiments::city::wlan_world;
use crate::experiments::full_stack::{add_stack, wlan_city_config};
use crate::experiments::params::{count, on_off, seconds, Param};
use crate::report::ExperimentReport;

/// Name of the service the hotspots offer and the crowd consumes.
pub const HOTSPOT_SERVICE: &str = "hotspot";

const PING_TIMER: u64 = 0xC40;

/// Settings for the E16 overload-city run.
#[derive(Debug, Clone)]
pub struct OverloadSettings {
    /// Base random seed (world and flap phases derive from it; both
    /// pipeline modes run the same world seed).
    pub seed: u64,
    /// Crowd size. The inner half spawns next to the flapping hotspot, the
    /// outer half next to the healthy one.
    pub clients: usize,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Inquiry interval of every node's discovery plugin.
    pub inquiry_interval: SimDuration,
    /// Discovery warmup: clients hold their first attach back this long so
    /// everyone has fetched both hotspots (the flapping one is only
    /// reachable during its up phases) and the §3.4.3 ranking — not fetch
    /// order — picks the provider.
    pub warmup: SimDuration,
    /// Application tick: attached clients send pings, detached ones
    /// re-attach.
    pub ping_interval: SimDuration,
    /// Pings sent per tick while attached.
    pub pings_per_tick: usize,
    /// Full up+down cycle of the flapping hotspot's links.
    pub flap_period: SimDuration,
    /// Fraction of each flap period the links are up.
    pub flap_duty: f64,
}

impl OverloadSettings {
    /// The full-size run (`repro` without `--quick`).
    pub fn full() -> Self {
        OverloadSettings {
            seed: 16,
            clients: 24,
            duration: SimDuration::from_secs(240),
            inquiry_interval: SimDuration::from_secs(10),
            warmup: SimDuration::from_secs(40),
            ping_interval: SimDuration::from_secs(2),
            pings_per_tick: 2,
            flap_period: SimDuration::from_secs(20),
            flap_duty: 0.5,
        }
    }

    /// The CI variant: smaller crowd, shorter horizon.
    pub fn quick() -> Self {
        OverloadSettings {
            clients: 16,
            duration: SimDuration::from_secs(120),
            ..OverloadSettings::full()
        }
    }

    /// A reduced crowd for debug-build smoke tests (`cargo test`).
    pub fn smoke() -> Self {
        OverloadSettings {
            clients: 8,
            duration: SimDuration::from_secs(120),
            ..OverloadSettings::full()
        }
    }

    /// The grid parameters of E16, over the settings and the pipeline modes
    /// to run (one report row each).
    pub const PARAMS: &'static [Param<(Self, Vec<bool>)>] = &[
        Param::new(
            "resilience",
            "run only one pipeline mode (default: an off row and an on row)",
            |(_, modes), v| on_off(v).map(|mode| *modes = vec![mode]),
        ),
        Param::new("clients", "crowd size (half near each hotspot)", |(s, _), v| {
            count(v).map(|n| s.clients = n)
        }),
        Param::new("duration_s", "simulated seconds per mode", |(s, _), v| {
            seconds(v).map(|d| s.duration = d)
        }),
    ];
}

/// A crowd member: attaches to the best `"hotspot"` provider and pings it
/// every tick. When the attach is refused synchronously by an open circuit
/// breaker, it walks the rest of the known providers instead of waiting for
/// the breaker's peer to come back — the diversion the pipeline exists to
/// enable.
pub struct CrowdApp {
    /// Tick interval (pings while attached, re-attach otherwise).
    tick: SimDuration,
    /// Pings sent per tick while attached.
    ping_burst: usize,
    /// No attach before this long into the run (discovery warmup).
    warmup: SimDuration,
    current: Option<ConnectionId>,
    connecting: bool,
    down_since: Option<SimTime>,
    /// Client sessions established.
    pub sessions_established: u64,
    /// Sessions the middleware could not keep alive.
    pub sessions_lost: u64,
    /// Attaches diverted away from an open-breaker provider.
    pub diverted: u64,
    /// Pings sent / echoes received.
    pub pings_sent: u64,
    /// Echo payloads delivered back to this client.
    pub delivered: u64,
    /// Sends refused by the backpressure layer.
    pub sends_shed: u64,
    /// Total reconnection latency and sample count.
    pub reconnect_secs_total: f64,
    /// Number of latency samples in `reconnect_secs_total`.
    pub reconnects: u64,
}

impl CrowdApp {
    /// A crowd member ticking every `tick`, sending `ping_burst` pings per
    /// tick while attached, holding its first attach until `warmup`.
    pub fn new(tick: SimDuration, ping_burst: usize, warmup: SimDuration) -> Self {
        CrowdApp {
            tick,
            ping_burst,
            warmup,
            current: None,
            connecting: false,
            down_since: None,
            sessions_established: 0,
            sessions_lost: 0,
            diverted: 0,
            pings_sent: 0,
            delivered: 0,
            sends_shed: 0,
            reconnect_secs_total: 0.0,
            reconnects: 0,
        }
    }

    fn try_attach(&mut self, api: &mut PeerHoodApi<'_>) {
        if self.current.is_some() || self.connecting || api.now() < SimTime::ZERO + self.warmup {
            return;
        }
        match api.connect_to_service(HOTSPOT_SERVICE) {
            Ok(conn) => {
                self.current = Some(conn);
                self.connecting = true;
            }
            Err(PeerHoodError::CircuitOpen(_)) => {
                // The best-ranked provider is behind an open breaker: try
                // the other known providers in deterministic address order.
                let providers: Vec<DeviceAddress> = api
                    .service_list()
                    .into_iter()
                    .filter(|(_, s)| s.name == HOTSPOT_SERVICE)
                    .map(|(addr, _)| addr)
                    .collect();
                for addr in providers {
                    if let Ok(conn) = api.connect_to(addr, HOTSPOT_SERVICE) {
                        self.current = Some(conn);
                        self.connecting = true;
                        self.diverted += 1;
                        return;
                    }
                }
            }
            Err(_) => {}
        }
    }
}

impl Application for CrowdApp {
    fn on_start(&mut self, api: &mut PeerHoodApi<'_>) {
        self.current = None;
        self.connecting = false;
        api.schedule_timer(self.tick, PING_TIMER);
    }

    fn on_device_discovered(&mut self, api: &mut PeerHoodApi<'_>, _address: DeviceAddress) {
        self.try_attach(api);
    }

    fn on_connected(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId) {
        if self.current == Some(conn) {
            self.connecting = false;
            self.sessions_established += 1;
            if let Some(t0) = self.down_since.take() {
                self.reconnect_secs_total += api.now().saturating_since(t0).as_secs_f64();
                self.reconnects += 1;
            }
        }
    }

    fn on_connect_failed(&mut self, _api: &mut PeerHoodApi<'_>, conn: ConnectionId, _error: PeerHoodError) {
        if self.current == Some(conn) {
            self.current = None;
            self.connecting = false;
        }
    }

    fn on_data(&mut self, _api: &mut PeerHoodApi<'_>, _conn: ConnectionId, _payload: Vec<u8>) {
        self.delivered += 1;
    }

    fn on_disconnected(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, _graceful: bool) {
        if self.current == Some(conn) {
            self.current = None;
            self.connecting = false;
            self.sessions_lost += 1;
            self.down_since = Some(api.now());
        }
    }

    fn on_reconnect_required(
        &mut self,
        _api: &mut PeerHoodApi<'_>,
        _conn: ConnectionId,
        _candidates: &[DeviceAddress],
    ) -> bool {
        false
    }

    fn on_service_reconnected(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, _provider: DeviceAddress) {
        self.on_connected(api, conn);
    }

    fn on_timer(&mut self, api: &mut PeerHoodApi<'_>, token: u64) {
        if token != PING_TIMER {
            return;
        }
        match self.current {
            Some(conn) if !self.connecting => {
                for _ in 0..self.ping_burst {
                    match api.send(conn, b"crowd-ping".to_vec()) {
                        Ok(()) => self.pings_sent += 1,
                        Err(_) => {
                            self.sends_shed += 1;
                            break;
                        }
                    }
                }
            }
            _ => self.try_attach(api),
        }
        api.schedule_timer(self.tick, PING_TIMER);
    }
}

/// A hotspot: registers the [`HOTSPOT_SERVICE`] and echoes every payload
/// back to its sender.
#[derive(Default)]
pub struct HotspotApp {
    /// Payloads received and echoed.
    pub served: u64,
    /// Echoes refused by the backpressure layer.
    pub echoes_shed: u64,
}

impl Application for HotspotApp {
    fn on_start(&mut self, api: &mut PeerHoodApi<'_>) {
        let _ = api.register_service(ServiceInfo::new(HOTSPOT_SERVICE, "v1", 80));
    }

    fn on_data(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, payload: Vec<u8>) {
        match api.send(conn, payload) {
            Ok(()) => self.served += 1,
            Err(_) => self.echoes_shed += 1,
        }
    }
}

/// The overload city, built and run in one pipeline mode. Returns the world
/// plus the crowd and hotspot node ids (hotspots: `[flapping, healthy]`).
///
/// Geometry (metres, everything inside everyone's WLAN disc): the flapping
/// hotspot at x=0, the healthy one at x=36, the inner crowd clustered at
/// x∈\[4,10\] (the flapping hotspot is its by-quality best provider) and the
/// outer crowd at x∈\[28,34\] (the healthy one is). The world seed — and with
/// it every flap phase — is independent of `resilience_on`, so the two
/// modes face the identical fault schedule.
pub fn overload_run(settings: &OverloadSettings, resilience_on: bool) -> (World, Vec<NodeId>, Vec<NodeId>) {
    let mut world = wlan_world(settings.seed ^ 0x0E16_0000);
    // Everyone static, WLAN, two-hop discovery: the E15 metro tuning at
    // crowd scale.
    let mut cfg = wlan_city_config("crowd", settings.inquiry_interval);
    if resilience_on {
        cfg.resilience = ResilienceConfig::all_on();
    }
    let cfg = Arc::new(cfg);

    let hotspot = |world: &mut World, name: &str, x: f64| {
        add_stack(world, name, Point::new(x, 10.0), &cfg, HotspotApp::default())
    };
    let flapping = hotspot(&mut world, "hs-flapping", 0.0);
    let healthy = hotspot(&mut world, "hs-healthy", 36.0);

    let inner = settings.clients / 2;
    let mut clients = Vec::with_capacity(settings.clients);
    for i in 0..settings.clients {
        let (base_x, j) = if i < inner { (4.0, i) } else { (28.0, i - inner) };
        let pos = Point::new(base_x + (j % 4) as f64 * 2.0, 6.0 + (j / 4) as f64 * 2.0);
        let app = CrowdApp::new(settings.ping_interval, settings.pings_per_tick, settings.warmup);
        clients.push(add_stack(&mut world, format!("c{i}"), pos, &cfg, app));
    }

    let mut plan = FaultPlan::new();
    for &client in &clients {
        plan = plan.flapping_link(client, settings.flap_period, settings.flap_duty);
    }
    world.install_fault_plan(flapping, plan);

    let scope = format!("E16 resilience={}", if resilience_on { "on" } else { "off" });
    crate::telemetry::instrument_world(&mut world, &scope);
    let ids: Vec<NodeId> = world.node_ids().collect();
    crate::telemetry::run_world(&mut world, settings.duration, |world| {
        // Mirror the pipeline's per-layer state (summed over every node)
        // into the `resilience` gauges between frames.
        let mut total = ResilienceStats::default();
        for id in &ids {
            if let Some(stats) = world.with_agent::<PeerHoodNode, _>(*id, |node, _| node.resilience_stats()) {
                total.absorb(&stats);
            }
        }
        if let Some(tel) = world.telemetry_mut() {
            total.export(tel);
        }
    });
    crate::telemetry::finish_world(&mut world, &scope);
    (world, clients, vec![flapping, healthy])
}

/// Everything one mode of the overload city measures.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadOutcome {
    /// Echo payloads delivered across the whole crowd.
    pub goodput: u64,
    /// Per-app fairness: min/max delivered across clients (0 when someone
    /// starved completely — or everyone did).
    pub fairness: f64,
    /// Client sessions established.
    pub sessions: u64,
    /// Attaches diverted away from an open breaker.
    pub diverted: u64,
    /// Mean session-recovery latency in seconds (0 without samples).
    pub mean_reconnect_s: f64,
    /// Per-client delivered counts, in node order.
    pub per_client: Vec<u64>,
    /// Summed resilience counters across every node.
    pub stats: ResilienceStats,
}

/// Runs one mode and aggregates the outcome.
pub fn overload_outcome(settings: &OverloadSettings, resilience_on: bool) -> OverloadOutcome {
    let (mut world, clients, hotspots) = overload_run(settings, resilience_on);
    let mut outcome = OverloadOutcome {
        goodput: 0,
        fairness: 0.0,
        sessions: 0,
        diverted: 0,
        mean_reconnect_s: 0.0,
        per_client: Vec::with_capacity(clients.len()),
        stats: ResilienceStats::default(),
    };
    let mut reconnect_secs = 0.0;
    let mut reconnects = 0u64;
    for &id in &clients {
        let sample = world.with_agent::<PeerHoodNode, _>(id, |node, _| {
            let app = node
                .with_app(|a: &CrowdApp| {
                    (
                        a.delivered,
                        a.sessions_established,
                        a.diverted,
                        a.reconnect_secs_total,
                        a.reconnects,
                    )
                })
                .unwrap_or((0, 0, 0, 0.0, 0));
            (app, node.resilience_stats())
        });
        let ((delivered, sessions, diverted, rec_secs, recs), stats) = sample.unwrap_or_default();
        outcome.per_client.push(delivered);
        outcome.goodput += delivered;
        outcome.sessions += sessions;
        outcome.diverted += diverted;
        reconnect_secs += rec_secs;
        reconnects += recs;
        outcome.stats.absorb(&stats);
    }
    for &id in &hotspots {
        if let Some(stats) = world.with_agent::<PeerHoodNode, _>(id, |node, _| node.resilience_stats()) {
            outcome.stats.absorb(&stats);
        }
    }
    let min = outcome.per_client.iter().copied().min().unwrap_or(0);
    let max = outcome.per_client.iter().copied().max().unwrap_or(0);
    if max > 0 {
        outcome.fairness = min as f64 / max as f64;
    }
    if reconnects > 0 {
        outcome.mean_reconnect_s = reconnect_secs / reconnects as f64;
    }
    outcome
}

/// E16 (beyond the thesis): the overload city, with and without the
/// resilience pipeline. `modes` lists the pipeline states to run
/// (`false` = off, `true` = on), one report row each.
pub fn e16_overload(settings: &OverloadSettings, modes: &[bool]) -> ExperimentReport {
    let mut report = ExperimentReport::new(&[
        "resilience",
        "goodput",
        "fairness",
        "sessions",
        "diverted",
        "mean reconnect (s)",
        "breaker trips",
        "blocked dials",
        "shed",
        "rejected",
    ]);
    for &on in modes {
        let o = overload_outcome(settings, on);
        report.push_row([
            if on { "on" } else { "off" }.to_string(),
            o.goodput.to_string(),
            ExperimentReport::f(o.fairness),
            o.sessions.to_string(),
            o.diverted.to_string(),
            ExperimentReport::f(o.mean_reconnect_s),
            o.stats.breaker_trips.to_string(),
            o.stats.breaker_blocked.to_string(),
            (o.stats.inbound_shed + o.stats.outbound_shed + o.stats.queue_shed).to_string(),
            (o.stats.rejected_sessions + o.stats.rejected_rate).to_string(),
        ]);
    }
    report.push_note(format!(
        "{} clients split between a flapping hotspot (period {}s, duty {:.0}%, seeded phase) and a \
         healthy one, {} pings per {}s tick, {}s discovery warmup, {}s simulated; identical world \
         seed in both modes — only the pipeline differs",
        settings.clients,
        settings.flap_period.as_secs(),
        settings.flap_duty * 100.0,
        settings.pings_per_tick,
        settings.ping_interval.as_secs(),
        settings.warmup.as_secs(),
        settings.duration.as_secs_f64(),
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite: same seed ⇒ identical E16 report and identical per-node
    /// `ResilienceStats`, pipeline on and off — the subsystem draws no
    /// randomness of its own.
    #[test]
    fn overload_city_is_deterministic_in_both_modes() {
        let settings = OverloadSettings::smoke();
        for on in [false, true] {
            let a = overload_outcome(&settings, on);
            let b = overload_outcome(&settings, on);
            assert_eq!(a, b, "mode on={on} must reproduce exactly, stats included");
        }
        let r1 = e16_overload(&settings, &[false, true]).to_string();
        let r2 = e16_overload(&settings, &[false, true]).to_string();
        assert_eq!(r1, r2, "the digest must be byte-identical per seed");
    }

    #[test]
    fn pipeline_strictly_improves_goodput_and_fairness() {
        let settings = OverloadSettings::smoke();
        let off = overload_outcome(&settings, false);
        let on = overload_outcome(&settings, true);
        assert!(
            on.goodput > off.goodput,
            "goodput: on={} must beat off={}",
            on.goodput,
            off.goodput
        );
        assert!(
            on.fairness > off.fairness,
            "fairness: on={:.3} must beat off={:.3}",
            on.fairness,
            off.fairness
        );
        assert!(on.stats.breaker_trips > 0, "the flapping hotspot must trip breakers");
        assert!(on.diverted > 0, "blocked attaches must divert to the healthy hotspot");
        // The inquiry dedup counters instrument the always-on cached-frame
        // path; every gated layer must count nothing while disabled.
        let gated = ResilienceStats {
            inquiries_cached: off.stats.inquiries_cached,
            inquiries_encoded: off.stats.inquiries_encoded,
            ..ResilienceStats::default()
        };
        assert_eq!(off.stats, gated, "disabled layers count nothing");
        assert!(
            off.stats.inquiries_cached > 0,
            "hot neighbours must hit the cached frame"
        );
    }
}
