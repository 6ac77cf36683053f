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
//!   attach sees
//!   [`PeerHoodError::CircuitOpen`](peerhood::error::PeerHoodError::CircuitOpen)
//!   synchronously and the [`CrowdApp`](super::crowd::CrowdApp) diverts to
//!   the next known provider — the crowd converges on the healthy hotspot
//!   and stays there.
//!
//! Determinism: both modes run the *same* world seed (identical flap
//! phases), and the pipeline itself draws no randomness, so one seed gives
//! one byte-identical report per mode (asserted by the tests below).

use std::sync::Arc;

use peerhood::node::PeerHoodNode;
use peerhood::resilience::{ResilienceConfig, ResilienceStats};
use simnet::prelude::*;

use crate::experiments::city::wlan_world;
use crate::experiments::crowd::{Crowd, CrowdTally, HotspotApp};
use crate::experiments::full_stack::{add_stack, wlan_city_config};
use crate::experiments::params::{on_off, Param};
use crate::report::ExperimentReport;

/// What E16 adds to its crowd: the flapping hotspot's link schedule. The
/// inner half of the crowd spawns next to the flapping hotspot, the outer
/// half next to the healthy one.
#[derive(Debug, Clone)]
pub struct OverloadSettings {
    /// Full up+down cycle of the flapping hotspot's links.
    pub flap_period: SimDuration,
    /// Fraction of each flap period the links are up.
    pub flap_duty: f64,
}

/// E16 at full size (`repro` without `--quick`).
pub fn full() -> Crowd<OverloadSettings> {
    Crowd {
        seed: 16,
        clients: 24,
        duration: SimDuration::from_secs(240),
        inquiry_interval: SimDuration::from_secs(10),
        warmup: SimDuration::from_secs(40),
        ping_interval: SimDuration::from_secs(2),
        pings_per_tick: 2,
        extra: OverloadSettings {
            flap_period: SimDuration::from_secs(20),
            flap_duty: 0.5,
        },
    }
}

/// E16's CI variant: a smaller crowd over a shorter horizon.
pub fn quick() -> Crowd<OverloadSettings> {
    Crowd {
        clients: 16,
        duration: SimDuration::from_secs(120),
        ..full()
    }
}

/// The grid parameters of E16, over the crowd and the pipeline modes to run
/// (one report row each).
pub const PARAMS: &[Param<(Crowd<OverloadSettings>, Vec<bool>)>] = &[
    Param::new(
        "resilience",
        "run only one pipeline mode (default: an off row and an on row)",
        |(_, modes), v| on_off(v).map(|mode| *modes = vec![mode]),
    ),
    Crowd::clients().help("crowd size (half near each hotspot)"),
    Crowd::duration_s(),
];

/// The overload city, built and run in one pipeline mode. Returns the world
/// plus the crowd and hotspot node ids (hotspots: `[flapping, healthy]`).
///
/// Geometry (metres, everything inside everyone's WLAN disc): the flapping
/// hotspot at x=0, the healthy one at x=36, the inner crowd clustered at
/// x∈\[4,10\] (the flapping hotspot is its by-quality best provider) and the
/// outer crowd at x∈\[28,34\] (the healthy one is). The world seed — and with
/// it every flap phase — is independent of `resilience_on`, so the two
/// modes face the identical fault schedule.
pub fn overload_run(crowd: &Crowd<OverloadSettings>, resilience_on: bool) -> (World, Vec<NodeId>, Vec<NodeId>) {
    let mut world = wlan_world(crowd.seed ^ 0x0E16_0000);
    // Everyone static, WLAN, two-hop discovery: the E15 metro tuning at
    // crowd scale.
    let mut cfg = wlan_city_config("crowd", crowd.inquiry_interval);
    if resilience_on {
        cfg.resilience = ResilienceConfig::all_on();
    }
    let cfg = Arc::new(cfg);

    let hotspot = |world: &mut World, name: &str, x: f64| add_stack(world, name, Point::new(x, 10.0), &cfg, HotspotApp);
    let flapping = hotspot(&mut world, "hs-flapping", 0.0);
    let healthy = hotspot(&mut world, "hs-healthy", 36.0);

    let inner = crowd.clients / 2;
    let mut clients = Vec::with_capacity(crowd.clients);
    for i in 0..crowd.clients {
        let (base_x, j) = if i < inner { (4.0, i) } else { (28.0, i - inner) };
        let pos = Point::new(base_x + (j % 4) as f64 * 2.0, 6.0 + (j / 4) as f64 * 2.0);
        clients.push(add_stack(&mut world, format!("c{i}"), pos, &cfg, crowd.app()));
    }

    let mut plan = FaultPlan::new();
    for &client in &clients {
        plan = plan.flapping_link(client, crowd.extra.flap_period, crowd.extra.flap_duty);
    }
    world.install_fault_plan(flapping, plan);

    let scope = format!("E16 resilience={}", if resilience_on { "on" } else { "off" });
    // Mirror the pipeline's per-layer state (summed over every node) into
    // the `resilience` gauges between frames.
    let ids: Vec<NodeId> = world.node_ids().collect();
    crowd.run(
        &mut world,
        &scope,
        &ids,
        |total: &mut ResilienceStats, node| total.absorb(&node.resilience_stats()),
        ResilienceStats::export,
    );
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
pub fn overload_outcome(crowd: &Crowd<OverloadSettings>, resilience_on: bool) -> OverloadOutcome {
    let (mut world, clients, hotspots) = overload_run(crowd, resilience_on);
    let mut stats = ResilienceStats::default();
    let tally = CrowdTally::of(&mut world, &clients, |node| stats.absorb(&node.resilience_stats()));
    for &id in &hotspots {
        world.with_agent::<PeerHoodNode, _>(id, |node, _| stats.absorb(&node.resilience_stats()));
    }
    let min = tally.delivered.iter().copied().min().unwrap_or(0);
    let max = tally.delivered.iter().copied().max().unwrap_or(0);
    OverloadOutcome {
        goodput: tally.total.delivered,
        fairness: if max > 0 { min as f64 / max as f64 } else { 0.0 },
        sessions: tally.total.sessions_established,
        diverted: tally.total.diverted,
        mean_reconnect_s: if tally.total.reconnects > 0 {
            tally.total.reconnect_secs_total / tally.total.reconnects as f64
        } else {
            0.0
        },
        per_client: tally.delivered,
        stats,
    }
}

/// E16 (beyond the thesis): the overload city, with and without the
/// resilience pipeline. `modes` lists the pipeline states to run
/// (`false` = off, `true` = on), one report row each.
pub fn e16_overload(crowd: &Crowd<OverloadSettings>, modes: &[bool]) -> ExperimentReport {
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
        let o = overload_outcome(crowd, on);
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
        crowd.clients,
        crowd.extra.flap_period.as_secs(),
        crowd.extra.flap_duty * 100.0,
        crowd.pings_per_tick,
        crowd.ping_interval.as_secs(),
        crowd.warmup.as_secs(),
        crowd.duration.as_secs_f64(),
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// E16's quick crowd at eight clients: a debug-build city.
    fn small() -> Crowd<OverloadSettings> {
        Crowd { clients: 8, ..quick() }
    }

    /// Satellite: same seed ⇒ identical E16 report and identical per-node
    /// `ResilienceStats`, pipeline on and off — the subsystem draws no
    /// randomness of its own.
    #[test]
    fn overload_city_is_deterministic_in_both_modes() {
        let settings = small();
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
        let settings = small();
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
