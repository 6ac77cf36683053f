//! E15: the full-stack metropolis — thousands of **real PeerHood stacks**
//! under discovery, sessions and churn.
//!
//! E12–E14 proved the *substrate* scales; E15 is the claim the paper
//! actually makes: the **middleware** survives mobility and failure — now at
//! a scale the thesis testbed could never reach. Every node runs the
//! complete PeerHood stack (daemon, discovery plugins, engine, connection
//! table, handover machinery) plus the [`MetroApp`](super::full_stack::MetroApp) service workload, while
//! a seeded churn schedule crashes and reboots a slice of the city.
//!
//! The per-node cost that makes this run at all comes from the zero-copy
//! frame / shared-payload / allocation-lean storage refactor; the
//! `city_fullstack` workload of `benchmark/` records it on every PR.

use simnet::prelude::*;

use crate::experiments::city::City;
use crate::experiments::full_stack::{metro_configs, FullStackHost, FullStats};
use crate::experiments::params::Param;
use crate::experiments::probe::CityProbe;
use crate::report::ExperimentReport;

/// E15 at full size (`repro` without `--quick`): 2k nodes, every tenth
/// churning; `inquiry_interval` is every node's discovery plugin's.
pub fn full() -> City {
    City {
        seed: 15,
        nodes: vec![2_000],
        density_per_km2: 2_000.0,
        mobile_fraction: 0.25,
        duration: SimDuration::from_secs(240),
        inquiry_interval: SimDuration::from_secs(10),
        churn_per_hour: vec![40.0],
        mean_downtime: SimDuration::from_secs(20),
        ..City::default()
    }
}

/// E15's CI variant: the same 2k-node city over a shorter horizon.
pub fn quick() -> City {
    City {
        duration: SimDuration::from_secs(90),
        ..full()
    }
}

/// The grid parameters of E15.
pub const PARAMS: &[Param<City>] = &[
    City::nodes().help("city population (every node runs the full stack)"),
    City::density(),
    City::churn(),
    City::mobile_fraction(),
    City::duration_s(),
];

/// Builds and runs a metropolis of `nodes` full stacks, every tenth
/// churning at `churn_per_hour`, returning the world for inspection.
pub fn metropolis_run(city: &City, nodes: usize, churn_per_hour: f64) -> World {
    let mut world = city.world(nodes);
    let (static_cfg, mobile_cfg) = metro_configs(city.inquiry_interval);
    for (i, mobility, is_mobile) in city.placement(nodes, 0x3E7A0) {
        let cfg = if is_mobile { &mobile_cfg } else { &static_cfg };
        world.add_node(
            format!("m{i}"),
            mobility,
            &[RadioTech::Wlan],
            Box::new(FullStackHost::new(cfg.clone())),
        );
    }
    let ids: Vec<NodeId> = world.node_ids().collect();
    city.install_churn(&ids, 10, churn_per_hour, 0xFA17_3E70, |node, plan| {
        world.install_fault_plan(node, plan)
    });
    let scope = format!("E15 nodes={nodes}");
    city.run(&mut world, &scope, |world| refresh_stack_gauges(world, &ids));
    world
}

/// Mirrors the middleware-level state the substrate cannot see — session,
/// handover and resilience-pipeline tallies summed over every stack — into
/// the telemetry plane. Only called between sample frames when telemetry is
/// on; reads agent state without mutating it.
fn refresh_stack_gauges(world: &mut World, ids: &[NodeId]) {
    let mut resilience = peerhood::resilience::ResilienceStats::default();
    let (total, attached) = FullStats::tally(ids.iter().filter_map(|id| {
        world.with_agent::<FullStackHost, _>(*id, |a, _| {
            resilience.absorb(&a.node().resilience_stats());
            (a.stats(), a.attached())
        })
    }));
    if let Some(tel) = world.telemetry_mut() {
        tel.set_counter("sessions", "established", None, total.sessions_established);
        tel.set_gauge("sessions", "attached", None, attached as f64);
        tel.set_counter("handover", "completions", None, total.handover_completions);
        tel.set_counter("handover", "route_changes", None, total.route_changes);
        resilience.export(tel);
    }
}

/// Sums every live node's [`FullStats`] and counts the attached nodes,
/// whichever agent populates the city.
pub fn aggregate_full_stats(world: &mut World) -> (FullStats, usize) {
    let ids: Vec<NodeId> = world.node_ids().collect();
    FullStats::tally(ids.into_iter().filter_map(|id| {
        world
            .with_agent::<CityProbe, _>(id, |a, _| (a.stats(), a.attached()))
            .or_else(|| world.with_agent::<FullStackHost, _>(id, |a, _| (a.stats(), a.attached())))
    }))
}

/// E15 (beyond the thesis): the full-stack metropolis.
pub fn e15_full_stack_metropolis(city: &City) -> ExperimentReport {
    let mut report = ExperimentReport::new(&[
        "nodes",
        "sessions",
        "pings delivered",
        "broken by churn",
        "broken by range",
        "handovers",
        "crashes",
        "restarts",
        "attached %",
    ]);
    let mut total = FullStats::default();
    for (nodes, rate) in city.cells() {
        let mut world = metropolis_run(city, nodes, rate);
        let (stats, attached) = aggregate_full_stats(&mut world);
        let fault = world.fault_stats();
        report.push_row([
            nodes.to_string(),
            stats.sessions_established.to_string(),
            stats.payloads_received.to_string(),
            stats.broken_by_crash.to_string(),
            stats.broken_by_range.to_string(),
            stats.handover_completions.to_string(),
            fault.crashes.to_string(),
            fault.restarts.to_string(),
            ExperimentReport::f(100.0 * attached as f64 / nodes as f64),
        ]);
        total.absorb(&stats);
    }
    let mean_reconnect = if total.reconnects == 0 {
        0.0
    } else {
        total.reconnect_secs_total / total.reconnects as f64
    };
    report.push_note(format!(
        "full PeerHood stack on every node; density {} nodes/km^2, {:.0}% mobile, every 10th node \
         churning at {}/h (mean downtime {}s), {}s simulated; mean reconnect {:.2}s over {} samples \
         (ended by a provider switch's first dial {}, by its second chance {}, by the app's own dial {}); \
         {} handovers began before the break",
        city.density_per_km2,
        city.mobile_fraction * 100.0,
        city.churn_rates(),
        city.mean_downtime.as_secs(),
        city.duration.as_secs_f64(),
        mean_reconnect,
        total.reconnects,
        total.switched_first_dial,
        total.switched_second_chance,
        total.redialled,
        total.proactive_handover_completions,
    ));
    report
}
