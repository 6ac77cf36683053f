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
use crate::experiments::params::{count, number, Param};
use crate::experiments::probe::CityProbe;
use crate::report::ExperimentReport;

/// Settings for the E15 full-stack metropolis run.
#[derive(Debug, Clone)]
pub struct MetropolisSettings {
    /// The shared city core (seed 15; `inquiry_interval` is every node's
    /// discovery plugin's).
    pub city: City,
    /// City population. Every node runs the full middleware stack.
    pub nodes: usize,
    /// Expected crashes per churning node per hour (every tenth node
    /// churns). Zero disables the fault engine entirely.
    pub churn_per_hour: f64,
}

impl MetropolisSettings {
    /// The full-size run (`repro` without `--quick`).
    pub fn full() -> Self {
        MetropolisSettings {
            city: City {
                seed: 15,
                density_per_km2: 2_000.0,
                mobile_fraction: 0.25,
                duration: SimDuration::from_secs(240),
                inquiry_interval: SimDuration::from_secs(10),
                mean_downtime: SimDuration::from_secs(20),
            },
            nodes: 2_000,
            churn_per_hour: 40.0,
        }
    }

    /// The CI variant: same 2k-node city, shorter horizon.
    pub fn quick() -> Self {
        let mut quick = MetropolisSettings::full();
        quick.city.duration = SimDuration::from_secs(90);
        quick
    }

    /// The grid parameters of E15.
    pub const PARAMS: &'static [Param<Self>] = &[
        Param::new("nodes", "city population (every node runs the full stack)", |s, v| {
            count(v).map(|n| s.nodes = n)
        }),
        City::density(),
        Param::new("churn", "crashes per churning node per hour", |s, v| {
            number(v).map(|rate| s.churn_per_hour = rate)
        }),
        City::mobile_fraction(),
        City::duration_s(),
    ];
}

impl AsMut<City> for MetropolisSettings {
    fn as_mut(&mut self) -> &mut City {
        &mut self.city
    }
}

/// Builds and runs the metropolis, returning the world for inspection.
pub fn metropolis_run(settings: &MetropolisSettings) -> World {
    let city = &settings.city;
    let mut world = city.world(settings.nodes);
    let (static_cfg, mobile_cfg) = metro_configs(city.inquiry_interval);
    for (i, mobility, is_mobile) in city.placement(settings.nodes, 0x3E7A0) {
        let cfg = if is_mobile { &mobile_cfg } else { &static_cfg };
        world.add_node(
            format!("m{i}"),
            mobility,
            &[RadioTech::Wlan],
            Box::new(FullStackHost::new(cfg.clone())),
        );
    }
    let ids: Vec<NodeId> = world.node_ids().collect();
    city.install_churn(&ids, 10, settings.churn_per_hour, 0xFA17_3E70, |node, plan| {
        world.install_fault_plan(node, plan)
    });
    let scope = format!("E15 nodes={}", settings.nodes);
    crate::telemetry::instrument_world(&mut world, &scope);
    crate::telemetry::run_world(&mut world, city.duration, |world| {
        refresh_stack_gauges(world, &ids);
    });
    // Quiesce like E13: finish every scheduled restart so each probe's
    // counters are readable.
    while world.fault_stats().restarts < world.fault_stats().crashes {
        world.run_for(SimDuration::from_secs(5));
    }
    crate::telemetry::finish_world(&mut world, &scope);
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
            a.stats()
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
            .with_agent::<CityProbe, _>(id, |a, _| a.stats())
            .or_else(|| world.with_agent::<FullStackHost, _>(id, |a, _| a.stats()))
    }))
}

/// E15 (beyond the thesis): the full-stack metropolis.
pub fn e15_full_stack_metropolis(settings: &MetropolisSettings) -> ExperimentReport {
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
    let mut world = metropolis_run(settings);
    let (stats, attached) = aggregate_full_stats(&mut world);
    let fault = world.fault_stats();
    report.push_row([
        settings.nodes.to_string(),
        stats.sessions_established.to_string(),
        stats.payloads_received.to_string(),
        stats.broken_by_crash.to_string(),
        stats.broken_by_range.to_string(),
        stats.handover_completions.to_string(),
        fault.crashes.to_string(),
        fault.restarts.to_string(),
        ExperimentReport::f(100.0 * attached as f64 / settings.nodes as f64),
    ]);
    let mean_reconnect = if stats.reconnects == 0 {
        0.0
    } else {
        stats.reconnect_secs_total / stats.reconnects as f64
    };
    report.push_note(format!(
        "full PeerHood stack on every node; density {} nodes/km^2, {:.0}% mobile, every 10th node \
         churning at {}/h (mean downtime {}s), {}s simulated; mean reconnect {:.2}s over {} samples",
        settings.city.density_per_km2,
        settings.city.mobile_fraction * 100.0,
        settings.churn_per_hour,
        settings.city.mean_downtime.as_secs(),
        settings.city.duration.as_secs_f64(),
        mean_reconnect,
        stats.reconnects,
    ));
    report
}
