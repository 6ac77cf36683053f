//! E13 and E14: fault & churn experiments on the `simnet::faults` subsystem.
//!
//! * **E13 "churn sweep"** — session survival and reconnection latency as a
//!   function of the node churn rate (seeded crash/restart schedules from
//!   [`FaultPlan::churn`]), at populations from a hundred to thousands of
//!   devices.
//! * **E14 "blackout & flash crowd"** — a mass radio outage combined with a
//!   crash wave whose restarts all land inside a few seconds (a restart
//!   storm), measuring how attachment collapses and recovers.
//!
//! Like E12, both drive the `simnet` substrate with a lightweight agent
//! rather than the full middleware: the subject under test is the world's
//! fault engine — lifecycle correctness, determinism and scale — not the
//! PeerHood protocol (whose fault reactions are covered by the middleware
//! test suites). Every number is deterministic in the seed.

use simnet::prelude::*;

use crate::experiments::city::{wlan_world, City};
use crate::experiments::metropolis::aggregate_full_stats;
use crate::experiments::params::Param;
use crate::experiments::probe::CityProbe;
use crate::report::ExperimentReport;

/// E13 at full size (`repro` without `--quick`): up to 2000 nodes; the
/// area grows with the population, like E12.
pub fn full() -> City {
    City {
        seed: 13,
        nodes: vec![100, 500, 2_000],
        density_per_km2: 2_000.0,
        mobile_fraction: 0.25,
        duration: SimDuration::from_secs(600),
        inquiry_interval: SimDuration::from_secs(8),
        churn_per_hour: vec![0.0, 20.0, 60.0],
        mean_downtime: SimDuration::from_secs(20),
        ..City::default()
    }
}

/// E13 reduced for CI and `cargo test`.
pub fn quick() -> City {
    City {
        nodes: vec![100],
        churn_per_hour: vec![0.0, 60.0, 240.0],
        duration: SimDuration::from_secs(150),
        mean_downtime: SimDuration::from_secs(15),
        ..full()
    }
}

/// The grid parameters of E13.
pub const PARAMS: &[Param<City>] = &[
    City::nodes().help("city population (replaces the node-count sweep)"),
    City::churn().help("crashes per node per hour (replaces the rate sweep)"),
    City::density(),
    City::mobile_fraction(),
    City::duration_s().help("simulated seconds per cell"),
    City::downtime_s(),
];

/// Builds the WLAN city and installs one churn plan per node (none when
/// `churn_per_hour` is zero, so the control run never touches the fault
/// engine).
fn churn_city(city: &City, nodes: usize, churn_per_hour: f64) -> World {
    let mut world = city.world(nodes);
    for (i, mobility, _) in city.placement(nodes, 0xC18E) {
        world.add_node(
            format!("c{i}"),
            mobility,
            &[RadioTech::Wlan],
            probe(city.inquiry_interval),
        );
    }
    let ids: Vec<NodeId> = world.node_ids().collect();
    let salt = 0xFA17 ^ (nodes as u64) ^ churn_per_hour.to_bits();
    city.install_churn(&ids, 1, churn_per_hour, salt, |node, plan| {
        world.install_fault_plan(node, plan)
    });
    let scope = format!("E13 nodes={nodes} churn={churn_per_hour:.0}");
    city.run(&mut world, &scope, |_| {});
    world
}

/// E13 (beyond the thesis): session survival and reconnection latency under
/// seeded node churn.
pub fn e13_churn_sweep(city: &City) -> ExperimentReport {
    let mut report = ExperimentReport::new(&[
        "nodes",
        "churn (/node/h)",
        "crashes",
        "restarts",
        "sessions",
        "broken by churn",
        "broken by range",
        "churn survival %",
        "mean reconnect (s)",
    ]);
    for (nodes, rate) in city.cells() {
        let mut world = churn_city(city, nodes, rate);
        let (tally, _) = aggregate_full_stats(&mut world);
        let stats = world.fault_stats();
        let survival = if tally.sessions_established == 0 {
            100.0
        } else {
            100.0 * (1.0 - tally.broken_by_crash as f64 / tally.sessions_established as f64)
        };
        let mean_reconnect = if tally.reconnects == 0 {
            0.0
        } else {
            tally.reconnect_secs_total / tally.reconnects as f64
        };
        report.push_row([
            nodes.to_string(),
            ExperimentReport::f(rate),
            stats.crashes.to_string(),
            stats.restarts.to_string(),
            tally.sessions_established.to_string(),
            tally.broken_by_crash.to_string(),
            tally.broken_by_range.to_string(),
            ExperimentReport::f(survival),
            ExperimentReport::f(mean_reconnect),
        ]);
    }
    report.push_note(format!(
        "constant density {} nodes/km^2, {:.0}% mobile, mean downtime {}s, {}s simulated per cell; \
         zero-churn rows are the control (no fault plan installed at all)",
        city.density_per_km2,
        city.mobile_fraction * 100.0,
        city.mean_downtime.as_secs(),
        city.duration.as_secs_f64()
    ));
    report
}

/// The light probe of the E13 and E14 cities: it re-attaches but never hands
/// over, since a handover would hide the break these experiments count.
fn probe(inquiry_interval: SimDuration) -> Box<dyn NodeAgent> {
    Box::new(OnWorld(CityProbe::with(inquiry_interval, None, false)))
}

/// Population of the E14 run, quick or full.
fn e14_nodes(quick: bool) -> usize {
    if quick {
        120
    } else {
        400
    }
}

/// E14 (beyond the thesis): a mass radio blackout plus a crash wave whose
/// restarts all land within a few seconds.
pub fn e14_blackout_flash_crowd(seed: u64, quick: bool) -> ExperimentReport {
    let nodes = e14_nodes(quick);
    // E13's quick city: its density and scan interval.
    let city = self::quick();
    let side = city.side_m(nodes);
    let mut world = wlan_world(seed ^ 0xE14);
    let mut placer = SimRng::new(seed ^ 0xB1AC0);
    for i in 0..nodes {
        let start = Point::new(placer.uniform_f64(0.0, side), placer.uniform_f64(0.0, side));
        // Every E14 device is stationary: all advertise Static.
        world.add_node(
            format!("b{i}"),
            MobilityModel::stationary(start),
            &[RadioTech::Wlan],
            probe(city.inquiry_interval),
        );
    }
    // The event: at t=120 s, 60 % of the devices lose their radio for 60 s
    // (staggered over two seconds, like a power sag rolling through a block)
    // and a further 25 % crash outright; every crashed device restarts
    // inside the same five-second window at t=180 s — the flash crowd.
    let blackout_at = SimTime::from_secs(120);
    let restart_storm = SimTime::from_secs(180);
    let mut stagger = SimRng::new(seed ^ 0x57A66);
    let ids: Vec<NodeId> = world.node_ids().collect();
    for (i, node) in ids.iter().enumerate() {
        let offset = SimDuration::from_millis(stagger.range(0u64..2_000));
        let plan = match i % 20 {
            0..=11 => FaultPlan::new().radio_outage(RadioTech::Wlan, blackout_at + offset, SimDuration::from_secs(60)),
            12..=16 => {
                let restart_offset = SimDuration::from_millis(stagger.range(0u64..5_000));
                FaultPlan::new()
                    .crash_at(blackout_at + offset)
                    .restart_at(restart_storm + restart_offset)
            }
            _ => FaultPlan::new(),
        };
        world.install_fault_plan(*node, plan);
    }

    let mut report = ExperimentReport::new(&["phase", "t (s)", "alive", "radios dark", "attached %", "open links"]);
    let mut sample = |world: &mut World, phase: &str| {
        let t = world.now().as_secs();
        let alive = ids.iter().filter(|id| world.is_alive(**id)).count();
        let dark = ids
            .iter()
            .filter(|id| world.is_alive(**id) && !world.radio_enabled(**id, RadioTech::Wlan))
            .count();
        let (_, attached) = aggregate_full_stats(world);
        let open_links = world.open_link_count();
        report.push_row([
            phase.to_string(),
            t.to_string(),
            alive.to_string(),
            dark.to_string(),
            ExperimentReport::f(100.0 * attached as f64 / ids.len() as f64),
            open_links.to_string(),
        ]);
    };
    let scope = format!("E14 nodes={nodes}");
    crate::telemetry::instrument_world(&mut world, &scope);
    world.run_until(SimTime::from_secs(115));
    sample(&mut world, "before");
    world.run_until(SimTime::from_secs(150));
    sample(&mut world, "blackout");
    world.run_until(SimTime::from_secs(300));
    sample(&mut world, "recovered");
    crate::telemetry::finish_world(&mut world, &scope);
    let stats = world.fault_stats();
    report.push_note(format!(
        "{} nodes; {} crashes, {} restarts, {} radio outages injected; every transition is in the \
         world's typed lifecycle stream ({} events)",
        nodes,
        stats.crashes,
        stats.restarts,
        stats.radio_outages,
        world.lifecycle_events().len()
    ));
    report
}
