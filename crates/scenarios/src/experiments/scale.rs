//! E12: dense-city discovery and handover at 1k–10k nodes.
//!
//! The thesis evaluates PeerHood on a handful of devices; E12 is the scale
//! family the spatially-indexed world opens up: a city block populated at a
//! configurable density where every device periodically scans its
//! neighbourhood, attaches to the best peer and hands over when the link
//! quality degrades below the "signal low" threshold.
//!
//! The experiment deliberately drives the `simnet` substrate with a
//! lightweight agent instead of the full middleware stack: its purpose is to
//! measure that the *world* — discovery, link checks, delivery — sustains
//! thousands of concurrent devices, which is exactly what the grid index
//! accelerates. Every reported number is deterministic in the seed.

use simnet::prelude::*;

use crate::experiments::city::City;
use crate::experiments::metropolis::aggregate_full_stats;
use crate::experiments::params::Param;
use crate::experiments::probe::CityProbe;
use crate::report::ExperimentReport;

/// E12 at full size (`repro` without `--quick`): 1k–10k nodes.
pub fn full() -> City {
    City {
        seed: 12,
        nodes: vec![1_000, 2_500, 5_000, 10_000],
        density_per_km2: 2_000.0,
        mobile_fraction: 0.25,
        duration: SimDuration::from_secs(300),
        inquiry_interval: SimDuration::from_secs(8),
        ..City::default()
    }
}

/// E12 reduced for CI and `cargo test`.
pub fn quick() -> City {
    City {
        nodes: vec![150, 400],
        duration: SimDuration::from_secs(90),
        inquiry_interval: SimDuration::from_secs(10),
        ..full()
    }
}

/// The grid parameters of E12.
pub const PARAMS: &[Param<City>] = &[
    City::nodes().help("city population (replaces the node-count sweep)"),
    City::density(),
    City::mobile_fraction(),
    City::duration_s().help("simulated seconds per run"),
];

/// One dense-city run; returns the populated world after `duration`.
/// Honours the thread's [`telemetry`](crate::telemetry) settings.
fn city_run(city: &City, nodes: usize) -> World {
    let mut world = city.world(nodes);
    for (i, mobility, _) in city.placement(nodes, 0xC17F) {
        let probe = CityProbe::with(city.inquiry_interval, city.ping_interval, true);
        world.add_node(format!("c{i}"), mobility, &[RadioTech::Wlan], Box::new(OnWorld(probe)));
    }
    let scope = format!("E12 nodes={nodes}");
    crate::telemetry::observe(&mut world, &scope, city.duration);
    world
}

/// E12 (beyond the thesis): dense-city discovery and handover at scale.
pub fn e12_dense_city(city: &City) -> ExperimentReport {
    let mut report = ExperimentReport::new(&[
        "nodes",
        "side (m)",
        "avg neighbors",
        "inquiries",
        "links established",
        "handovers",
        "coverage drops",
    ]);
    for &nodes in &city.nodes {
        let mut world = city_run(city, nodes);
        let ids: Vec<NodeId> = world.node_ids().collect();
        // Ground-truth neighbourhood size, sampled over a deterministic
        // subset to keep the report cheap at 10k nodes.
        let sample: Vec<NodeId> = ids.iter().step_by((ids.len() / 100).max(1)).copied().collect();
        let avg_neighbors = sample
            .iter()
            .map(|id| world.neighbors_in_range(*id, RadioTech::Wlan).len() as f64)
            .sum::<f64>()
            / sample.len() as f64;
        // Nothing crashes in E12, so every route break is a coverage drop.
        let (stats, _) = aggregate_full_stats(&mut world);
        let g = world.metrics().global();
        report.push_row([
            nodes.to_string(),
            format!("{:.0}", city.side_m(nodes)),
            ExperimentReport::f(avg_neighbors),
            g.inquiries_started.to_string(),
            g.connects_established.to_string(),
            stats.handover_completions.to_string(),
            stats.route_breaks().to_string(),
        ]);
    }
    report.push_note(format!(
        "constant density {} nodes/km^2, {:.0}% mobile, {}s simulated per row",
        city.density_per_km2,
        city.mobile_fraction * 100.0,
        city.duration.as_secs_f64()
    ));
    report
}
