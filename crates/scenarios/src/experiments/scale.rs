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
use crate::experiments::params::{count, Param};
use crate::experiments::probe::CityProbe;
use crate::report::ExperimentReport;

/// Settings for the E12 dense-city scale runs.
#[derive(Debug, Clone)]
pub struct ScaleSettings {
    /// The shared city core (seed 12).
    pub city: City,
    /// Total node counts to sweep.
    pub node_counts: Vec<usize>,
}

impl ScaleSettings {
    /// The full sizes (`repro` without `--quick`): 1k–10k nodes.
    pub fn full() -> Self {
        ScaleSettings {
            city: City {
                seed: 12,
                density_per_km2: 2_000.0,
                mobile_fraction: 0.25,
                duration: SimDuration::from_secs(300),
                inquiry_interval: SimDuration::from_secs(8),
                // E12 installs no churn.
                mean_downtime: SimDuration::ZERO,
            },
            node_counts: vec![1_000, 2_500, 5_000, 10_000],
        }
    }

    /// A reduced variant for CI and `cargo test`.
    pub fn quick() -> Self {
        let mut quick = ScaleSettings::full();
        quick.node_counts = vec![150, 400];
        quick.city.duration = SimDuration::from_secs(90);
        quick.city.inquiry_interval = SimDuration::from_secs(10);
        quick
    }

    /// The grid parameters of E12.
    pub const PARAMS: &'static [Param<Self>] = &[
        Param::new("nodes", "city population (replaces the node-count sweep)", |s, v| {
            count(v).map(|n| s.node_counts = vec![n])
        }),
        City::density(),
        City::mobile_fraction(),
        City::duration_s().help("simulated seconds per run"),
    ];
}

impl AsMut<City> for ScaleSettings {
    fn as_mut(&mut self) -> &mut City {
        &mut self.city
    }
}

/// One dense-city run; returns the populated world after `duration`.
/// Honours the thread's [`telemetry`](crate::telemetry) settings.
fn city_run(settings: &ScaleSettings, nodes: usize) -> World {
    let city = &settings.city;
    let mut world = city.world(nodes);
    for (i, mobility, _) in city.placement(nodes, 0xC17F) {
        let probe = CityProbe::with(city.inquiry_interval, None, true);
        world.add_node(format!("c{i}"), mobility, &[RadioTech::Wlan], Box::new(OnWorld(probe)));
    }
    let scope = format!("E12 nodes={nodes}");
    crate::telemetry::observe(&mut world, &scope, city.duration);
    world
}

/// E12 (beyond the thesis): dense-city discovery and handover at scale.
pub fn e12_dense_city(settings: &ScaleSettings) -> ExperimentReport {
    let mut report = ExperimentReport::new(&[
        "nodes",
        "side (m)",
        "avg neighbors",
        "inquiries",
        "links established",
        "handovers",
        "coverage drops",
    ]);
    for &nodes in &settings.node_counts {
        let mut world = city_run(settings, nodes);
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
            format!("{:.0}", settings.city.side_m(nodes)),
            ExperimentReport::f(avg_neighbors),
            g.inquiries_started.to_string(),
            g.connects_established.to_string(),
            stats.handover_completions.to_string(),
            stats.route_breaks().to_string(),
        ]);
    }
    report.push_note(format!(
        "constant density {} nodes/km^2, {:.0}% mobile, {}s simulated per row",
        settings.city.density_per_km2,
        settings.city.mobile_fraction * 100.0,
        settings.city.duration.as_secs_f64()
    ));
    report
}
