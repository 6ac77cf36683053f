//! E18: the hotspot metropolis — a flash crowd on the sharded engine.
//!
//! E17 proves the sharded world is deterministic at any shard count; this
//! experiment builds its worst case for *speed*. Most of the city's devices
//! — and almost all of its radio traffic — pile into one district: a dense
//! milling crowd inside the district plus a stream of pedestrians walking in
//! from across the city, over a sparse stationary background. Under
//! equal-width stripes the stripe containing the district would do nearly
//! all the work each window while the others wait at the barrier; the
//! sharded world's load-balanced partition narrows the hot stripes until
//! every worker carries about equal load.
//!
//! Like E17, the report is built to prove an invariance: it carries the full
//! run digest and deliberately no shard- or partition-dependent cell. Rerun
//! it at a different `--shards` value and diff the output: it must be empty,
//! because the partition only ever decides which thread executes a node,
//! never what the node observes. Only the wall clock changes.

use simnet::prelude::*;

use crate::experiments::city::City;
use crate::experiments::params::{number, Param};
use crate::experiments::probe::CityProbe;
use crate::experiments::sharded::{probe_stats, sharded_world_digest};
use crate::report::ExperimentReport;

/// What E18 adds to its city: how the crowd is split.
#[derive(Debug, Clone, Default)]
pub struct HotspotSettings {
    /// Fraction of nodes milling inside the hotspot district.
    pub crowd_fraction: f64,
    /// Fraction of nodes walking in from across the city ("converging").
    pub inbound_fraction: f64,
}

/// E18 at full size (`repro` without `--quick`). The overall density fixes
/// the city's side length (the district is far denser); placement is the
/// crowd's own and nothing churns, so `mobile_fraction` and the churn
/// settings stay unset.
pub fn full() -> City<HotspotSettings> {
    City {
        seed: 18,
        nodes: vec![100_000],
        density_per_km2: 1_000.0,
        duration: SimDuration::from_secs(90),
        inquiry_interval: SimDuration::from_secs(20),
        ping_interval: Some(SimDuration::from_secs(10)),
        shards: 2,
        extra: HotspotSettings {
            crowd_fraction: 0.55,
            inbound_fraction: 0.15,
        },
        ..City::default()
    }
}

/// E18's CI variant: a smaller crowd over a shorter horizon.
pub fn quick() -> City<HotspotSettings> {
    City {
        nodes: vec![30_000],
        duration: SimDuration::from_secs(45),
        ..full()
    }
}

/// The grid parameters of E18.
pub const PARAMS: &[Param<City<HotspotSettings>>] = &[
    City::shards(),
    City::nodes(),
    City::density().help("overall devices per square kilometre"),
    Param::new(
        "crowd_fraction",
        "fraction of nodes milling inside the hotspot district",
        |s, v| number(v).map(|f| s.extra.crowd_fraction = f.clamp(0.0, 1.0)),
    ),
    City::duration_s(),
];

/// The hotspot district of a city of side `side`: a square of a quarter of
/// the side, centred right-of-centre so it sits inside the last stripes of
/// an equal-width partition — the worst case for static load balance.
fn district(side: f64) -> Rect {
    let d = 0.25 * side;
    let (cx, cy) = (0.78 * side, 0.5 * side);
    Rect::new(cx - d / 2.0, cy - d / 2.0, cx + d / 2.0, cy + d / 2.0)
}

/// Builds and runs a hotspot metropolis of `nodes` probes, returning the
/// world for inspection. Identical `(city minus shards)` produce identical
/// results at any shard count.
pub fn hotspot_metropolis_run(city: &City<HotspotSettings>, nodes: usize) -> ShardedWorld {
    let side = city.side_m(nodes);
    let district = district(side);
    let mut world = ShardedWorld::new(city.sharded_config(nodes, 2.5));
    let mut placer = SimRng::new(city.seed ^ 0x407_5907 ^ (nodes as u64));
    let crowd = (nodes as f64 * city.extra.crowd_fraction).round() as usize;
    let inbound = (nodes as f64 * city.extra.inbound_fraction).round() as usize;
    for i in 0..nodes {
        let mobility = if i < crowd {
            // The flash crowd: milling pedestrians inside the district.
            let start = Point::new(
                placer.uniform_f64(district.min_x, district.max_x),
                placer.uniform_f64(district.min_y, district.max_y),
            );
            MobilityModel::RandomWaypoint {
                area: district,
                start,
                min_speed_mps: 0.5,
                max_speed_mps: 1.5,
                pause: SimDuration::from_secs(15),
            }
        } else if i < crowd + inbound {
            // Converging pedestrians: a straight walk from anywhere in the
            // city towards a point inside the district.
            let start = Point::new(placer.uniform_f64(0.0, side), placer.uniform_f64(0.0, side));
            let target = Point::new(
                placer.uniform_f64(district.min_x, district.max_x),
                placer.uniform_f64(district.min_y, district.max_y),
            );
            MobilityModel::walk(start, target, 2.0)
        } else {
            // Sparse stationary background across the rest of the city.
            let start = Point::new(placer.uniform_f64(0.0, side), placer.uniform_f64(0.0, side));
            MobilityModel::stationary(start)
        };
        world.add_node(
            format!("h{i}"),
            mobility,
            &[RadioTech::Wlan],
            Box::new(CityProbe::with(city.inquiry_interval, city.ping_interval, true)),
        );
    }
    let scope = format!("E18 nodes={nodes} shards={}", city.shards);
    crate::telemetry::instrument_sharded(&mut world, &scope);
    world.run_for(city.duration);
    crate::telemetry::finish_sharded(&mut world, &scope);
    world
}

/// E18 (beyond the thesis): the hotspot metropolis.
///
/// The report is identical for every shard count by construction — it
/// includes the run digest and omits the knob, so `diff`-ing two runs that
/// differ only in `--shards` is the invariance check itself.
pub fn e18_hotspot_metropolis(city: &City<HotspotSettings>) -> ExperimentReport {
    let mut report = ExperimentReport::new(&[
        "nodes",
        "side (m)",
        "crowd %",
        "inquiries",
        "links established",
        "handovers",
        "coverage drops",
        "pings delivered",
        "digest",
    ]);
    for &nodes in &city.nodes {
        let mut world = hotspot_metropolis_run(city, nodes);
        let (stats, _) = probe_stats(&mut world);
        let digest = sharded_world_digest(&world);
        let g = world.metrics().global();
        report.push_row([
            nodes.to_string(),
            format!("{:.0}", city.side_m(nodes)),
            format!("{:.0}", city.extra.crowd_fraction * 100.0),
            g.inquiries_started.to_string(),
            g.connects_established.to_string(),
            stats.handover_completions.to_string(),
            stats.route_breaks().to_string(),
            g.messages_delivered.to_string(),
            format!("{digest:016x}"),
        ]);
    }
    report.push_note(format!(
        "{:.0}% of nodes mill inside a district of a quarter of the city's side (right of \
         centre), {:.0}% walk in from across the city, the rest are stationary background; \
         windowed execution (1s lookahead), digest covers all counters, per-node tallies and the \
         lifecycle stream",
        city.extra.crowd_fraction * 100.0,
        city.extra.inbound_fraction * 100.0,
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// E18 at 600 nodes over 60 s on `shards` threads: a debug-build city.
    fn small(shards: usize) -> City<HotspotSettings> {
        City {
            nodes: vec![600],
            duration: SimDuration::from_secs(60),
            shards,
            ..quick()
        }
    }

    #[test]
    fn smoke_city_report_is_shard_and_adaptivity_invariant() {
        // One shard never re-cuts; four re-cut as the crowd skews the load.
        let a = e18_hotspot_metropolis(&small(1));
        let b = e18_hotspot_metropolis(&small(4));
        assert_eq!(
            a.to_string(),
            b.to_string(),
            "report must not depend on shard count or re-cuts"
        );
        let world = hotspot_metropolis_run(&small(1), 600);
        assert!(world.metrics().global().connects_established > 0);
        assert!(world.metrics().global().messages_delivered > 0);
        assert_eq!(
            world.partition_stats().rebalances,
            0,
            "one stripe has nothing to balance"
        );
    }

    /// `sharded_world_digest` of the smoke hotspot as the parent of PR 17
    /// computed it: equal across commits, not only across partitions.
    const PINNED_SMOKE_DIGEST: u64 = 0x9d0f_ec7e_7b7a_586d;

    #[test]
    fn smoke_hotspot_digest_is_pinned_at_two_and_three_shards() {
        for shards in [2, 3] {
            let world = hotspot_metropolis_run(&small(shards), 600);
            let digest = sharded_world_digest(&world);
            assert_eq!(
                digest, PINNED_SMOKE_DIGEST,
                "smoke digest {digest:#018x} moved at shards={shards}"
            );
            assert!(world.partition_stats().rebalances > 0, "shards={shards} never re-cut");
        }
    }

    #[test]
    fn smoke_city_actually_rebalances() {
        let world = hotspot_metropolis_run(&small(4), 600);
        let stats = world.partition_stats();
        assert!(stats.windows > 0, "barriers must fold the load model");
        assert!(
            stats.rebalances > 0,
            "the flash crowd must trip the hysteresis gate (imbalance {:.2})",
            stats.last_imbalance
        );
        assert!(
            world.stripe_cuts().windows(2).all(|w| w[0] <= w[1]),
            "cuts must stay monotone"
        );
    }
}
