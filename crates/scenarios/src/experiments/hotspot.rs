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
use crate::experiments::params::{count, number, Param};
use crate::experiments::probe::CityProbe;
use crate::experiments::sharded::{probe_stats, sharded_world_digest};
use crate::report::ExperimentReport;

/// Settings for the E18 hotspot-metropolis run.
#[derive(Debug, Clone)]
pub struct HotspotSettings {
    /// The city half (seed 18): the overall density fixes the city's side
    /// length (the district is far denser). Placement is the crowd's own and
    /// nothing churns, so `mobile_fraction` and `mean_downtime` are unused.
    pub city: City,
    /// City population.
    pub nodes: usize,
    /// Fraction of nodes milling inside the hotspot district.
    pub crowd_fraction: f64,
    /// Fraction of nodes walking in from across the city ("converging").
    pub inbound_fraction: f64,
    /// How often an attached device pings its peer.
    pub ping_interval: SimDuration,
    /// Worker threads. Changes wall-clock time only, never results.
    pub shards: usize,
}

impl HotspotSettings {
    /// The full-size run (`repro` without `--quick`).
    pub fn full() -> Self {
        HotspotSettings {
            city: City {
                seed: 18,
                density_per_km2: 1_000.0,
                mobile_fraction: 0.0,
                duration: SimDuration::from_secs(90),
                inquiry_interval: SimDuration::from_secs(20),
                mean_downtime: SimDuration::ZERO,
            },
            nodes: 100_000,
            crowd_fraction: 0.55,
            inbound_fraction: 0.15,
            ping_interval: SimDuration::from_secs(10),
            shards: 2,
        }
    }

    /// The CI variant: a smaller crowd over a shorter horizon.
    pub fn quick() -> Self {
        let mut quick = HotspotSettings::full();
        quick.nodes = 30_000;
        quick.city.duration = SimDuration::from_secs(45);
        quick
    }

    /// A small population for debug-build smoke tests (`cargo test`).
    pub fn smoke() -> Self {
        let mut smoke = HotspotSettings::full();
        smoke.nodes = 600;
        smoke.city.duration = SimDuration::from_secs(60);
        smoke
    }

    /// The hotspot district: a square of a quarter of the city's side,
    /// centred right-of-centre so it sits inside the last stripes of an
    /// equal-width partition — the worst case for static load balance.
    pub fn district(&self) -> Rect {
        let side = self.city.side_m(self.nodes);
        let d = 0.25 * side;
        let (cx, cy) = (0.78 * side, 0.5 * side);
        Rect::new(cx - d / 2.0, cy - d / 2.0, cx + d / 2.0, cy + d / 2.0)
    }

    /// The grid parameters of E18.
    pub const PARAMS: &'static [Param<Self>] = &[
        Param::new(
            "shards",
            "worker threads (wall-clock only; results are shard-invariant)",
            |s, v| count(v).map(|n| s.shards = n.max(1)),
        ),
        Param::new("nodes", "city population", |s, v| count(v).map(|n| s.nodes = n)),
        City::density().help("overall devices per square kilometre"),
        Param::new(
            "crowd_fraction",
            "fraction of nodes milling inside the hotspot district",
            |s, v| number(v).map(|f| s.crowd_fraction = f.clamp(0.0, 1.0)),
        ),
        City::duration_s(),
    ];
}

impl AsMut<City> for HotspotSettings {
    fn as_mut(&mut self) -> &mut City {
        &mut self.city
    }
}

/// Builds and runs the hotspot metropolis, returning the world for
/// inspection. Identical `(settings minus shards)` produce identical
/// results at any shard count.
pub fn hotspot_metropolis_run(settings: &HotspotSettings) -> ShardedWorld {
    let city = &settings.city;
    let side = city.side_m(settings.nodes);
    let district = settings.district();
    let config = city.sharded_config(settings.nodes, settings.shards, 2.5);
    let mut world = ShardedWorld::new(config);
    let mut placer = SimRng::new(city.seed ^ 0x407_5907 ^ (settings.nodes as u64));
    let crowd = (settings.nodes as f64 * settings.crowd_fraction).round() as usize;
    let inbound = (settings.nodes as f64 * settings.inbound_fraction).round() as usize;
    for i in 0..settings.nodes {
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
            Box::new(CityProbe::new(city.inquiry_interval, settings.ping_interval)),
        );
    }
    let scope = format!("E18 nodes={} shards={}", settings.nodes, settings.shards);
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
pub fn e18_hotspot_metropolis(settings: &HotspotSettings) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "E18",
        "Hotspot metropolis: a flash crowd against the load-balanced sharded world",
        "Beyond the thesis: a flash crowd piles most of the city's devices and traffic into one \
         district — the worst case for equal-width spatial stripes, whose hottest shard then does \
         nearly all the work each window. Load-balanced sharding re-cuts stripe boundaries along \
         the per-shard load at window barriers (hysteresis-gated, from pure simulation state), \
         which changes wall-clock time only: this table carries a digest of every counter and no \
         shard- or partition-dependent cell. Rerun with a different --shards and diff — the output \
         must not change.",
        &[
            "nodes",
            "side (m)",
            "crowd %",
            "inquiries",
            "links established",
            "handovers",
            "coverage drops",
            "pings delivered",
            "digest",
        ],
    );
    let mut world = hotspot_metropolis_run(settings);
    let (stats, _) = probe_stats(&mut world);
    let digest = sharded_world_digest(&world);
    let g = world.metrics().global();
    report.push_row([
        settings.nodes.to_string(),
        format!("{:.0}", settings.city.side_m(settings.nodes)),
        format!("{:.0}", settings.crowd_fraction * 100.0),
        g.inquiries_started.to_string(),
        g.connects_established.to_string(),
        stats.handover_completions.to_string(),
        stats.route_breaks().to_string(),
        g.messages_delivered.to_string(),
        format!("{digest:016x}"),
    ]);
    report.push_note(format!(
        "{:.0}% of nodes mill inside a district of a quarter of the city's side (right of \
         centre), {:.0}% walk in from across the city, the rest are stationary background; \
         windowed execution (1s lookahead), digest covers all counters, per-node tallies and the \
         lifecycle stream",
        settings.crowd_fraction * 100.0,
        settings.inbound_fraction * 100.0,
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_city_report_is_shard_and_adaptivity_invariant() {
        // One shard never re-cuts; four re-cut as the crowd skews the load.
        let mut one = HotspotSettings::smoke();
        one.shards = 1;
        let mut four = HotspotSettings::smoke();
        four.shards = 4;
        let a = e18_hotspot_metropolis(&one);
        let b = e18_hotspot_metropolis(&four);
        assert_eq!(
            a.to_string(),
            b.to_string(),
            "report must not depend on shard count or re-cuts"
        );
        let world = hotspot_metropolis_run(&one);
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
            let mut settings = HotspotSettings::smoke();
            settings.shards = shards;
            let world = hotspot_metropolis_run(&settings);
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
        let mut settings = HotspotSettings::smoke();
        settings.shards = 4;
        let world = hotspot_metropolis_run(&settings);
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
