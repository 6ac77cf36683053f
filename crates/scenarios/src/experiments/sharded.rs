//! E17: the sharded metropolis — one run, 100k+ nodes, many cores.
//!
//! E12–E16 scale the *population*; E17 scales the *machine*. The city runs
//! on [`ShardedWorld`]: the area is split into vertical stripes, each owned
//! by one worker thread, advancing in conservative lookahead windows with
//! cross-shard effects merged canonically at every barrier. The headline
//! property — and the thing this experiment's report is built to prove — is
//! that the shard count is **pure load partitioning**: the same seed
//! produces byte-identical results on 1, 2, 4 or 8 shards, so the report
//! carries a digest of every counter, per-node tally and lifecycle event,
//! and deliberately never mentions the shard count itself. Run it twice with
//! different `--shards` values and `diff` the output: it must be empty.
//!
//! The workload is the E12 city probe: every device periodically scans its
//! WLAN neighbourhood, attaches to the best-quality peer, pings it, and hands
//! over when the monitored quality drops below the thesis' "signal low"
//! threshold — under light seeded churn, at metropolitan population (100k
//! nodes quick, 250k full).

use simnet::prelude::*;
use simnet::telemetry::Fnv1a;

use crate::experiments::city::City;
use crate::experiments::full_stack::FullStats;
use crate::experiments::params::{count, number, Param};
use crate::experiments::probe::CityProbe;
use crate::report::ExperimentReport;

/// Settings for the E17 sharded-metropolis run.
#[derive(Debug, Clone)]
pub struct ShardedSettings {
    /// The shared city core (seed 17).
    pub city: City,
    /// City population.
    pub nodes: usize,
    /// Expected crashes per churning node per hour (every tenth node
    /// churns). Zero disables the fault engine.
    pub churn_per_hour: f64,
    /// How often an attached device pings its peer.
    pub ping_interval: SimDuration,
    /// Worker threads to run the world on. Changes wall-clock time only,
    /// never results.
    pub shards: usize,
}

impl ShardedSettings {
    /// The full-size run (`repro` without `--quick`): a quarter-million nodes.
    pub fn full() -> Self {
        ShardedSettings {
            city: City {
                seed: 17,
                density_per_km2: 1_000.0,
                mobile_fraction: 0.2,
                duration: SimDuration::from_secs(120),
                inquiry_interval: SimDuration::from_secs(20),
                mean_downtime: SimDuration::from_secs(25),
            },
            nodes: 250_000,
            churn_per_hour: 20.0,
            ping_interval: SimDuration::from_secs(10),
            shards: 2,
        }
    }

    /// The CI variant: a 100k-node city over a shorter horizon.
    pub fn quick() -> Self {
        let mut quick = ShardedSettings::full();
        quick.nodes = 100_000;
        quick.city.duration = SimDuration::from_secs(45);
        quick
    }

    /// A small population for debug-build smoke tests (`cargo test`).
    pub fn smoke() -> Self {
        let mut smoke = ShardedSettings::full();
        smoke.nodes = 600;
        smoke.city.duration = SimDuration::from_secs(60);
        smoke
    }

    /// The grid parameters of E17.
    pub const PARAMS: &'static [Param<Self>] = &[
        Param::new(
            "shards",
            "worker threads (wall-clock only; results are shard-invariant)",
            |s, v| count(v).map(|n| s.shards = n.max(1)),
        ),
        Param::new("nodes", "city population", |s, v| count(v).map(|n| s.nodes = n)),
        City::density(),
        Param::new("churn", "crashes per churning node per hour", |s, v| {
            number(v).map(|rate| s.churn_per_hour = rate)
        }),
        City::mobile_fraction(),
        City::duration_s(),
    ];
}

impl AsMut<City> for ShardedSettings {
    fn as_mut(&mut self) -> &mut City {
        &mut self.city
    }
}

/// The probe of the sharded cities, under the name `benchmark/` builds it by:
/// [`CityProbe::new`] — scan, attach, ping, hand over.
pub type ShardCityAgent = CityProbe;

/// Sums every live probe's [`FullStats`] and counts the attached ones.
pub fn probe_stats(world: &mut ShardedWorld) -> (FullStats, usize) {
    let ids: Vec<NodeId> = world.node_ids().collect();
    FullStats::tally(
        ids.into_iter()
            .filter_map(|id| world.with_agent::<CityProbe, _>(id, |a| a.stats())),
    )
}

/// Builds and runs the sharded metropolis, returning the world for
/// inspection. Identical `(settings minus shards)` produce identical worlds
/// at any shard count.
pub fn sharded_metropolis_run(settings: &ShardedSettings) -> ShardedWorld {
    let city = &settings.city;
    let mut world = ShardedWorld::new(city.sharded_config(settings.nodes, settings.shards, 2.0));
    for (i, mobility, _) in city.placement(settings.nodes, 0x5AD0) {
        world.add_node(
            format!("s{i}"),
            mobility,
            &[RadioTech::Wlan],
            Box::new(CityProbe::new(city.inquiry_interval, settings.ping_interval)),
        );
    }
    let ids: Vec<NodeId> = world.node_ids().collect();
    city.install_churn(&ids, 10, settings.churn_per_hour, 0xFA17_5A4D, |node, plan| {
        world.install_fault_plan(node, &plan)
    });
    let scope = format!("E17 nodes={} shards={}", settings.nodes, settings.shards);
    crate::telemetry::instrument_sharded(&mut world, &scope);
    world.run_for(city.duration);
    crate::telemetry::finish_sharded(&mut world, &scope);
    world
}

/// FNV-1a digest of everything the run produced: global counters, the
/// per-node counter stream, the per-technology traffic split, fault stats
/// and the canonical lifecycle stream. Two runs agree on this digest only if
/// they agree on every number the world can report — the single cell CI
/// diffs across shard counts.
pub fn sharded_world_digest(world: &ShardedWorld) -> u64 {
    let mut digest = Fnv1a::default();
    let mut fold = |v: u64| digest.write(&v.to_le_bytes());
    let fold_counters = |fold: &mut dyn FnMut(u64), c: &Counters| {
        fold(c.inquiries_started);
        fold(c.inquiry_hits);
        fold(c.connect_attempts);
        fold(c.connect_failures);
        fold(c.connects_established);
        fold(c.messages_sent);
        fold(c.bytes_sent);
        fold(c.messages_delivered);
        fold(c.messages_lost);
        fold(c.links_broken);
        fold(c.quality_samples);
    };
    fold_counters(&mut fold, world.metrics().global());
    for (id, counters) in world.metrics().iter_nodes() {
        fold(id.as_raw());
        fold_counters(&mut fold, counters);
    }
    for tech in [RadioTech::Bluetooth, RadioTech::Wlan, RadioTech::Gprs] {
        fold(world.metrics().messages_for_tech(tech));
        fold(world.metrics().bytes_for_tech(tech));
    }
    let stats = world.fault_stats();
    fold(stats.crashes);
    fold(stats.restarts);
    fold(stats.radio_outages);
    fold(stats.radio_restores);
    for event in world.lifecycle_events() {
        fold(event.at.as_micros());
        fold(event.node.as_raw());
        fold(match event.kind {
            LifecycleKind::NodeDown => 1,
            LifecycleKind::NodeUp => 2,
            LifecycleKind::RadioDown(t) => 0x10 + t as u64,
            LifecycleKind::RadioUp(t) => 0x20 + t as u64,
        });
    }
    digest.finish()
}

/// E17 (beyond the thesis): the sharded metropolis.
///
/// The report is identical for every shard count by construction — it
/// includes the run digest and omits the shard count, so `diff`-ing two
/// runs at different `--shards` values is the invariance check itself.
pub fn e17_sharded_metropolis(settings: &ShardedSettings) -> ExperimentReport {
    let mut report = ExperimentReport::new(&[
        "nodes",
        "side (m)",
        "inquiries",
        "links established",
        "handovers",
        "coverage drops",
        "pings delivered",
        "crashes",
        "restarts",
        "digest",
    ]);
    let mut world = sharded_metropolis_run(settings);
    let (stats, _) = probe_stats(&mut world);
    let digest = sharded_world_digest(&world);
    let g = world.metrics().global();
    let fault = world.fault_stats();
    report.push_row([
        settings.nodes.to_string(),
        format!("{:.0}", settings.city.side_m(settings.nodes)),
        g.inquiries_started.to_string(),
        g.connects_established.to_string(),
        stats.handover_completions.to_string(),
        stats.route_breaks().to_string(),
        g.messages_delivered.to_string(),
        fault.crashes.to_string(),
        fault.restarts.to_string(),
        format!("{digest:016x}"),
    ]);
    report.push_note(format!(
        "density {} nodes/km^2, {:.0}% mobile, every 10th node churning at {}/h (mean downtime \
         {}s), {}s simulated; windowed execution (1s lookahead), digest covers all counters, \
         per-node tallies and the lifecycle stream",
        settings.city.density_per_km2,
        settings.city.mobile_fraction * 100.0,
        settings.churn_per_hour,
        settings.city.mean_downtime.as_secs(),
        settings.city.duration.as_secs_f64(),
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_city_runs_and_report_is_shard_invariant() {
        let mut one = ShardedSettings::smoke();
        one.shards = 1;
        let mut four = ShardedSettings::smoke();
        four.shards = 4;
        let a = e17_sharded_metropolis(&one);
        let b = e17_sharded_metropolis(&four);
        assert_eq!(a.to_string(), b.to_string(), "report must not depend on shard count");
        // The city actually did something.
        let world = sharded_metropolis_run(&one);
        assert!(world.metrics().global().connects_established > 0);
        assert!(world.metrics().global().messages_delivered > 0);
    }

    /// `sharded_world_digest` of the smoke city. The test above proves the
    /// engine equal to itself across shard counts; this one proves it equal
    /// across commits. Re-blessed once (from `0xfae1_82fb_92f4_0306`): a
    /// crashing node no longer counts the halves it had closed gracefully
    /// into `links_broken`.
    const PINNED_SMOKE_DIGEST: u64 = 0x3fbb_1bfb_811f_5f0a;

    #[test]
    fn smoke_city_digest_is_pinned_at_1_2_and_3_shards() {
        for shards in [1, 2, 3] {
            let mut settings = ShardedSettings::smoke();
            settings.shards = shards;
            let digest = sharded_world_digest(&sharded_metropolis_run(&settings));
            assert_eq!(
                digest, PINNED_SMOKE_DIGEST,
                "smoke digest {digest:#018x} moved at {shards} shard(s)"
            );
        }
    }
}
