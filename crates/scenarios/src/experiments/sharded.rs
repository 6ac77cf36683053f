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
use crate::experiments::params::Param;
use crate::experiments::probe::CityProbe;
use crate::report::ExperimentReport;

/// E17 at full size (`repro` without `--quick`): a quarter-million nodes,
/// every tenth churning.
pub fn full() -> City {
    City {
        seed: 17,
        nodes: vec![250_000],
        density_per_km2: 1_000.0,
        mobile_fraction: 0.2,
        duration: SimDuration::from_secs(120),
        inquiry_interval: SimDuration::from_secs(20),
        ping_interval: Some(SimDuration::from_secs(10)),
        churn_per_hour: vec![20.0],
        mean_downtime: SimDuration::from_secs(25),
        shards: 2,
        extra: (),
    }
}

/// E17's CI variant: a 100k-node city over a shorter horizon.
pub fn quick() -> City {
    City {
        nodes: vec![100_000],
        duration: SimDuration::from_secs(45),
        ..full()
    }
}

/// The grid parameters of E17.
pub const PARAMS: &[Param<City>] = &[
    City::shards(),
    City::nodes(),
    City::density(),
    City::churn(),
    City::mobile_fraction(),
    City::duration_s(),
];

/// The probe of the sharded cities, under the name `benchmark/` builds it by:
/// [`CityProbe::new`] — scan, attach, ping, hand over.
pub type ShardCityAgent = CityProbe;

/// Sums every live probe's [`FullStats`] and counts the attached ones.
pub fn probe_stats(world: &mut ShardedWorld) -> (FullStats, usize) {
    let ids: Vec<NodeId> = world.node_ids().collect();
    FullStats::tally(
        ids.into_iter()
            .filter_map(|id| world.with_agent::<CityProbe, _>(id, |a| (a.stats(), a.attached()))),
    )
}

/// Builds and runs a sharded metropolis of `nodes` probes, every tenth
/// churning at `churn_per_hour`, returning the world for inspection.
/// Identical `(city minus shards)` produce identical worlds at any shard
/// count.
pub fn sharded_metropolis_run(city: &City, nodes: usize, churn_per_hour: f64) -> ShardedWorld {
    let mut world = ShardedWorld::new(city.sharded_config(nodes, 2.0));
    for (i, mobility, _) in city.placement(nodes, 0x5AD0) {
        world.add_node(
            format!("s{i}"),
            mobility,
            &[RadioTech::Wlan],
            Box::new(CityProbe::with(city.inquiry_interval, city.ping_interval, true)),
        );
    }
    let ids: Vec<NodeId> = world.node_ids().collect();
    city.install_churn(&ids, 10, churn_per_hour, 0xFA17_5A4D, |node, plan| {
        world.install_fault_plan(node, &plan)
    });
    let scope = format!("E17 nodes={nodes} shards={}", city.shards);
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
    // Each struct folds in its declaration order.
    world.metrics().global().fields().for_each(|(_, v)| fold(v));
    for (id, counters) in world.metrics().iter_nodes() {
        fold(id.as_raw());
        counters.fields().for_each(|(_, v)| fold(v));
    }
    for tech in [RadioTech::Bluetooth, RadioTech::Wlan, RadioTech::Gprs] {
        fold(world.metrics().messages_for_tech(tech));
        fold(world.metrics().bytes_for_tech(tech));
    }
    world.fault_stats().fields().for_each(|(_, v)| fold(v));
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
pub fn e17_sharded_metropolis(city: &City) -> ExperimentReport {
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
    for (nodes, rate) in city.cells() {
        let mut world = sharded_metropolis_run(city, nodes, rate);
        let (stats, _) = probe_stats(&mut world);
        let digest = sharded_world_digest(&world);
        let g = world.metrics().global();
        let fault = world.fault_stats();
        report.push_row([
            nodes.to_string(),
            format!("{:.0}", city.side_m(nodes)),
            g.inquiries_started.to_string(),
            g.connects_established.to_string(),
            stats.handover_completions.to_string(),
            stats.route_breaks().to_string(),
            g.messages_delivered.to_string(),
            fault.crashes.to_string(),
            fault.restarts.to_string(),
            format!("{digest:016x}"),
        ]);
    }
    report.push_note(format!(
        "density {} nodes/km^2, {:.0}% mobile, every 10th node churning at {}/h (mean downtime \
         {}s), {}s simulated; windowed execution (1s lookahead), digest covers all counters, \
         per-node tallies and the lifecycle stream",
        city.density_per_km2,
        city.mobile_fraction * 100.0,
        city.churn_rates(),
        city.mean_downtime.as_secs(),
        city.duration.as_secs_f64(),
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// E17 at 600 nodes over 60 s on `shards` threads: a debug-build city.
    fn small(shards: usize) -> City {
        City {
            nodes: vec![600],
            duration: SimDuration::from_secs(60),
            shards,
            ..quick()
        }
    }

    #[test]
    fn smoke_city_runs_and_report_is_shard_invariant() {
        let a = e17_sharded_metropolis(&small(1));
        let b = e17_sharded_metropolis(&small(4));
        assert_eq!(a.to_string(), b.to_string(), "report must not depend on shard count");
        // The city actually did something.
        let world = sharded_metropolis_run(&small(1), 600, 20.0);
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
            let digest = sharded_world_digest(&sharded_metropolis_run(&small(shards), 600, 20.0));
            assert_eq!(
                digest, PINNED_SMOKE_DIGEST,
                "smoke digest {digest:#018x} moved at {shards} shard(s)"
            );
        }
    }
}
