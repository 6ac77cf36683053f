//! Determinism and passivity guarantees of the live telemetry plane.
//!
//! Three properties, all load-bearing for the observability claims:
//!
//! * **same seed ⇒ same series** — two instrumented runs of the same
//!   scenario agree on the JSONL export byte for byte (compared by digest);
//! * **shard invariance** — with telemetry *on*, the sharded engine records
//!   byte-identical series at any `--shards` count (the barrier folds are
//!   commutative sums over node state);
//! * **passivity** — turning telemetry (and profiling) on does not perturb
//!   the simulation: the experiment report is byte-identical to an
//!   uninstrumented run.

use scenarios::experiments::sharded::{sharded_metropolis_run, sharded_world_digest};
use scenarios::experiments::{e12_dense_city, e16_overload, overload, overload_outcome, scale, sharded, City};
use scenarios::telemetry::{configure, take_captures, TelemetryMode, TelemetrySettings};
use simnet::ShardedWorld;

fn record() -> TelemetrySettings {
    TelemetrySettings {
        mode: TelemetryMode::Record,
        ..TelemetrySettings::default()
    }
}

fn small_scale() -> City {
    City {
        nodes: vec![120],
        duration: simnet::SimDuration::from_secs(45),
        ..scale::quick()
    }
}

#[test]
fn same_seed_records_identical_series() {
    configure(record());
    let _ = e12_dense_city(&small_scale());
    let first = take_captures();
    let _ = e12_dense_city(&small_scale());
    let second = take_captures();
    configure(TelemetrySettings::default());
    assert_eq!(first.len(), 1);
    assert_eq!(second.len(), 1);
    assert!(first[0].frames > 0, "the run must sample frames");
    assert_eq!(first[0].jsonl, second[0].jsonl);
    assert_eq!(first[0].digest, second[0].digest);
}

#[test]
fn telemetry_on_keeps_the_report_byte_identical() {
    configure(TelemetrySettings::default());
    let plain = e12_dense_city(&small_scale());
    assert!(take_captures().is_empty());
    configure(TelemetrySettings {
        mode: TelemetryMode::Record,
        profile: true,
        ..TelemetrySettings::default()
    });
    let instrumented = e12_dense_city(&small_scale());
    let captures = take_captures();
    configure(TelemetrySettings::default());
    assert_eq!(plain.to_string(), instrumented.to_string());
    assert_eq!(captures.len(), 1);
    assert!(captures[0].profile.is_some(), "profiling was requested");
}

#[test]
fn overload_exports_resilience_gauges() {
    let mut settings = overload::quick();
    settings.duration = simnet::SimDuration::from_secs(60);
    configure(TelemetrySettings::default());
    let plain = e16_overload(&settings, &[true]);
    configure(record());
    let instrumented = e16_overload(&settings, &[true]);
    let captures = take_captures();
    configure(TelemetrySettings::default());
    // Passivity again, this time through the full-stack resilience city.
    assert_eq!(plain.to_string(), instrumented.to_string());
    assert_eq!(captures.len(), 1);
    let rollup = captures[0].rollup.as_deref().unwrap();
    assert!(
        rollup.contains("resilience/breaker_trips"),
        "resilience gauges missing from the roll-up:\n{rollup}"
    );
    assert!(captures[0].jsonl.contains("\"subsystem\":\"resilience\""));
    // The flapping hotspot must actually trip breakers in this scenario, so
    // the exported series carry signal, not a wall of zeros.
    let outcome = overload_outcome(&settings, true);
    assert!(outcome.stats.breaker_trips > 0);
}

/// Runs E17's quick city at 3 000 nodes, every tenth churning at 60 per
/// hour, for 30 s on `shards` threads.
fn churny_sharded(shards: usize) -> ShardedWorld {
    let city = City {
        shards,
        duration: simnet::SimDuration::from_secs(30),
        ..sharded::quick()
    };
    sharded_metropolis_run(&city, 3_000, 60.0)
}

#[test]
fn sharded_series_are_shard_invariant() {
    let mut digests = Vec::new();
    let mut world_digests = Vec::new();
    for shards in [1usize, 2, 8] {
        configure(record());
        let world = churny_sharded(shards);
        let captures = take_captures();
        configure(TelemetrySettings::default());
        assert_eq!(captures.len(), 1, "one capture per run");
        assert!(captures[0].frames > 0);
        digests.push(captures[0].digest);
        world_digests.push(sharded_world_digest(&world));
    }
    assert_eq!(digests[0], digests[1], "series differ between 1 and 2 shards");
    assert_eq!(digests[0], digests[2], "series differ between 1 and 8 shards");
    // And telemetry-on does not perturb the simulation itself either.
    assert_eq!(world_digests[0], world_digests[1]);
    assert_eq!(world_digests[0], world_digests[2]);
}

#[test]
fn shard_series_are_opt_in_and_report_per_shard_load() {
    use scenarios::experiments::{hotspot, hotspot_metropolis_run};

    let settings = City {
        duration: simnet::SimDuration::from_secs(60),
        shards: 4,
        ..hotspot::quick()
    };
    // Default capture: no layout-dependent shard/* series, so the JSONL
    // stays byte-identical across --shards counts (the test above).
    configure(record());
    let _ = hotspot_metropolis_run(&settings, 600);
    let plain = take_captures();
    // Opt in: per-shard load/occupancy gauges and the rebalance counter
    // appear, and the rebalancer demonstrably ran.
    configure(TelemetrySettings {
        shard_series: true,
        ..record()
    });
    let world = hotspot_metropolis_run(&settings, 600);
    let with_shards = take_captures();
    configure(TelemetrySettings::default());
    assert_eq!(plain.len(), 1);
    assert_eq!(with_shards.len(), 1);
    assert!(
        !plain[0].jsonl.contains("\"subsystem\":\"shard\""),
        "shard/* series must stay off by default"
    );
    for series in ["shard/load", "shard/occupancy", "shard/imbalance", "shard/rebalances"] {
        let rollup = with_shards[0].rollup.as_deref().unwrap();
        assert!(rollup.contains(series), "missing {series} in the roll-up:\n{rollup}");
    }
    assert!(with_shards[0].jsonl.contains("\"subsystem\":\"shard\""));
    assert!(world.partition_stats().rebalances > 0);
}

#[test]
fn sharded_run_with_telemetry_matches_uninstrumented_world() {
    configure(TelemetrySettings::default());
    let plain = churny_sharded(2);
    assert!(take_captures().is_empty());
    let plain_digest = sharded_world_digest(&plain);
    configure(record());
    let instrumented = churny_sharded(2);
    let captures = take_captures();
    configure(TelemetrySettings::default());
    assert_eq!(captures.len(), 1);
    assert_eq!(plain_digest, sharded_world_digest(&instrumented));
}

/// README's metric catalogue is written from the stats structs'
/// declarations: every `subsystem/name` a `counter_table!` declares must be
/// named there, so adding a series without documenting it fails here.
#[test]
fn the_readme_catalogue_names_every_declared_series() {
    let readme = include_str!("../../../README.md");
    let start = readme
        .find("* **Metric catalogue.**")
        .expect("README has a metric catalogue");
    let end = start
        + readme[start..]
            .find("* **Profiling.**")
            .expect("the catalogue ends at Profiling");
    let catalogue = &readme[start..end];
    let tables = [
        simnet::Counters::SERIES,
        simnet::FaultStats::SERIES,
        simnet::AdversaryStats::SERIES,
        peerhood::resilience::ResilienceStats::SERIES,
        peerhood::security::SecurityStats::SERIES,
    ];
    let missing: Vec<_> = tables
        .concat()
        .into_iter()
        .filter(|series| !catalogue.contains(&format!("`{series}`")))
        .collect();
    assert!(missing.is_empty(), "README's metric catalogue lacks {missing:?}");
}
