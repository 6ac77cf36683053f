//! The experiment runners E1–E19 (E12 is the dense-city scale family,
//! E13/E14 are the fault & churn family, E16 is the resilience-pipeline
//! overload city, E17 is the sharded metropolis, E18 is the hotspot
//! metropolis on the load-balanced sharded engine and E19 is the hostile
//! city run against the security defence tiers, all added on top of the
//! thesis).
//!
//! Each function builds the scenario it needs, runs the simulation and
//! returns an [`ExperimentReport`] of columns, rows and notes. Its id, title
//! and *Paper:* line — the claim it reproduces — are written once, in the
//! experiment's [`registry`](mod@registry) row, and [`Experiment::run`]
//! stamps them on; the stamped report's `Display` output is the markdown
//! table the `repro` binary prints. `crates/scenarios/tests/claims.rs`
//! checks every *Paper:* line against its report at eight seeds.

pub mod adversary_exp;
pub mod bridge;
pub mod city;
pub mod discovery;
pub mod faults_exp;
pub mod full_stack;
pub mod handover;
pub mod hotspot;
pub mod metropolis;
pub mod migration_exp;
pub mod overload;
pub mod params;
pub mod probe;
pub mod registry;
pub mod scale;
pub mod sharded;

pub use adversary_exp::{
    adversary_outcome, adversary_run, e19_hostile_city, plan_digest, AdversaryOutcome, AdversarySettings, Defense,
};
pub use bridge::{bridge_trial, e06_bridge_performance, e10_coverage_amplification, BridgeTrial};
pub use city::City;
pub use discovery::{
    e01_coverage_exclusion, e02_gnutella_traffic, e03_quality_route_selection, e04_notification_delay,
    e05_static_vs_dynamic_bridge, DiscoverySettings,
};
pub use faults_exp::{e13_churn_sweep, e14_blackout_flash_crowd, ChurnSettings};
pub use full_stack::{FullStackHost, FullStats, MetroApp, METRO_SERVICE};
pub use handover::{
    e07_two_server_handover, e08_routing_handover, e11_monitoring_limitation, routing_handover_run, HandoverRun,
};
pub use hotspot::{e18_hotspot_metropolis, hotspot_metropolis_run, HotspotSettings};
pub use metropolis::{e15_full_stack_metropolis, metropolis_run, MetropolisSettings};
pub use migration_exp::{e09_result_routing, migration_run, MigrationRun};
pub use overload::{
    e16_overload, overload_outcome, overload_run, CrowdApp, HotspotApp, OverloadOutcome, OverloadSettings,
    HOTSPOT_SERVICE,
};
pub use params::{Param, Params};
pub use registry::{find, registry, samples_from_report, Experiment, RunOutput, SampleRow};
pub use scale::{e12_dense_city, ScaleSettings};
pub use sharded::{e17_sharded_metropolis, sharded_metropolis_run, sharded_world_digest, ShardedSettings};

use crate::report::ExperimentReport;

/// Runs every experiment through the [`Experiment`] registry — at reduced
/// sizes when `quick`, exactly as [`Experiment::run`] takes it — and returns
/// the reports in E1–E19 order. Settings-driven families keep their
/// historical pinned seeds (see [`Experiment::suite_seed`]), so the suite
/// output is byte-identical to the pre-registry per-experiment entry
/// points (E16–E19 append after the historical E1–E15 blocks).
pub fn run_all(seed: u64, quick: bool) -> Vec<ExperimentReport> {
    let defaults = Params::new();
    registry()
        .iter()
        .map(|e| {
            let run = e.run(e.suite_seed.unwrap_or(seed), &defaults, quick);
            run.expect("no overrides to reject").report
        })
        .collect()
}
