//! Experiment E9: result routing across the three package-count regimes.

use migration::{PictureClient, PictureServer, TaskOutcome, TaskSpec};
use peerhood::config::DiscoveryMode;
use peerhood::device::MobilityClass;
use peerhood::node::PeerHoodNode;
use simnet::prelude::*;

use crate::report::ExperimentReport;
use crate::topology::{experiment_config, spawn_app, with_app};

/// Result of one picture-migration run.
#[derive(Debug, Clone)]
pub struct MigrationRun {
    /// Regime label ("small", "considerable", "huge").
    pub regime: &'static str,
    /// How the task ended.
    pub outcome: TaskOutcome,
    /// Packages the client uploaded (including re-sent ones).
    pub packages_sent: u32,
    /// Seconds from the first upload start to result reception, if completed.
    pub completion_seconds: Option<f64>,
    /// Whether the server had to route the result back over a re-established
    /// connection.
    pub result_routed: bool,
}

/// Runs one picture-analysis migration with the client walking out of
/// coverage at a fixed time and returning later (the §5.3 test).
pub fn migration_run(seed: u64, regime: &'static str, spec: TaskSpec) -> MigrationRun {
    let mut world = World::new(WorldConfig::ideal(seed));
    // Walk out to 60 m at t = 60 s, pause, and walk back.
    let mobility = MobilityModel::Waypoints {
        points: vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(60.0, 0.0),
            Point::new(60.0, 0.0),
            Point::new(0.0, 0.0),
        ],
        speed_mps: 1.4,
        start_after: SimDuration::from_secs(60),
    };
    let client = spawn_app(
        &mut world,
        experiment_config("phone", MobilityClass::Dynamic, DiscoveryMode::Dynamic),
        mobility,
        Box::new(PictureClient::new("analysis", spec.clone(), SimDuration::from_secs(30))),
    );
    let server = spawn_app(
        &mut world,
        experiment_config("analysis-server", MobilityClass::Static, DiscoveryMode::Dynamic),
        MobilityModel::stationary(Point::new(5.0, 0.0)),
        Box::new(PictureServer::for_spec("analysis", &spec)),
    );
    let scope = format!("E9 regime={regime}");
    crate::telemetry::observe(&mut world, &scope, SimDuration::from_secs(700));
    let (outcome, sent, finished) = with_app(&mut world, client, |app: &PictureClient| {
        (app.outcome(), app.sent_packages, app.result_received_at)
    })
    .unwrap();
    let routed = world
        .with_agent::<PeerHoodNode, _>(server, |n, _| n.reply_reconnections() > 0)
        .unwrap();
    MigrationRun {
        regime,
        outcome,
        packages_sent: sent,
        completion_seconds: finished.map(|t| t.as_secs_f64() - 30.0),
        result_routed: routed,
    }
}

/// E9 (§5.3, Fig. 5.9/5.10): the three package-count regimes.
pub fn e09_result_routing(seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(&[
        "regime",
        "outcome",
        "packages uploaded",
        "result routed back",
        "completion time (s)",
    ]);
    let regimes: [(&'static str, TaskSpec); 3] = [
        ("small", TaskSpec::small()),
        ("considerable", TaskSpec::considerable()),
        ("huge", TaskSpec::huge()),
    ];
    for (i, (name, spec)) in regimes.into_iter().enumerate() {
        let run = migration_run(seed + i as u64, name, spec);
        report.push_row([
            run.regime.to_string(),
            format!("{:?}", run.outcome),
            run.packages_sent.to_string(),
            run.result_routed.to_string(),
            run.completion_seconds
                .map(ExperimentReport::f)
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    report.push_note("the three regimes reproduce the three cases the thesis describes for the picture-analysis test");
    report
}
