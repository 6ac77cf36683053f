//! Experiments E7, E8 and E11: handover behaviour.

use migration::{MessagingClient, MessagingServer};
use peerhood::config::DiscoveryMode;
use peerhood::connection::ConnKind;
use peerhood::device::MobilityClass;
use peerhood::handover::HandoverTarget;
use peerhood::node::PeerHoodNode;
use simnet::prelude::*;

use crate::report::ExperimentReport;
use crate::topology::{experiment_config, spawn_app, spawn_relay, with_app};

/// E7 (Fig. 5.3): handing over to a second server restarts the task, while a
/// routing handover through a bridge preserves the session.
pub fn e07_two_server_handover(seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(&[
        "strategy",
        "task restarts",
        "route changes",
        "messages received (both servers)",
        "messages needed",
    ]);
    // Task restarts and messages received, per strategy.
    let mut outcomes = Vec::new();
    for &routing_handover in &[false, true] {
        let mut world = World::new(WorldConfig::ideal(seed + routing_handover as u64));
        let mut client_cfg = experiment_config("client", MobilityClass::Dynamic, DiscoveryMode::Dynamic);
        // With routing handover disabled the middleware reports the broken
        // link as `Disconnected` and proposes no service reconnection; the
        // client then dials the best provider it knows by itself.
        client_cfg.handover.enabled = routing_handover;
        // The client starts next to server 1 and walks towards server 2.
        // In the routing-handover configuration (Fig. 5.4) a static bridge
        // half way keeps server 1 reachable; in the plain two-server
        // configuration (Fig. 5.3) there is no bridge, so the only option is
        // to reconnect to server 2 and start again.
        let client = spawn_app(
            &mut world,
            client_cfg,
            MobilityModel::walk_after(
                Point::new(2.0, 0.0),
                Point::new(16.0, 0.0),
                1.0,
                SimDuration::from_secs(70),
            ),
            Box::new(MessagingClient::new(
                "print",
                b"good morning!".to_vec(),
                100,
                SimDuration::from_secs(1),
                SimDuration::from_secs(50),
            )),
        );
        if routing_handover {
            let bridge_cfg = experiment_config("bridge", MobilityClass::Static, DiscoveryMode::Dynamic);
            spawn_relay(&mut world, bridge_cfg, Point::new(9.0, 0.0));
        }
        let server1 = spawn_app(
            &mut world,
            experiment_config("server1", MobilityClass::Static, DiscoveryMode::Dynamic),
            MobilityModel::stationary(Point::new(0.0, 0.0)),
            Box::new(MessagingServer::new("print")),
        );
        let server2 = spawn_app(
            &mut world,
            experiment_config("server2", MobilityClass::Static, DiscoveryMode::Dynamic),
            MobilityModel::stationary(Point::new(22.0, 0.0)),
            Box::new(MessagingServer::new("print")),
        );
        let scope = format!(
            "E7 strategy={}",
            if routing_handover {
                "routing-handover"
            } else {
                "service-reconnection"
            }
        );
        crate::telemetry::observe(&mut world, &scope, SimDuration::from_secs(400));
        let (restarts, changes) = with_app(&mut world, client, |app: &MessagingClient| {
            (app.restarts, app.connection_changes)
        })
        .unwrap();
        let received1 = with_app(&mut world, server1, MessagingServer::received_count).unwrap();
        let received2 = with_app(&mut world, server2, MessagingServer::received_count).unwrap();
        let total_sent = received1 + received2;
        outcomes.push((restarts, total_sent));
        report.push_row([
            if routing_handover {
                "routing handover (keep server 1)"
            } else {
                "service reconnection (switch server)"
            }
            .to_string(),
            restarts.to_string(),
            changes.to_string(),
            total_sent.to_string(),
            "100".to_string(),
        ]);
    }
    let [(switched, sent), (routed, _)] = outcomes[..] else {
        unreachable!("one outcome per strategy");
    };
    report.push_note(if switched > 0 && routed == 0 {
        format!(
            "service reconnection restarted the task and re-sent {} messages of work already done; routing \
             handover kept the original session",
            sent.saturating_sub(100)
        )
    } else {
        format!("the task restarted {switched} time(s) on a server switch and {routed} under routing handover")
    });
    report
}

/// Result of one routing-handover run at a given artificial decay rate.
#[derive(Debug, Clone, Copy)]
pub struct HandoverRun {
    /// Quality decay in units per second.
    pub decay_per_sec: f64,
    /// Whether the handover completed before the link died.
    pub handover_completed: bool,
    /// Seconds from the first low-quality sample to handover completion.
    pub switch_seconds: Option<f64>,
    /// Messages the server received out of the 50 sent.
    pub delivered: usize,
}

/// Runs the §5.2.1 routing-handover simulation once: client B prints
/// "good morning!" 50 times on server A; the quality of the first route is
/// decremented artificially; bridge C provides the second route (Fig. 5.8).
pub fn routing_handover_run(seed: u64, decay_per_sec: f64) -> HandoverRun {
    let mut world = World::new(WorldConfig::with_seed(seed));
    // Calmer inquiry duty cycle for the realistic (asymmetric) radio model.
    let realistic = |name: &str, mobility: MobilityClass| {
        let mut cfg = experiment_config(name, mobility, DiscoveryMode::Dynamic);
        cfg.discovery.inquiry_interval = SimDuration::from_secs(15);
        cfg.discovery.max_missed_loops = 6;
        cfg
    };
    let client = spawn_app(
        &mut world,
        realistic("client-b", MobilityClass::Dynamic),
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        Box::new(MessagingClient::good_morning("print", SimDuration::from_secs(240))),
    );
    let server = spawn_app(
        &mut world,
        realistic("server-a", MobilityClass::Static),
        MobilityModel::stationary(Point::new(7.0, 0.0)),
        Box::new(MessagingServer::new("print")),
    );
    spawn_relay(
        &mut world,
        realistic("bridge-c", MobilityClass::Static),
        Point::new(3.5, 5.0),
    );
    // Let discovery converge and the client connect and start sending.
    let scope = format!("E8 decay={decay_per_sec} seed={seed}");
    crate::telemetry::instrument_world(&mut world, &scope);
    crate::telemetry::run_world(&mut world, SimDuration::from_secs(270), |_| {});
    let conn = with_app(&mut world, client, |app: &MessagingClient| app.session.conn()).unwrap();
    let link = conn.and_then(|c| {
        world
            .with_agent::<PeerHoodNode, _>(client, |n, _| n.connection(c)?.link())
            .unwrap()
    });
    let link = match link {
        Some(l) => l,
        None => {
            // The initial connection itself never came up (possible under the
            // realistic fault model): report a failed run.
            crate::telemetry::finish_world(&mut world, &scope);
            return HandoverRun {
                decay_per_sec,
                handover_completed: false,
                switch_seconds: None,
                delivered: 0,
            };
        }
    };
    // Install the thesis' artificial deterioration on the first route.
    world.set_link_quality_override(link, 240.0, decay_per_sec);
    let degradation_start = world.now() + SimDuration::from_secs_f64((240.0 - 230.0) / decay_per_sec.max(0.001));
    crate::telemetry::run_world(&mut world, SimDuration::from_secs(300), |_| {});
    crate::telemetry::finish_world(&mut world, &scope);
    let (handovers, changes) = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            let changes = n.with_app(|app: &MessagingClient| app.connection_changes).unwrap();
            (n.handover_completions(), changes)
        })
        .unwrap();
    let delivered = with_app(&mut world, server, MessagingServer::received_count).unwrap();
    // Approximate switch latency: the largest delivery gap after degradation
    // started (the stream stalls while the new route is being built).
    let switch_seconds = with_app(&mut world, server, |app: &MessagingServer| {
        app.received
            .windows(2)
            .filter(|w| w[1].0 > degradation_start)
            .map(|w| (w[1].0 - w[0].0).as_secs_f64())
            .fold(0.0, f64::max)
    })
    .unwrap();
    HandoverRun {
        decay_per_sec,
        handover_completed: handovers > 0 || changes > 0,
        switch_seconds: if handovers > 0 { Some(switch_seconds) } else { None },
        delivered,
    }
}

/// E8 (§5.2.1, Fig. 5.5/5.8): routing handover under artificial quality decay
/// at different speeds.
pub fn e08_routing_handover(seed: u64, runs_per_rate: usize) -> ExperimentReport {
    let mut report = ExperimentReport::new(&[
        "decay (quality/s)",
        "runs",
        "handover completed",
        "mean stall during switch (s)",
        "mean messages delivered / 50",
    ]);
    // The decay rates at which every run handed over, and the others.
    let (mut kept, mut lost) = (Vec::new(), Vec::new());
    for &decay in &[1.0, 5.0, 15.0, 30.0] {
        let runs: Vec<HandoverRun> = (0..runs_per_rate)
            .map(|i| routing_handover_run(seed + i as u64 * 31, decay))
            .collect();
        let completed = runs.iter().filter(|r| r.handover_completed).count();
        if completed == runs.len() {
            kept.push(decay.to_string());
        } else {
            lost.push(decay.to_string());
        }
        let stalls: Vec<f64> = runs.iter().filter_map(|r| r.switch_seconds).collect();
        let mean_stall = if stalls.is_empty() {
            0.0
        } else {
            stalls.iter().sum::<f64>() / stalls.len() as f64
        };
        let mean_delivered = runs.iter().map(|r| r.delivered as f64).sum::<f64>() / runs.len() as f64;
        report.push_row([
            ExperimentReport::f(decay),
            runs.len().to_string(),
            completed.to_string(),
            ExperimentReport::f(mean_stall),
            ExperimentReport::f(mean_delivered),
        ]);
    }
    report.push_note(match (kept.is_empty(), lost.is_empty()) {
        (false, true) => "every decay rate leaves enough time for the multi-second Bluetooth interconnection: \
                          the handover completed in every run"
            .to_string(),
        (true, _) => "at no decay rate did the handover complete in every run".to_string(),
        (false, false) => format!(
            "the handover completed in every run at {} quality/s of decay, but not at {}",
            kept.join(", "),
            lost.join(", ")
        ),
    });
    report
}

/// E11 (Fig. 5.6/5.7): the monitoring limitation — re-routing towards the
/// current link peer grows bridge chains that never shrink, unlike re-routing
/// towards the final destination.
pub fn e11_monitoring_limitation(seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(&[
        "handover target",
        "handovers",
        "bridge pairs left active",
        "final route bridged",
    ]);
    for &target in &[HandoverTarget::LinkPeer, HandoverTarget::FinalDestination] {
        let mut world = World::new(WorldConfig::ideal(seed));
        let mut client_cfg = experiment_config("client", MobilityClass::Dynamic, DiscoveryMode::Dynamic);
        client_cfg.handover.target = target;
        client_cfg.handover.max_routing_attempts = 8;
        // The client walks away from the server past two bridges, then walks
        // back to where it started.
        let client = spawn_app(
            &mut world,
            client_cfg,
            MobilityModel::Waypoints {
                points: vec![
                    Point::new(2.0, 0.0),
                    Point::new(2.0, 0.0),
                    Point::new(20.0, 0.0),
                    Point::new(2.0, 0.0),
                ],
                speed_mps: 0.8,
                start_after: SimDuration::from_secs(150),
            },
            Box::new(MessagingClient::new(
                "print",
                b"good morning!".to_vec(),
                200,
                SimDuration::from_secs(1),
                SimDuration::from_secs(80),
            )),
        );
        let server = spawn_app(
            &mut world,
            experiment_config("server", MobilityClass::Static, DiscoveryMode::Dynamic),
            MobilityModel::stationary(Point::new(0.0, 0.0)),
            Box::new(MessagingServer::new("print")),
        );
        let bridge_ids: Vec<NodeId> = [8.0, 14.0]
            .iter()
            .enumerate()
            .map(|(i, x)| {
                spawn_relay(
                    &mut world,
                    experiment_config(format!("bridge{i}"), MobilityClass::Static, DiscoveryMode::Dynamic),
                    Point::new(*x, 0.0),
                )
            })
            .collect();
        let scope = format!(
            "E11 target={}",
            match target {
                HandoverTarget::LinkPeer => "link-peer",
                HandoverTarget::FinalDestination => "final-destination",
            }
        );
        crate::telemetry::observe(&mut world, &scope, SimDuration::from_secs(500));
        let handovers = world
            .with_agent::<PeerHoodNode, _>(client, |n, _| n.handover_completions())
            .unwrap();
        let pairs_left: usize = bridge_ids
            .iter()
            .map(|id| {
                world
                    .with_agent::<PeerHoodNode, _>(*id, |n, _| n.bridge_stats().0)
                    .unwrap_or(0)
            })
            .sum();
        let bridged = world
            .with_agent::<PeerHoodNode, _>(client, |n, _| {
                let first = n.connections().first().map(|c| &c.kind);
                matches!(first, Some(ConnKind::OutgoingBridged { .. }))
            })
            .unwrap();
        let _ = server;
        report.push_row([
            match target {
                HandoverTarget::LinkPeer => "link peer (thesis implementation)".to_string(),
                HandoverTarget::FinalDestination => "final destination".to_string(),
            },
            handovers.to_string(),
            pairs_left.to_string(),
            bridged.to_string(),
        ]);
    }
    report.push_note(
        "re-routing towards the link peer leaves relay state behind even after the client is back next to the server",
    );
    report
}
