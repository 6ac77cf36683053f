//! Experiments E6 and E10: bridge performance and coverage amplification.

use migration::{MessagingClient, MessagingServer};
use peerhood::config::DiscoveryMode;
use peerhood::device::MobilityClass;
use peerhood::node::PeerHoodNode;
use simnet::prelude::*;

use crate::report::ExperimentReport;
use crate::topology::{experiment_config, spawn_app, spawn_relay, with_app};

/// Result of one §4.3-style bridge connection trial.
#[derive(Debug, Clone, Copy)]
pub struct BridgeTrial {
    /// Whether the first connection attempt succeeded end to end.
    pub connected: bool,
    /// Seconds from the first attempt to establishment (when connected).
    pub setup_seconds: Option<f64>,
    /// Messages delivered to the server out of the 20 sent.
    pub delivered: usize,
    /// Mean one-way delay from the client's send to the server's receipt,
    /// in milliseconds, when all 20 messages arrived. Links are FIFO, so
    /// the n-th message received is the n-th sent.
    pub delay_ms: Option<f64>,
}

/// Runs one trial of the §4.3 bridge performance test: a client sends a
/// message 20 times at one-second intervals to a server it can only reach
/// through a bridge node, over the *realistic* Bluetooth radio model.
pub fn bridge_trial(seed: u64) -> BridgeTrial {
    let mut world = World::new(WorldConfig::with_seed(seed));
    // Under the realistic radio model the inquiry asymmetry makes scanning
    // devices invisible, so the plugins use a calmer duty cycle than the
    // ideal-radio experiments.
    let realistic = |name: &str, mobility: MobilityClass| {
        let mut cfg = experiment_config(name, mobility, DiscoveryMode::Dynamic);
        cfg.discovery.inquiry_interval = SimDuration::from_secs(15);
        cfg.discovery.max_missed_loops = 6;
        cfg
    };
    let mut client_cfg = realistic("client", MobilityClass::Dynamic);
    // Match the thesis' methodology: count the outcome of a single connection
    // attempt rather than letting the middleware retry.
    client_cfg.handover.enabled = false;
    let mut client_app = MessagingClient::bridge_test("sink", SimDuration::from_secs(240));
    client_app.max_attempts = 1;
    let client = spawn_app(
        &mut world,
        client_cfg,
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        Box::new(client_app),
    );
    spawn_relay(
        &mut world,
        realistic("bridge", MobilityClass::Static),
        Point::new(8.0, 0.0),
    );
    let server = spawn_app(
        &mut world,
        realistic("server", MobilityClass::Static),
        MobilityModel::stationary(Point::new(16.0, 0.0)),
        Box::new(MessagingServer::new("sink")),
    );
    let scope = format!("E6 seed={seed}");
    crate::telemetry::observe(&mut world, &scope, SimDuration::from_secs(500));
    let (connected, setup, sent_at) = with_app(&mut world, client, |app: &MessagingClient| {
        (
            app.connected_at.is_some(),
            app.connection_setup_seconds(),
            app.sent_at.clone(),
        )
    })
    .unwrap();
    let received_at: Vec<SimTime> = with_app(&mut world, server, |app: &MessagingServer| {
        app.received.iter().map(|(at, _)| *at).collect()
    })
    .unwrap();
    let delay_ms = (received_at.len() == 20 && sent_at.len() == 20).then(|| {
        let total: f64 = sent_at
            .iter()
            .zip(&received_at)
            .map(|(&sent, &received)| (received - sent).as_secs_f64())
            .sum();
        total / 20.0 * 1000.0
    });
    BridgeTrial {
        connected,
        setup_seconds: setup,
        delivered: received_at.len(),
        delay_ms,
    }
}

/// E6 (§4.3, Fig. 4.5): repeated bridge connection attempts over the
/// realistic Bluetooth model.
pub fn e06_bridge_performance(seed: u64, trials: usize) -> ExperimentReport {
    let mut report = ExperimentReport::new(&[
        "trials",
        "successful",
        "failed",
        "setup min (s)",
        "setup max (s)",
        "mean one-way delay (ms)",
    ]);
    let results: Vec<BridgeTrial> = (0..trials).map(|i| bridge_trial(seed + i as u64 * 17)).collect();
    let successful: Vec<&BridgeTrial> = results.iter().filter(|t| t.connected).collect();
    let failed = results.len() - successful.len();
    let setup_min = successful
        .iter()
        .filter_map(|t| t.setup_seconds)
        .fold(f64::INFINITY, f64::min);
    let setup_max = successful.iter().filter_map(|t| t.setup_seconds).fold(0.0, f64::max);
    let delays: Vec<f64> = results.iter().filter_map(|t| t.delay_ms).collect();
    // No trial that delivered all 20 messages leaves no delay to report.
    let mean_delay = if delays.is_empty() {
        "-".to_string()
    } else {
        ExperimentReport::f(delays.iter().sum::<f64>() / delays.len() as f64)
    };
    report.push_row([
        results.len().to_string(),
        successful.len().to_string(),
        failed.to_string(),
        ExperimentReport::f(if setup_min.is_finite() { setup_min } else { 0.0 }),
        ExperimentReport::f(setup_max),
        mean_delay,
    ]);
    let delivered_ok = successful.iter().filter(|t| t.delivered >= 20).count();
    report.push_note(format!(
        "{delivered_ok}/{} successful connections delivered all 20 messages",
        successful.len()
    ));
    report.push_note("setup time is the sum of two Bluetooth connection establishments, matching the 3-18 s band");
    report
}

/// E10 (Fig. 6.1): coverage amplification — reaching a GPRS-connected server
/// from inside a tunnel through a chain of Bluetooth bridge nodes.
pub fn e10_coverage_amplification(seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(&[
        "bridge chain",
        "phone knows server",
        "route jumps",
        "messages delivered / 10",
    ]);
    for &with_bridges in &[true, false] {
        // The tunnel is a GPRS dead zone covering x in [-5, 27].
        let mut config = WorldConfig::ideal(seed + with_bridges as u64);
        config.gprs_dead_zones = vec![Rect::new(-5.0, -5.0, 27.0, 5.0)];
        let mut world = World::new(config);
        let phone_cfg = experiment_config("phone", MobilityClass::Dynamic, DiscoveryMode::Dynamic)
            .with_techs(&[RadioTech::Bluetooth, RadioTech::Gprs]);
        let phone = spawn_app(
            &mut world,
            phone_cfg,
            MobilityModel::stationary(Point::new(0.0, 0.0)),
            Box::new(MessagingClient::new(
                "gateway",
                b"sms".to_vec(),
                10,
                SimDuration::from_secs(1),
                SimDuration::from_secs(120),
            )),
        );
        if with_bridges {
            for (i, x) in [8.0, 16.0, 24.0].iter().enumerate() {
                let cfg = experiment_config(format!("bt-bridge-{i}"), MobilityClass::Static, DiscoveryMode::Dynamic);
                spawn_relay(&mut world, cfg, Point::new(*x, 0.0));
            }
        }
        let server_cfg = experiment_config("gateway-server", MobilityClass::Static, DiscoveryMode::Dynamic)
            .with_techs(&[RadioTech::Bluetooth, RadioTech::Gprs]);
        let server = spawn_app(
            &mut world,
            server_cfg,
            MobilityModel::stationary(Point::new(32.0, 0.0)),
            Box::new(MessagingServer::new("gateway")),
        );
        let scope = format!("E10 bridges={}", if with_bridges { "3" } else { "none" });
        crate::telemetry::observe(&mut world, &scope, SimDuration::from_secs(400));
        let server_addr = peerhood::ids::DeviceAddress::from_node(server);
        let route = world
            .with_agent::<PeerHoodNode, _>(phone, |n, _| {
                n.known_devices()
                    .into_iter()
                    .find(|d| d.info.address == server_addr)
                    .map(|d| d.route.jumps)
            })
            .unwrap();
        let delivered = with_app(&mut world, server, MessagingServer::received_count).unwrap();
        report.push_row([
            if with_bridges { "3 Bluetooth bridges" } else { "none" }.to_string(),
            route.is_some().to_string(),
            route.map(|j| j.to_string()).unwrap_or_else(|| "-".into()),
            delivered.to_string(),
        ]);
    }
    report.push_note("without the bridge chain the phone never even learns the server exists (GPRS dead zone)");
    report
}
