//! Cross-crate integration tests: the interconnection (bridge) system (Ch. 4).

use migration::{MessagingClient, MessagingServer};
use peerhood::node::PeerHoodNode;
use peerhood::prelude::*;
use scenarios::experiments::bridge_trial;
use scenarios::topology::{experiment_config, spawn_app, spawn_relay};
use simnet::prelude::*;

#[test]
fn two_hop_bridge_chain_delivers_data() {
    // client - bridge1 - bridge2 - server: the connection needs two relays.
    let mut world = World::new(WorldConfig::ideal(201));
    let client = spawn_app(
        &mut world,
        experiment_config("client", MobilityClass::Dynamic, DiscoveryMode::Dynamic),
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        Box::new(MessagingClient::new(
            "sink",
            b"across two bridges".to_vec(),
            5,
            SimDuration::from_secs(1),
            SimDuration::from_secs(120),
        )),
    );
    let b1 = spawn_relay(
        &mut world,
        experiment_config("b1", MobilityClass::Static, DiscoveryMode::Dynamic),
        Point::new(8.0, 0.0),
    );
    let b2 = spawn_relay(
        &mut world,
        experiment_config("b2", MobilityClass::Static, DiscoveryMode::Dynamic),
        Point::new(16.0, 0.0),
    );
    let server = spawn_app(
        &mut world,
        experiment_config("server", MobilityClass::Static, DiscoveryMode::Dynamic),
        MobilityModel::stationary(Point::new(24.0, 0.0)),
        Box::new(MessagingServer::new("sink")),
    );
    world.run_for(SimDuration::from_secs(400));
    let received = world
        .with_agent::<PeerHoodNode, _>(server, |n, _| n.app::<MessagingServer>().unwrap().received_count())
        .unwrap();
    assert_eq!(received, 5, "all messages must arrive across the two-bridge chain");
    // Both relays carried traffic for the pair.
    for bridge in [b1, b2] {
        let (_, relayed, _) = world
            .with_agent::<PeerHoodNode, _>(bridge, |n, _| n.bridge_stats())
            .unwrap();
        assert!(relayed > 0, "bridge {bridge} should have relayed traffic");
    }
    let sent = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| n.app::<MessagingClient>().unwrap().sent)
        .unwrap();
    assert_eq!(sent, 5);
}

#[test]
fn bridge_capacity_limit_refuses_extra_connections() {
    // The bridge accepts only one relayed pair; the second client's bridged
    // connection must be refused and reported as failed.
    let mut world = World::new(WorldConfig::ideal(202));
    let mk_client = |_name: &str| {
        MessagingClient::new(
            "sink",
            b"x".to_vec(),
            3,
            SimDuration::from_secs(1),
            SimDuration::from_secs(150),
        )
    };
    let c1 = spawn_app(
        &mut world,
        experiment_config("c1", MobilityClass::Dynamic, DiscoveryMode::Dynamic),
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        Box::new(mk_client("c1")),
    );
    let c2 = spawn_app(
        &mut world,
        experiment_config("c2", MobilityClass::Dynamic, DiscoveryMode::Dynamic),
        MobilityModel::stationary(Point::new(0.0, 2.0)),
        Box::new({
            let mut c = mk_client("c2");
            c.start_after = SimDuration::from_secs(170);
            c.session = peerhood::session::ServiceSession::with_attempts(1);
            c
        }),
    );
    let mut bridge_cfg = experiment_config("bridge", MobilityClass::Static, DiscoveryMode::Dynamic);
    bridge_cfg.bridge.max_connections = 1;
    spawn_relay(&mut world, bridge_cfg, Point::new(8.0, 0.0));
    let server = spawn_app(
        &mut world,
        experiment_config("server", MobilityClass::Static, DiscoveryMode::Dynamic),
        MobilityModel::stationary(Point::new(16.0, 0.0)),
        Box::new(MessagingServer::new("sink")),
    );
    world.run_for(SimDuration::from_secs(400));
    let c1_done = world
        .with_agent::<PeerHoodNode, _>(c1, |n, _| n.app::<MessagingClient>().unwrap().finished())
        .unwrap();
    assert!(c1_done, "the first client fits within the bridge capacity");
    let c2_connected = world
        .with_agent::<PeerHoodNode, _>(c2, |n, _| n.app::<MessagingClient>().unwrap().connected_at.is_some())
        .unwrap();
    assert!(!c2_connected, "the second client must be refused by the loaded bridge");
    let received = world
        .with_agent::<PeerHoodNode, _>(server, |n, _| n.app::<MessagingServer>().unwrap().received_count())
        .unwrap();
    assert_eq!(received, 3);
}

#[test]
fn realistic_bridge_trial_reports_consistent_numbers() {
    let trial = bridge_trial(31);
    if trial.connected {
        let setup = trial.setup_seconds.expect("connected trials record a setup time");
        assert!(setup > 0.0 && setup < 60.0, "setup {setup} out of range");
        assert!(trial.delivered <= 20);
    } else {
        assert_eq!(trial.delivered, 0);
    }
}
