//! Cross-crate integration tests: handover and task migration (Ch. 5).

use migration::{MessagingClient, MessagingServer, PictureClient, PictureServer, TaskOutcome, TaskSpec};
use peerhood::node::PeerHoodNode;
use peerhood::prelude::*;
use scenarios::topology::{experiment_config, spawn_app, spawn_relay};
use simnet::prelude::*;

#[test]
fn routing_handover_preserves_the_session_when_walking_away() {
    // The corridor scenario: the client walks away from the server past a
    // fixed bridge; the stream must survive through a routing handover
    // without restarting the task.
    let mut world = World::new(WorldConfig::ideal(301));
    let client = spawn_app(
        &mut world,
        experiment_config("client", MobilityClass::Dynamic, DiscoveryMode::Dynamic),
        MobilityModel::walk_after(
            Point::new(2.0, 0.0),
            Point::new(16.0, 0.0),
            0.8,
            SimDuration::from_secs(80),
        ),
        Box::new(MessagingClient::new(
            "print",
            b"good morning!".to_vec(),
            60,
            SimDuration::from_secs(1),
            SimDuration::from_secs(50),
        )),
    );
    let server = spawn_app(
        &mut world,
        experiment_config("server", MobilityClass::Static, DiscoveryMode::Dynamic),
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        Box::new(MessagingServer::new("print")),
    );
    spawn_relay(
        &mut world,
        experiment_config("bridge", MobilityClass::Static, DiscoveryMode::Dynamic),
        Point::new(9.0, 0.0),
    );
    world.run_for(SimDuration::from_secs(350));
    let (handovers, restarts, sent) = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            let app = n.app::<MessagingClient>().unwrap();
            (n.handover_completions(), app.restarts, app.sent)
        })
        .unwrap();
    assert!(handovers >= 1, "the walk must trigger at least one routing handover");
    assert_eq!(restarts, 0, "the session must not restart on another provider");
    // A handful of messages can be lost or delayed around the instant the
    // direct link finally breaks (the data-loss risk §6.1 acknowledges), but
    // the bulk of the stream must keep flowing to the original server.
    assert!(
        sent >= 35,
        "the stream must keep progressing up to the handover, sent {sent}"
    );
    let received = world
        .with_agent::<PeerHoodNode, _>(server, |n, _| n.app::<MessagingServer>().unwrap().received_count())
        .unwrap();
    assert!(
        received >= 35,
        "the bulk of the stream must reach the original server, got {received}"
    );
}

#[test]
fn artificial_quality_decay_triggers_handover_through_the_bridge() {
    // The §5.2.1 simulation in an ideal world: decrement the link quality by
    // one per second and expect the HandoverThread to substitute the route.
    let mut world = World::new(WorldConfig::ideal(302));
    let client = spawn_app(
        &mut world,
        experiment_config("client", MobilityClass::Dynamic, DiscoveryMode::Dynamic),
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        Box::new(MessagingClient::good_morning("print", SimDuration::from_secs(60))),
    );
    let server = spawn_app(
        &mut world,
        experiment_config("server", MobilityClass::Static, DiscoveryMode::Dynamic),
        MobilityModel::stationary(Point::new(7.0, 0.0)),
        Box::new(MessagingServer::new("print")),
    );
    spawn_relay(
        &mut world,
        experiment_config("bridge", MobilityClass::Static, DiscoveryMode::Dynamic),
        Point::new(3.5, 5.0),
    );
    world.run_for(SimDuration::from_secs(80));
    let conn = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| n.app::<MessagingClient>().unwrap().session.conn())
        .unwrap()
        .expect("client connected");
    let link = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| n.connection(conn)?.link())
        .unwrap()
        .expect("connection has a live link");
    world.set_link_quality_override(link, 240.0, 1.0);
    world.run_for(SimDuration::from_secs(120));
    let handovers = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| n.handover_completions())
        .unwrap();
    assert!(handovers >= 1, "the decaying link must be substituted");
    let received = world
        .with_agent::<PeerHoodNode, _>(server, |n, _| n.app::<MessagingServer>().unwrap().received_count())
        .unwrap();
    // A message already in flight when the decayed link finally breaks can be
    // lost (the thesis' own data-loss caveat); everything else must arrive.
    assert!(
        received >= 48,
        "nearly all 'good morning!' messages must arrive, got {received}"
    );
}

#[test]
fn result_routing_returns_the_result_after_disconnection() {
    let spec = TaskSpec {
        packages: 10,
        package_size: 2 * 1024,
        processing_per_package: SimDuration::from_secs(6),
        result_size: 4 * 1024,
    };
    let mut world = World::new(WorldConfig::ideal(303));
    let client = spawn_app(
        &mut world,
        experiment_config("phone", MobilityClass::Dynamic, DiscoveryMode::Dynamic),
        MobilityModel::Waypoints {
            points: vec![
                Point::new(0.0, 0.0),
                Point::new(0.0, 0.0),
                Point::new(60.0, 0.0),
                Point::new(60.0, 0.0),
                Point::new(0.0, 0.0),
            ],
            speed_mps: 1.5,
            start_after: SimDuration::from_secs(60),
        },
        Box::new(PictureClient::new("analysis", spec.clone(), SimDuration::from_secs(30))),
    );
    let server = spawn_app(
        &mut world,
        experiment_config("pc", MobilityClass::Static, DiscoveryMode::Dynamic),
        MobilityModel::stationary(Point::new(5.0, 0.0)),
        Box::new(PictureServer::for_spec("analysis", &spec)),
    );
    world.run_for(SimDuration::from_secs(500));
    let outcome = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| n.app::<PictureClient>().unwrap().outcome())
        .unwrap();
    assert_eq!(outcome, TaskOutcome::CompletedViaResultRouting);
    let reply_reconnections = world
        .with_agent::<PeerHoodNode, _>(server, |n, _| n.reply_reconnections())
        .unwrap();
    assert!(
        reply_reconnections >= 1,
        "the server must have re-established the connection to deliver the result"
    );
}
