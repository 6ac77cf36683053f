//! Cross-crate integration tests: the multi-application node host.
//!
//! A node hosts several applications with independent services on one
//! middleware stack; callbacks are routed to the owning application and the
//! typed event trace lets the driver assert on middleware behaviour without
//! downcasting.

use migration::{MessagingClient, MessagingServer, PictureClient, PictureServer, TaskOutcome, TaskSpec};
use peerhood::node::PeerHoodNode;
use peerhood::prelude::*;
use scenarios::topology::{experiment_config, spawn_apps, with_app};
use simnet::prelude::*;

/// Spawns a stationary node hosting the given applications and subscribes
/// its event trace.
fn spawn_multi(
    world: &mut World,
    config: peerhood::config::PeerHoodConfig,
    position: Point,
    apps: Vec<Box<dyn peerhood::application::Application>>,
) -> NodeId {
    let node = spawn_apps(world, config, MobilityModel::stationary(position), apps);
    world
        .with_agent::<PeerHoodNode, _>(node, |n, _| n.subscribe_event_trace())
        .unwrap();
    node
}

#[test]
fn one_device_hosts_two_services_for_two_workloads() {
    let spec = TaskSpec::small();
    let mut world = World::new(WorldConfig::ideal(501));
    let phone = spawn_multi(
        &mut world,
        experiment_config("phone", MobilityClass::Dynamic, DiscoveryMode::Dynamic),
        Point::new(0.0, 0.0),
        vec![
            Box::new(MessagingClient::new(
                "print",
                b"multi-app hello".to_vec(),
                8,
                SimDuration::from_secs(1),
                SimDuration::from_secs(30),
            )),
            Box::new(PictureClient::new("analysis", spec.clone(), SimDuration::from_secs(35))),
        ],
    );
    let pc = spawn_multi(
        &mut world,
        experiment_config("pc", MobilityClass::Static, DiscoveryMode::Dynamic),
        Point::new(4.0, 0.0),
        vec![
            Box::new(MessagingServer::new("print")),
            Box::new(PictureServer::for_spec("analysis", &spec)),
        ],
    );
    world.run_for(SimDuration::from_secs(240));

    // Both workloads completed against the same server device.
    let printed = with_app(&mut world, pc, MessagingServer::received_count).unwrap();
    assert_eq!(printed, 8, "the print service must receive the whole stream");
    let packages = with_app(&mut world, pc, |s: &PictureServer| s.packages_received()).unwrap();
    assert_eq!(packages, spec.packages, "the analysis service must receive the upload");
    let outcome = with_app(&mut world, phone, |c: &PictureClient| c.outcome()).unwrap();
    assert_eq!(outcome, TaskOutcome::CompletedDirect);
    let sent = with_app(&mut world, phone, |c: &MessagingClient| c.sent).unwrap();
    assert_eq!(sent, 8);

    // Both services were advertised by the single daemon.
    let known_services = world
        .with_agent::<PeerHoodNode, _>(phone, |n, _| n.storage_stats().known_services)
        .unwrap();
    assert_eq!(known_services, 2);

    // Callback routing: each server app owns exactly its own service's
    // incoming connection.
    world
        .with_agent::<PeerHoodNode, _>(pc, |n, _| {
            let trace = n.take_event_trace();
            let print_owner = trace
                .iter()
                .find_map(|e| match e {
                    PeerHoodEvent::PeerConnected { app, service, .. } if service == "print" => Some(*app),
                    _ => None,
                })
                .expect("print connection traced");
            let analysis_owner = trace
                .iter()
                .find_map(|e| match e {
                    PeerHoodEvent::PeerConnected { app, service, .. } if service == "analysis" => Some(*app),
                    _ => None,
                })
                .expect("analysis connection traced");
            assert_eq!(print_owner, Some(AppId(0)));
            assert_eq!(analysis_owner, Some(AppId(1)));
        })
        .unwrap();

    // Event-trace assertions on the client side, with no downcasting at
    // all: the messaging app's connection established and carried no data
    // back, the picture app received the analysis result.
    world
        .with_agent::<PeerHoodNode, _>(phone, |n, _| {
            let trace = n.take_event_trace();
            assert!(
                trace.iter().any(|e| matches!(
                    e,
                    PeerHoodEvent::Connected {
                        app: Some(AppId(0)),
                        ..
                    }
                )),
                "messaging app must establish its connection"
            );
            assert!(
                trace.iter().any(|e| matches!(
                    e,
                    PeerHoodEvent::Data {
                        app: Some(AppId(1)),
                        ..
                    }
                )),
                "picture app must receive the result payload"
            );
            assert!(
                trace
                    .iter()
                    .any(|e| matches!(e, PeerHoodEvent::DeviceDiscovered { .. })),
                "discovery must be traced"
            );
        })
        .unwrap();
}

#[test]
fn with_api_for_targets_a_specific_application() {
    // Two idle applications on one node; a driver-opened connection is owned
    // by the application the driver chose.
    let mut world = World::new(WorldConfig::ideal(502));
    let a = spawn_multi(
        &mut world,
        experiment_config("a", MobilityClass::Dynamic, DiscoveryMode::Dynamic),
        Point::new(0.0, 0.0),
        vec![Box::new(IdleApplication), Box::new(IdleApplication)],
    );
    let b = spawn_multi(
        &mut world,
        experiment_config("b", MobilityClass::Static, DiscoveryMode::Dynamic),
        Point::new(4.0, 0.0),
        vec![Box::new(MessagingServer::new("sink"))],
    );
    world.run_for(SimDuration::from_secs(40));
    let conn = world
        .with_agent::<PeerHoodNode, _>(a, |n, ctx| {
            n.with_api_for(Some(AppId(1)), ctx, |api| api.connect_to_service("sink"))
                .unwrap()
        })
        .unwrap()
        .unwrap();
    world.run_for(SimDuration::from_secs(5));
    world
        .with_agent::<PeerHoodNode, _>(a, |n, _| {
            assert_eq!(n.connection(conn).and_then(|c| c.owner), Some(AppId(1)));
            let trace = n.take_event_trace();
            assert!(
                trace
                    .iter()
                    .any(|e| matches!(e, PeerHoodEvent::Connected { app: Some(AppId(1)), conn: c } if *c == conn)),
                "establishment must be routed to the chosen app"
            );
        })
        .unwrap();
    let _ = b;
}
