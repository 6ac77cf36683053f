//! Unit tests for the node host: end-to-end middleware behaviour plus the
//! multi-application dispatch layer (routing, builder defaults, event
//! trace).

use std::sync::{Arc, Mutex};

use simnet::rng::SimRng;
use simnet::{Ctx, MobilityModel, NodeId, OnWorld, Point, RadioTech, SimDuration, SimTime, World, WorldConfig};

use crate::application::Application;
use crate::bridge::BridgeService;
use crate::config::PeerHoodConfig;
use crate::connection::{AppConnection, ConnKind, ConnState, ConnectionSnapshot};
use crate::device::{DeviceInfo, MobilityClass};
use crate::error::PeerHoodError;
use crate::handover::HandoverTarget;
use crate::ids::{ConnectionId, DeviceAddress};
use crate::plugin::InquiryKind;
use crate::proto::{Message, NeighborRecord};
use crate::resilience::BreakerState;
use crate::service::{ServiceInfo, BRIDGE_SERVICE_NAME};
use crate::wire;

use super::pending::LinkRole;
use super::{AppId, Core, PeerHoodApi, PeerHoodEvent, PeerHoodNode, Timer};

/// A scriptable test application that records every callback and echoes
/// received data back when asked to.
#[derive(Default)]
struct TestApp {
    service: Option<&'static str>,
    echo: bool,
    connected: Vec<ConnectionId>,
    peer_connected: Vec<(ConnectionId, String)>,
    data: Vec<(ConnectionId, Vec<u8>)>,
    disconnected: Vec<(ConnectionId, bool)>,
    changed: Vec<ConnectionId>,
    failed: Vec<(ConnectionId, PeerHoodError)>,
    discovered: Vec<DeviceAddress>,
    timers: Vec<u64>,
    /// Each provider switch the middleware proposed, with the devices the
    /// storage held absent when it asked.
    switches: Vec<(ConnectionId, DeviceAddress, Vec<DeviceAddress>)>,
}

impl TestApp {
    fn server(service: &'static str, echo: bool) -> Self {
        TestApp {
            service: Some(service),
            echo,
            ..TestApp::default()
        }
    }
}

impl Application for TestApp {
    fn on_start(&mut self, api: &mut PeerHoodApi<'_>) {
        if let Some(name) = self.service {
            api.register_service(ServiceInfo::new(name, "test", 10)).unwrap();
        }
    }
    fn on_peer_connected(
        &mut self,
        _api: &mut PeerHoodApi<'_>,
        conn: ConnectionId,
        _client: DeviceInfo,
        service: &str,
    ) {
        self.peer_connected.push((conn, service.to_string()));
    }
    fn on_connected(&mut self, _api: &mut PeerHoodApi<'_>, conn: ConnectionId) {
        self.connected.push(conn);
    }
    fn on_connect_failed(&mut self, _api: &mut PeerHoodApi<'_>, conn: ConnectionId, error: PeerHoodError) {
        self.failed.push((conn, error));
    }
    fn on_data(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, payload: Vec<u8>) {
        if self.echo {
            let mut reply = payload.clone();
            reply.reverse();
            let _ = api.send(conn, reply);
        }
        self.data.push((conn, payload));
    }
    fn on_disconnected(&mut self, _api: &mut PeerHoodApi<'_>, conn: ConnectionId, graceful: bool) {
        self.disconnected.push((conn, graceful));
    }
    fn on_connection_changed(&mut self, _api: &mut PeerHoodApi<'_>, conn: ConnectionId) {
        self.changed.push(conn);
    }
    fn on_reconnect_required(
        &mut self,
        api: &mut PeerHoodApi<'_>,
        conn: ConnectionId,
        provider: DeviceAddress,
    ) -> bool {
        let absent = api
            .device_list()
            .iter()
            .filter(|d| d.absent)
            .map(|d| d.info.address)
            .collect();
        self.switches.push((conn, provider, absent));
        true
    }
    fn on_device_discovered(&mut self, _api: &mut PeerHoodApi<'_>, address: DeviceAddress) {
        self.discovered.push(address);
    }
    fn on_timer(&mut self, _api: &mut PeerHoodApi<'_>, token: u64) {
        self.timers.push(token);
    }
}

fn peerhood(name: &str, mobility: MobilityClass, app: TestApp) -> Box<OnWorld<PeerHoodNode>> {
    Box::new(OnWorld(
        PeerHoodNode::builder()
            .config(PeerHoodConfig::new(name, mobility))
            .app(app)
            .build(),
    ))
}

/// A node that records its event trace from the start.
fn traced(mut node: PeerHoodNode) -> Box<OnWorld<PeerHoodNode>> {
    node.subscribe_event_trace();
    Box::new(OnWorld(node))
}

fn fast_discovery_config(name: &str, mobility: MobilityClass) -> PeerHoodConfig {
    let mut cfg = PeerHoodConfig::new(name, mobility);
    cfg.discovery.inquiry_interval = SimDuration::from_secs(3);
    cfg
}

fn bt() -> [RadioTech; 1] {
    [RadioTech::Bluetooth]
}

#[test]
fn discovery_connect_and_echo_between_direct_neighbors() {
    let mut world = World::new(WorldConfig::ideal(41));
    let client = world.add_node(
        "client",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        peerhood("client", MobilityClass::Dynamic, TestApp::default()),
    );
    let server = world.add_node(
        "server",
        MobilityModel::stationary(Point::new(4.0, 0.0)),
        &bt(),
        peerhood("server", MobilityClass::Static, TestApp::server("echo", true)),
    );
    // Let a couple of discovery cycles run.
    world.run_for(SimDuration::from_secs(40));
    let stats = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| n.storage_stats())
        .unwrap();
    assert_eq!(stats.known_devices, 1, "client should have found the server");
    assert_eq!(stats.known_services, 1);
    // The discovery fan-out callback fired for the newly learned device.
    world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            let discovered = n.with_app(|app: &TestApp| app.discovered.clone()).unwrap();
            assert!(!discovered.is_empty(), "on_device_discovered must fire");
        })
        .unwrap();

    // Connect to the echo service and exchange data.
    let conn = world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            n.with_api(ctx, |api| api.connect_to_service("echo")).unwrap()
        })
        .unwrap()
        .expect("service should be connectable");
    world.run_for(SimDuration::from_secs(5));
    world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            assert_eq!(n.app::<TestApp>().unwrap().connected, vec![conn]);
            n.with_api(ctx, |api| api.send(conn, b"hello".to_vec()).unwrap());
        })
        .unwrap();
    world.run_for(SimDuration::from_secs(5));
    world
        .with_agent::<PeerHoodNode, _>(server, |n, _| {
            let app = n.app::<TestApp>().unwrap();
            assert_eq!(app.peer_connected.len(), 1);
            assert_eq!(app.data.len(), 1);
            assert_eq!(app.data[0].1, b"hello".to_vec());
        })
        .unwrap();
    world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            let app = n.app::<TestApp>().unwrap();
            assert_eq!(app.data.len(), 1);
            assert_eq!(app.data[0].1, b"olleh".to_vec());
        })
        .unwrap();
    // The server sees the session too.
    let server_conns = world
        .with_agent::<PeerHoodNode, _>(server, |n, _| n.connections())
        .unwrap();
    assert_eq!(server_conns.len(), 1);
    assert_eq!(server_conns[0].id, conn);
}

#[test]
fn bridged_connection_relays_data_between_remote_devices() {
    // A --- B --- C in a line; A and C are out of each other's Bluetooth
    // range and must interconnect through B (Fig. 4.1).
    let mut world = World::new(WorldConfig::ideal(42));
    let a = world.add_node(
        "a",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(
            PeerHoodNode::builder()
                .config(fast_discovery_config("a", MobilityClass::Dynamic))
                .app(TestApp::default())
                .build(),
        )),
    );
    let b = world.add_node(
        "b",
        MobilityModel::stationary(Point::new(8.0, 0.0)),
        &bt(),
        Box::new(OnWorld(PeerHoodNode::relay(fast_discovery_config(
            "b",
            MobilityClass::Static,
        )))),
    );
    let c = world.add_node(
        "c",
        MobilityModel::stationary(Point::new(16.0, 0.0)),
        &bt(),
        Box::new(OnWorld(
            PeerHoodNode::builder()
                .config(fast_discovery_config("c", MobilityClass::Static))
                .app(TestApp::server("echo", true))
                .build(),
        )),
    );
    assert!(!world.in_range(a, c, RadioTech::Bluetooth));
    // Dynamic discovery needs a couple of cycles to propagate C to A.
    world.run_for(SimDuration::from_secs(120));
    let a_stats = world
        .with_agent::<PeerHoodNode, _>(a, |n, _| n.storage_stats())
        .unwrap();
    assert_eq!(a_stats.known_devices, 2, "A must learn about both B and C");
    assert_eq!(a_stats.max_jumps, 1);
    let c_addr = world
        .with_agent::<PeerHoodNode, _>(c, |n, _| n.device_address().unwrap())
        .unwrap();
    let route = world
        .with_agent::<PeerHoodNode, _>(a, |n, _| {
            n.known_devices()
                .into_iter()
                .find(|d| d.info.address == c_addr)
                .map(|d| d.route.clone())
        })
        .unwrap()
        .expect("route to C");
    assert_eq!(route.jumps, 1);
    assert_eq!(route.bridge, Some(DeviceAddress::from_node(b)));

    // Connect A -> C through the bridge and exchange data.
    let conn = world
        .with_agent::<PeerHoodNode, _>(a, |n, ctx| {
            n.with_api(ctx, |api| api.connect_to(c_addr, "echo")).unwrap()
        })
        .unwrap()
        .expect("bridge connection should start");
    world.run_for(SimDuration::from_secs(10));
    world
        .with_agent::<PeerHoodNode, _>(a, |n, ctx| {
            assert_eq!(n.app::<TestApp>().unwrap().connected, vec![conn]);
            n.with_api(ctx, |api| api.send(conn, b"ping across".to_vec()).unwrap());
        })
        .unwrap();
    world.run_for(SimDuration::from_secs(10));
    world
        .with_agent::<PeerHoodNode, _>(c, |n, _| {
            let app = n.app::<TestApp>().unwrap();
            assert_eq!(app.data.len(), 1);
            assert_eq!(app.data[0].1, b"ping across".to_vec());
        })
        .unwrap();
    world
        .with_agent::<PeerHoodNode, _>(a, |n, _| {
            let app = n.app::<TestApp>().unwrap();
            assert_eq!(app.data.len(), 1, "echo should travel back through the bridge");
        })
        .unwrap();
    // The bridge actually relayed traffic.
    let (pairs, relayed_msgs, relayed_bytes) = world.with_agent::<PeerHoodNode, _>(b, |n, _| n.bridge_stats()).unwrap();
    assert_eq!(pairs, 1);
    assert!(relayed_msgs >= 2);
    assert!(relayed_bytes > 0);
}

/// Two clients each reach their own server through the same bridge at the
/// same time: the bridge holds two pairs, each relayed frame finds the
/// other leg of its own pair, and each server hears only its own client.
#[test]
fn one_bridge_relays_two_sessions_to_two_servers_at_once() {
    let mut world = World::new(WorldConfig::ideal(44));
    let stack = |world: &mut World, name: &str, at: Point, app: Option<TestApp>| {
        let config = fast_discovery_config(name, MobilityClass::Static);
        let node = match app {
            Some(app) => PeerHoodNode::builder().config(config).app(app).build(),
            None => PeerHoodNode::relay(config),
        };
        world.add_node(name, MobilityModel::stationary(at), &bt(), Box::new(OnWorld(node)))
    };
    let clients = [
        stack(&mut world, "a1", Point::new(0.0, 0.0), Some(TestApp::default())),
        stack(&mut world, "a2", Point::new(0.0, 3.0), Some(TestApp::default())),
    ];
    let b = stack(&mut world, "b", Point::new(8.0, 1.5), None);
    let servers = [
        stack(
            &mut world,
            "c1",
            Point::new(16.0, 0.0),
            Some(TestApp::server("echo", true)),
        ),
        stack(
            &mut world,
            "c2",
            Point::new(16.0, 3.0),
            Some(TestApp::server("echo", true)),
        ),
    ];
    for (client, server) in clients.iter().zip(&servers) {
        assert!(!world.in_range(*client, *server, RadioTech::Bluetooth));
    }
    world.run_for(SimDuration::from_secs(120));

    let payloads = [
        [b"one-1".to_vec(), b"one-2".to_vec()],
        [b"two-1".to_vec(), b"two-2".to_vec()],
    ];
    let mut conns = Vec::new();
    for (client, server) in clients.iter().zip(&servers) {
        let target = DeviceAddress::from_node(*server);
        let conn = world
            .with_agent::<PeerHoodNode, _>(*client, |n, ctx| n.with_api(ctx, |api| api.connect_to(target, "echo")))
            .flatten()
            .expect("the client is running")
            .expect("the bridged connection starts");
        conns.push(conn);
    }
    world.run_for(SimDuration::from_secs(10));
    for ((client, conn), sent) in clients.iter().zip(&conns).zip(&payloads) {
        world
            .with_agent::<PeerHoodNode, _>(*client, |n, ctx| {
                assert_eq!(n.app::<TestApp>().unwrap().connected, vec![*conn]);
                let first_hop = n.connection(*conn).and_then(|c| c.first_hop);
                assert_eq!(
                    first_hop,
                    Some(DeviceAddress::from_node(b)),
                    "the session runs through b"
                );
                for payload in sent {
                    n.with_api(ctx, |api| api.send(*conn, payload.clone()).unwrap());
                }
            })
            .unwrap();
    }
    world.run_for(SimDuration::from_secs(10));

    for (((client, server), conn), sent) in clients.iter().zip(&servers).zip(&conns).zip(&payloads) {
        let heard = world
            .with_agent::<PeerHoodNode, _>(*server, |n, _| n.app::<TestApp>().unwrap().data.clone())
            .unwrap();
        let expected: Vec<_> = sent.iter().map(|p| (*conn, p.clone())).collect();
        assert_eq!(
            heard, expected,
            "a server hears its own client's messages, and only those"
        );
        let echoed = world
            .with_agent::<PeerHoodNode, _>(*client, |n, _| n.app::<TestApp>().unwrap().data.clone())
            .unwrap();
        let reversed = |p: &Vec<u8>| p.iter().rev().copied().collect::<Vec<u8>>();
        let expected: Vec<_> = sent.iter().map(|p| (*conn, reversed(p))).collect();
        assert_eq!(echoed, expected, "each echo travels back to its own client");
    }
    let (pairs, relayed_msgs, relayed_bytes) = world.with_agent::<PeerHoodNode, _>(b, |n, _| n.bridge_stats()).unwrap();
    assert_eq!(pairs, 2);
    // Four messages up and their four echoes down.
    assert_eq!(relayed_msgs, 8);
    let sent_bytes: usize = payloads.iter().flatten().map(Vec::len).sum();
    assert_eq!(relayed_bytes, 2 * sent_bytes as u64);
}

#[test]
fn connecting_to_an_unknown_service_fails_cleanly() {
    let mut world = World::new(WorldConfig::ideal(43));
    let client = world.add_node(
        "client",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        peerhood("client", MobilityClass::Dynamic, TestApp::default()),
    );
    let _server = world.add_node(
        "server",
        MobilityModel::stationary(Point::new(4.0, 0.0)),
        &bt(),
        peerhood("server", MobilityClass::Static, TestApp::server("echo", false)),
    );
    world.run_for(SimDuration::from_secs(40));
    // The service name is unknown network-wide.
    let err = world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            n.with_api(ctx, |api| api.connect_to_service("no-such-service"))
                .unwrap()
        })
        .unwrap()
        .unwrap_err();
    assert_eq!(err, PeerHoodError::ServiceNotFound("no-such-service".into()));
    // Connecting to a device that exists but with a wrong service name is
    // rejected by the remote engine.
    let server_addr = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| n.known_devices()[0].info.address)
        .unwrap();
    let conn = world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            n.with_api(ctx, |api| api.connect_to(server_addr, "wrong")).unwrap()
        })
        .unwrap()
        .unwrap();
    world.run_for(SimDuration::from_secs(5));
    world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            let app = n.app::<TestApp>().unwrap();
            assert_eq!(app.failed.len(), 1);
            assert_eq!(app.failed[0].0, conn);
            assert!(app.connected.is_empty());
        })
        .unwrap();
}

// ---------------------------------------------------------------------
// Multi-application dispatch layer
// ---------------------------------------------------------------------

#[test]
fn builder_defaults_and_relay_flag() {
    let mut node = PeerHoodNode::builder().build();
    assert!(node.app_ids().is_empty(), "no apps by default");
    assert!(node.take_event_trace().is_empty(), "no trace until subscribed");
    assert_eq!(node.device_address(), None, "no address before start");

    // A pure relay hosts no applications; whether it relays is its
    // configuration's `bridge.enabled`, the one switch.
    let relay = PeerHoodNode::relay(PeerHoodConfig::static_device("pc"));
    assert!(relay.app_ids().is_empty());

    let two = PeerHoodNode::builder()
        .app(TestApp::default())
        .app(TestApp::server("x", false))
        .build();
    assert_eq!(two.app_ids(), vec![AppId(0), AppId(1)]);
    assert_eq!(two.app_by_id::<TestApp>(AppId(1)).unwrap().service, Some("x"));
}

#[test]
fn two_services_on_one_device_route_to_the_right_app() {
    // One server device hosts two independent services ("echo" and "print"),
    // each owned by its own application. Two client connections, one per
    // service, must be routed to the right app.
    let mut world = World::new(WorldConfig::ideal(44));
    let client = world.add_node(
        "client",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(
            PeerHoodNode::builder()
                .config(PeerHoodConfig::new("client", MobilityClass::Dynamic))
                .app(TestApp::default())
                .build(),
        )),
    );
    let server = world.add_node(
        "server",
        MobilityModel::stationary(Point::new(4.0, 0.0)),
        &bt(),
        Box::new(OnWorld(
            PeerHoodNode::builder()
                .config(PeerHoodConfig::new("server", MobilityClass::Static))
                .app(TestApp::server("echo", true))
                .app(TestApp::server("print", false))
                .build(),
        )),
    );
    world.run_for(SimDuration::from_secs(40));
    let stats = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| n.storage_stats())
        .unwrap();
    assert_eq!(stats.known_services, 2, "both services must be advertised");

    let echo_conn = world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            n.with_api(ctx, |api| api.connect_to_service("echo")).unwrap()
        })
        .unwrap()
        .unwrap();
    let print_conn = world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            n.with_api(ctx, |api| api.connect_to_service("print")).unwrap()
        })
        .unwrap()
        .unwrap();
    world.run_for(SimDuration::from_secs(5));
    world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            n.with_api(ctx, |api| {
                api.send(echo_conn, b"to echo".to_vec()).unwrap();
                api.send(print_conn, b"to print".to_vec()).unwrap();
            });
        })
        .unwrap();
    world.run_for(SimDuration::from_secs(5));
    world
        .with_agent::<PeerHoodNode, _>(server, |n, _| {
            // The service-owning app got exactly its own connection and data.
            let echo_app = n.app_by_id::<TestApp>(AppId(0)).unwrap();
            assert_eq!(echo_app.peer_connected.len(), 1);
            assert_eq!(echo_app.peer_connected[0].1, "echo");
            assert_eq!(echo_app.data.len(), 1);
            assert_eq!(echo_app.data[0].1, b"to echo".to_vec());
            let print_app = n.app_by_id::<TestApp>(AppId(1)).unwrap();
            assert_eq!(print_app.peer_connected.len(), 1);
            assert_eq!(print_app.peer_connected[0].1, "print");
            assert_eq!(print_app.data.len(), 1);
            assert_eq!(print_app.data[0].1, b"to print".to_vec());
            // Connection ownership is queryable.
            assert_eq!(n.connection_owner(echo_conn), Some(AppId(0)));
            assert_eq!(n.connection_owner(print_conn), Some(AppId(1)));
        })
        .unwrap();
    // The echo reply reached the client (whose single app owns both
    // connections).
    world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            let app = n.app::<TestApp>().unwrap();
            assert_eq!(app.data.len(), 1);
            assert_eq!(app.data[0].1, b"ohce ot".to_vec());
            assert_eq!(n.connection_owner(echo_conn), Some(AppId(0)));
        })
        .unwrap();
}

/// Builds a two-node world (client with two apps, echo server) and returns
/// `(world, client, conn)` where `conn` is an established connection owned
/// by the client's app 0.
fn ownership_world() -> (World, simnet::NodeId, ConnectionId) {
    let mut world = World::new(WorldConfig::ideal(47));
    let client = world.add_node(
        "client",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(
            PeerHoodNode::builder()
                .config(PeerHoodConfig::new("client", MobilityClass::Dynamic))
                .app(TestApp::default())
                .app(TestApp::default())
                .build(),
        )),
    );
    world.add_node(
        "server",
        MobilityModel::stationary(Point::new(3.0, 0.0)),
        &bt(),
        peerhood("server", MobilityClass::Static, TestApp::server("echo", true)),
    );
    world.run_for(SimDuration::from_secs(40));
    let conn = world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            n.with_api_for(Some(AppId(0)), ctx, |api| api.connect_to_service("echo"))
                .unwrap()
        })
        .unwrap()
        .unwrap();
    world.run_for(SimDuration::from_secs(5));
    (world, client, conn)
}

#[test]
fn trusted_apps_default_preserves_the_shared_daemon_model() {
    let (mut world, client, conn) = ownership_world();
    world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            // Any co-hosted app may act on the connection, as in the
            // original library where applications share one daemon.
            n.with_api_for(Some(AppId(1)), ctx, |api| {
                api.send(conn, b"shared".to_vec()).unwrap();
                api.close(conn);
            });
            assert!(n.connection(conn).is_none(), "the co-hosted app's close must stick");
        })
        .unwrap();
}

#[test]
fn timers_are_routed_to_the_scheduling_app() {
    let mut world = World::new(WorldConfig::ideal(45));
    let node = world.add_node(
        "dev",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(
            PeerHoodNode::builder()
                .config(PeerHoodConfig::static_device("dev"))
                .app(TestApp::default())
                .app(TestApp::default())
                .build(),
        )),
    );
    world.run_for(SimDuration::from_secs(1));
    world
        .with_agent::<PeerHoodNode, _>(node, |n, ctx| {
            n.with_api_for(Some(AppId(1)), ctx, |api| {
                api.schedule_timer(SimDuration::from_secs(1), 77);
            });
        })
        .unwrap();
    world.run_for(SimDuration::from_secs(5));
    world
        .with_agent::<PeerHoodNode, _>(node, |n, _| {
            assert!(n.app_by_id::<TestApp>(AppId(0)).unwrap().timers.is_empty());
            assert_eq!(n.app_by_id::<TestApp>(AppId(1)).unwrap().timers, vec![77]);
        })
        .unwrap();
}

/// An app timer and a reply retry wait in the one timer table: each fires
/// once, the app's token keeps all 64 bits, and the table ends empty.
#[test]
fn app_timers_and_reply_retries_share_one_table() {
    let mut world = World::new(WorldConfig::ideal(45));
    let node = world.add_node(
        "dev",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(
            PeerHoodNode::builder()
                .config(PeerHoodConfig::static_device("dev"))
                .app(TestApp::default())
                .build(),
        )),
    );
    world.run_for(SimDuration::from_secs(1));
    let gone = ConnectionId::new(DeviceAddress::from_node(NodeId::from_raw(9)), 0);
    world
        .with_agent::<PeerHoodNode, _>(node, |n, ctx| {
            n.with_api(ctx, |api| {
                api.schedule_timer(SimDuration::from_secs(2), u64::MAX);
                api.core
                    .schedule(api.ctx, SimDuration::from_secs(1), Timer::ReplyRetry(gone));
                assert_eq!(api.core.timers.len(), 2);
            })
        })
        .flatten()
        .unwrap();
    world.run_for(SimDuration::from_secs(5));
    world
        .with_agent::<PeerHoodNode, _>(node, |n, _| {
            assert_eq!(n.app::<TestApp>().unwrap().timers, vec![u64::MAX]);
            assert!(n.core_mut().unwrap().timers.is_empty());
            assert!(n.connections().is_empty(), "a retry of a connection gone does nothing");
        })
        .unwrap();
}

#[test]
fn event_trace_records_the_dispatch_stream() {
    let mut world = World::new(WorldConfig::ideal(46));
    let client = world.add_node(
        "client",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        traced(
            PeerHoodNode::builder()
                .config(PeerHoodConfig::new("client", MobilityClass::Dynamic))
                .app(TestApp::default())
                .build(),
        ),
    );
    let server = world.add_node(
        "server",
        MobilityModel::stationary(Point::new(4.0, 0.0)),
        &bt(),
        traced(
            PeerHoodNode::builder()
                .config(PeerHoodConfig::new("server", MobilityClass::Static))
                .app(TestApp::server("echo", true))
                .build(),
        ),
    );
    world.run_for(SimDuration::from_secs(40));
    let conn = world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            n.with_api(ctx, |api| api.connect_to_service("echo")).unwrap()
        })
        .unwrap()
        .unwrap();
    world.run_for(SimDuration::from_secs(5));
    world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            n.with_api(ctx, |api| api.send(conn, b"ping".to_vec()).unwrap());
        })
        .unwrap();
    world.run_for(SimDuration::from_secs(5));

    // The client trace shows the typed lifecycle without any downcasting.
    let trace = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| n.take_event_trace())
        .unwrap();
    assert!(
        matches!(trace.first(), Some(PeerHoodEvent::Started { app: AppId(0) })),
        "trace starts with Started, got {:?}",
        trace.first()
    );
    assert!(
        trace
            .iter()
            .any(|e| matches!(e, PeerHoodEvent::DeviceDiscovered { .. })),
        "discovery must be traced"
    );
    assert!(
        trace
            .iter()
            .any(|e| matches!(e, PeerHoodEvent::Connected { conn: c, .. } if *c == conn)),
        "establishment must be traced"
    );
    assert!(
        trace
            .iter()
            .any(|e| matches!(e, PeerHoodEvent::Data { conn: c, payload, .. } if *c == conn && payload == b"gnip")),
        "echoed data must be traced"
    );
    // Draining empties the buffer but keeps recording.
    let empty = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| n.take_event_trace())
        .unwrap();
    assert!(empty.is_empty());

    // The server side traces the incoming connection with its service name.
    let server_trace = world
        .with_agent::<PeerHoodNode, _>(server, |n, _| n.take_event_trace())
        .unwrap();
    assert!(
        server_trace.iter().any(
            |e| matches!(e, PeerHoodEvent::PeerConnected { service, app: Some(AppId(0)), .. } if service == "echo")
        ),
        "incoming connection must be traced with its owning app"
    );
}

/// What a [`FanOutApp`] saw: the app it ran as, the event, the device.
type FanOutLog = Arc<Mutex<Vec<(Option<AppId>, &'static str, DeviceAddress)>>>;

/// Logs every discovery callback into one log shared with its co-hosted app.
struct FanOutApp(FanOutLog);

impl Application for FanOutApp {
    fn on_device_discovered(&mut self, api: &mut PeerHoodApi<'_>, address: DeviceAddress) {
        self.0.lock().unwrap().push((api.app_id(), "discovered", address));
    }
    fn on_device_lost(&mut self, api: &mut PeerHoodApi<'_>, address: DeviceAddress) {
        self.0.lock().unwrap().push((api.app_id(), "lost", address));
    }
}

#[test]
fn discovery_events_reach_every_hosted_app_once_in_app_id_order() {
    let log = FanOutLog::default();
    let mut world = World::new(WorldConfig::ideal(49));
    let client = world.add_node(
        "client",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        traced(
            PeerHoodNode::builder()
                .config(PeerHoodConfig::new("client", MobilityClass::Dynamic))
                .app(FanOutApp(log.clone()))
                .app(FanOutApp(log.clone()))
                .build(),
        ),
    );
    let server = world.add_node(
        "server",
        MobilityModel::stationary(Point::new(4.0, 0.0)),
        &bt(),
        peerhood("server", MobilityClass::Static, TestApp::default()),
    );
    world.run_for(SimDuration::from_secs(40));
    world.crash_node(server);
    // No session to the server, so no suspicion: it ages out at the
    // 180 s `stale_timeout`.
    world.run_for(SimDuration::from_secs(200));

    let trace = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| n.take_event_trace())
        .unwrap();
    let expected: Vec<_> = trace
        .iter()
        .filter_map(|event| match *event {
            PeerHoodEvent::DeviceDiscovered { address } => Some(("discovered", address)),
            PeerHoodEvent::DeviceLost { address } => Some(("lost", address)),
            _ => None,
        })
        .flat_map(|(kind, address)| [AppId(0), AppId(1)].map(|app| (Some(app), kind, address)))
        .collect();
    let kinds: Vec<&str> = expected.iter().map(|&(_, kind, _)| kind).collect();
    assert!(
        kinds.contains(&"discovered") && kinds.contains(&"lost"),
        "the script must discover the server and lose it: {kinds:?}"
    );
    assert_eq!(
        *log.lock().unwrap(),
        expected,
        "each event once per app, app 0 before app 1"
    );
}

// ---------------------------------------------------------------------
// Handover route-recording regression (the seed bug fixed in PR 3)
// ---------------------------------------------------------------------

/// The routing handover must record the bridge the replacement route was
/// actually built through. The seed implementation recovered the bridge from
/// the monitor's *current* candidate at Accept time — a candidate refreshed
/// while the switch was in flight could then masquerade as the connection's
/// `ConnKind` bridge, poisoning later handover exclusion and LinkPeer-target
/// routing. This test reproduces exactly that interleaving: it lets a switch
/// begin towards one bridge, then (inside the multi-second setup window)
/// makes the *other* bridge the storage's best candidate, and asserts the
/// established connection records the bridge that really carries it.
#[test]
fn handover_records_the_bridge_actually_used_not_the_refreshed_candidate() {
    // Ideal radios (no faults, no noise) but a fixed 2 s connection setup,
    // so there is a deterministic window while the replacement route is in
    // flight.
    let mut cfg = WorldConfig::ideal(47);
    cfg.radio.bluetooth.setup_min_s = 2.0;
    cfg.radio.bluetooth.setup_max_s = 2.0;
    let mut world = World::new(cfg);
    let client = world.add_node(
        "client",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        peerhood("client", MobilityClass::Dynamic, TestApp::default()),
    );
    let server = world.add_node(
        "server",
        // Close enough that the direct link's natural quality stays above
        // the 230 threshold — only the injected decay may trigger a switch.
        MobilityModel::stationary(Point::new(5.0, 0.0)),
        &bt(),
        peerhood("server", MobilityClass::Static, TestApp::server("echo", false)),
    );
    let bridges = [
        Point::new(2.5, 3.5),  // in range of both client and server
        Point::new(2.5, -4.0), // slightly farther, so scores differ
    ]
    .map(|p| {
        world.add_node(
            "bridge",
            MobilityModel::stationary(p),
            &bt(),
            Box::new(OnWorld(PeerHoodNode::relay(fast_discovery_config(
                "bridge",
                MobilityClass::Static,
            )))),
        )
    });
    let bridge_addrs = bridges.map(DeviceAddress::from_node);
    // Let dynamic discovery converge: the client must know the server
    // directly and both bridges must have reported it as their neighbour.
    world.run_for(SimDuration::from_secs(180));
    let server_addr = DeviceAddress::from_node(server);
    let conn = world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            n.with_api(ctx, |api| api.connect_to(server_addr, "echo")).unwrap()
        })
        .unwrap()
        .expect("direct connection must start");
    world.run_for(SimDuration::from_secs(10));
    let link = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| n.connection_link(conn))
        .unwrap()
        .expect("connection established");
    assert!(
        world
            .with_agent::<PeerHoodNode, _>(client, |n, _| n.connection(conn).unwrap().first_hop)
            .unwrap()
            == Some(server_addr),
        "the initial route is direct"
    );

    // Degrade the direct link so the HandoverThread triggers a switch.
    world.set_link_quality_override(link, 240.0, 20.0);
    let mut in_flight_via = None;
    for _ in 0..300 {
        world.run_for(SimDuration::from_millis(100));
        in_flight_via = world
            .with_agent::<PeerHoodNode, _>(client, |n, _| {
                n.core_mut().and_then(|core| {
                    core.pending.values().find_map(|p| match p {
                        LinkRole::HandoverPending { conn: c, via, .. } if *c == conn => Some(*via),
                        _ => None,
                    })
                })
            })
            .unwrap();
        if in_flight_via.is_some() {
            break;
        }
    }
    let in_flight_via = in_flight_via.expect("a routing handover must start");
    let decoy = if in_flight_via == bridge_addrs[0] {
        bridge_addrs[1]
    } else {
        bridge_addrs[0]
    };

    // While the replacement connection is still being set up, make the
    // *other* bridge the storage's best candidate: a perfect-quality report
    // of the server. The next monitor pass (still inside the 2 s window)
    // refreshes the monitor's candidate to the decoy — the exact
    // interleaving under which the seed code recorded the wrong bridge.
    world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            let now = ctx.now();
            let core = n.core_mut().expect("client core running");
            let server_info = core.storage.get(server_addr).expect("server known").info.clone();
            core.storage.integrate_neighbor_report(
                decoy,
                255,
                MobilityClass::Static,
                &[NeighborRecord {
                    info: server_info,
                    jumps: 0,
                    hop_qualities: vec![255],
                    services: vec![].into(),
                }],
                crate::config::DiscoveryMode::Dynamic,
                now,
            );
        })
        .unwrap();

    world.run_for(SimDuration::from_secs(30));
    let (completions, snapshot) = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| (n.handover_completions(), n.connection(conn).unwrap()))
        .unwrap();
    assert!(completions >= 1, "the degraded link must be substituted");
    assert!(snapshot.bridged, "the replacement route goes through a bridge");
    // The recorded first hop must be the bridge that actually relays the
    // session, not whichever candidate the monitor held at Accept time.
    let carrier: Vec<DeviceAddress> = bridges
        .iter()
        .filter(|b| {
            world
                .with_agent::<PeerHoodNode, _>(**b, |n, _| n.bridge_stats().0)
                .unwrap_or(0)
                >= 1
        })
        .map(|b| DeviceAddress::from_node(*b))
        .collect();
    assert_eq!(carrier.len(), 1, "exactly one bridge carries the session");
    assert_eq!(
        snapshot.first_hop,
        Some(carrier[0]),
        "ConnKind must record the bridge actually in use"
    );
}

/// An echo session whose first link is about to degrade, on ideal radios
/// with a fixed 2 s connection set-up. Once the first link carries the
/// session its quality is set to fall from 240 at 20/s, so the monitor starts
/// a switch within ~5 s and the link breaks at 12 s.
///
/// Direct: the server is 5 m from the client, the session runs straight to
/// it, and the new route goes through a bridge in range of both. Spliced:
/// the client is out of the server's range and reaches it through the relay
/// `old_hop`; re-routing towards the link peer (the thesis' target), the
/// new route reaches `old_hop` through `bridge`, which `old_hop` splices in
/// as its pair's upstream leg.
struct DecayingSession {
    world: World,
    client: NodeId,
    server: NodeId,
    /// The device the new route goes through.
    bridge: NodeId,
    /// The far end of the first link: the server, or the relay it splices.
    old_hop: NodeId,
    conn: ConnectionId,
    /// The link the session starts on.
    link: simnet::LinkId,
}

fn decaying_session(spliced: bool) -> DecayingSession {
    let mut cfg = WorldConfig::ideal(47);
    cfg.radio.bluetooth.setup_min_s = 2.0;
    cfg.radio.bluetooth.setup_max_s = 2.0;
    let mut world = World::new(cfg);
    let relay = |world: &mut World, at: Point| {
        let node = PeerHoodNode::relay(fast_discovery_config("bridge", MobilityClass::Static));
        world.add_node("bridge", MobilityModel::stationary(at), &bt(), Box::new(OnWorld(node)))
    };
    let mut client_cfg = PeerHoodConfig::new("client", MobilityClass::Dynamic);
    let (client_at, bridge_at) = if spliced {
        client_cfg.handover.target = HandoverTarget::LinkPeer;
        (Point::new(13.5, 0.0), Point::new(11.0, 4.0))
    } else {
        (Point::new(5.0, 0.0), Point::new(2.5, 3.5))
    };
    let client = world.add_node(
        "client",
        MobilityModel::stationary(client_at),
        &bt(),
        Box::new(OnWorld(
            PeerHoodNode::builder()
                .config(client_cfg)
                .app(TestApp::default())
                .build(),
        )),
    );
    let server = world.add_node(
        "server",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        peerhood("server", MobilityClass::Static, TestApp::server("echo", false)),
    );
    let bridge = relay(&mut world, bridge_at);
    let old_hop = if spliced {
        relay(&mut world, Point::new(8.0, 0.0))
    } else {
        server
    };
    world.run_for(SimDuration::from_secs(180));
    let server_addr = DeviceAddress::from_node(server);
    let conn = world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            n.with_api(ctx, |api| api.connect_to(server_addr, "echo")).unwrap()
        })
        .unwrap()
        .expect("the connection must start");
    world.run_for(SimDuration::from_secs(10));
    let link = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| n.connection_link(conn))
        .unwrap()
        .expect("connection established");
    let first_hop = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| n.connection(conn).unwrap().first_hop)
        .unwrap();
    assert_eq!(first_hop, Some(DeviceAddress::from_node(old_hop)), "the first route");
    world.set_link_quality_override(link, 240.0, 20.0);
    DecayingSession {
        world,
        client,
        server,
        bridge,
        old_hop,
        conn,
        link,
    }
}

impl DecayingSession {
    /// The live links `node` holds towards the client for the session: its
    /// own, a route being built for it, or a relayed pair's upstream leg.
    fn links_of_session(&mut self, node: NodeId) -> Vec<(simnet::LinkId, LinkRole)> {
        let conn = self.conn;
        self.world
            .with_agent::<PeerHoodNode, _>(node, |n, _| {
                let core = n.core_mut().expect("node running");
                core.roles
                    .iter()
                    .filter(|(_, (role, _))| match *role {
                        LinkRole::AppConnection(c)
                        | LinkRole::BridgeUpstream(c)
                        | LinkRole::HandoverPending { conn: c, .. } => c == conn,
                        _ => false,
                    })
                    .map(|(link, (role, _))| (link, *role))
                    .collect()
            })
            .unwrap()
    }

    /// Runs in `step`s until `done` holds, for at most 30 s.
    fn run_until(&mut self, step: SimDuration, mut done: impl FnMut(&mut Self) -> bool) {
        let deadline = self.world.now() + SimDuration::from_secs(30);
        while !done(self) {
            assert!(self.world.now() < deadline, "the awaited state never came");
            self.world.run_for(step);
        }
    }

    fn client_app<R>(&mut self, f: impl FnOnce(&TestApp) -> R) -> R {
        self.world
            .with_agent::<PeerHoodNode, _>(self.client, |n, _| n.with_app(f).unwrap())
            .unwrap()
    }

    fn client_state(&mut self) -> Option<ConnState> {
        let conn = self.conn;
        self.world
            .with_agent::<PeerHoodNode, _>(self.client, |n, _| n.connection(conn).map(|c| c.state))
            .unwrap()
    }

    fn link_open(&self, link: simnet::LinkId) -> bool {
        self.world.link_info(link).is_some_and(|l| l.open)
    }
}

/// Fig. 5.5, state 2: the replacement route is built while the old one is
/// still up, and "once it is confirmed" substitutes it. The session lives
/// on: the app hears one route change and nothing else, the next payload
/// arrives, and each end of the old link keeps exactly one link for the
/// session — the old one hung up by the client once the `Accept` reached
/// it. So for a direct session re-routed through a bridge, and for a
/// relayed session whose relay splices in a new upstream leg.
#[test]
fn a_proactive_handover_substitutes_the_route_without_ending_the_session() {
    for spliced in [false, true] {
        let mut s = decaying_session(spliced);
        s.world.run_for(SimDuration::from_secs(30));
        let conn = s.conn;
        let (changed, disconnected, switches) =
            s.client_app(|a| (a.changed.clone(), a.disconnected.clone(), a.switches.len()));
        assert_eq!(changed, [conn], "spliced {spliced}: one route change");
        assert_eq!(disconnected, [], "spliced {spliced}: the session never ended");
        assert_eq!(switches, 0, "spliced {spliced}: no provider switch was proposed");
        let (completions, proactive, snapshot) = s
            .world
            .with_agent::<PeerHoodNode, _>(s.client, |n, _| {
                (
                    n.handover_completions(),
                    n.proactive_handover_completions(),
                    n.connection(conn).unwrap(),
                )
            })
            .unwrap();
        assert_eq!(
            (completions, proactive),
            (1, 1),
            "spliced {spliced}: one handover, begun before the break"
        );
        assert_eq!(snapshot.state, ConnState::Established);
        assert_eq!(snapshot.first_hop, Some(DeviceAddress::from_node(s.bridge)));
        for node in [s.client, s.old_hop] {
            let links = s.links_of_session(node);
            assert_eq!(links.len(), 1, "spliced {spliced}: one link for the session: {links:?}");
            assert_ne!(
                links[0].0, s.link,
                "spliced {spliced}: the old link is not the session's"
            );
        }
        assert!(!s.link_open(s.link), "spliced {spliced}: the old link is hung up");
        s.world
            .with_agent::<PeerHoodNode, _>(s.client, |n, ctx| {
                n.with_api(ctx, |api| api.send(conn, b"after the switch".to_vec()))
            })
            .unwrap()
            .unwrap()
            .expect("the session takes payloads");
        s.world.run_for(SimDuration::from_secs(2));
        let last = s
            .world
            .with_agent::<PeerHoodNode, _>(s.server, |n, _| n.app::<TestApp>().unwrap().data.last().cloned())
            .unwrap();
        assert_eq!(last, Some((conn, b"after the switch".to_vec())), "spliced {spliced}");
    }
}

/// The server (or the splicing relay) has moved the session onto the new
/// route, but the client has not heard the `Accept` when the session ends
/// on the new route: the bridge dies, the server dies, or the server's app
/// closes. The device that left the old link hangs it up too, so the client
/// hears the session end instead of staying up on a link no one reads.
#[test]
fn a_new_route_lost_before_the_client_confirms_it_ends_the_session() {
    #[derive(Debug, Clone, Copy)]
    enum End {
        BridgeDark,
        ServerDark,
        ServerCloses,
    }
    for (spliced, end) in [
        (false, End::BridgeDark),
        (false, End::ServerCloses),
        (true, End::BridgeDark),
        (true, End::ServerDark),
        (true, End::ServerCloses),
    ] {
        let case = format!("spliced {spliced}, {end:?}");
        let mut s = decaying_session(spliced);
        let (conn, old, old_hop) = (s.conn, s.link, s.old_hop);
        s.run_until(SimDuration::from_millis(1), |s| {
            s.links_of_session(old_hop).iter().any(|&(link, _)| link != old)
        });
        let client_link = s
            .world
            .with_agent::<PeerHoodNode, _>(s.client, |n, _| n.connection_link(conn))
            .unwrap();
        assert_eq!(client_link, Some(old), "{case}: the client has not confirmed yet");
        assert!(s.link_open(old), "{case}: the old link was left open");
        assert_eq!(s.client_app(|a| a.disconnected.clone()), []);

        // The old link stops decaying, so only a hang-up can end it.
        s.world.set_link_quality_override(old, 240.0, 0.0);
        match end {
            End::BridgeDark => s.world.set_radio_enabled(s.bridge, RadioTech::Bluetooth, false),
            End::ServerDark => s.world.set_radio_enabled(s.server, RadioTech::Bluetooth, false),
            End::ServerCloses => s
                .world
                .with_agent::<PeerHoodNode, _>(s.server, |n, ctx| n.with_api(ctx, |api| api.close(conn)))
                .unwrap()
                .unwrap(),
        }
        s.world.run_for(SimDuration::from_secs(30));
        let (disconnected, changed) = s.client_app(|a| (a.disconnected.clone(), a.changed.clone()));
        assert_eq!(disconnected, [(conn, true)], "{case}: the client hears the hang-up");
        assert_eq!(changed, [], "{case}: no route change reached the app");
        assert_ne!(s.client_state(), Some(ConnState::Established), "{case}: not left up");
        assert!(!s.link_open(old), "{case}: the old link is hung up");
        for node in [s.client, s.old_hop] {
            assert_eq!(s.links_of_session(node), [], "{case}: no link is left");
        }
    }
}

/// An app that closes the session while the client's switch is in flight
/// ends it. When the server's app closes, the client's app hears
/// `Disconnected` once and the switch is abandoned: no late `Accept` revives
/// the session, no failed dial starts another switch, and the server never
/// sees the session come back as a new one. The close lands while the
/// replacement link is up, while its dial is in flight, and while a dial the
/// bridge's dark radio will refuse is in flight. When the client's own app
/// closes, its switch goes with the session: the server's app hears one
/// `Disconnected` and no route change.
#[test]
fn a_session_closed_during_a_switch_stays_closed() {
    for (closer_is_server, dialling, bridge_goes_dark) in [
        (true, false, false),
        (true, true, false),
        (true, true, true),
        (false, false, false),
    ] {
        let case =
            format!("server closes {closer_is_server}, dialling {dialling}, bridge goes dark {bridge_goes_dark}");
        let mut s = decaying_session(false);
        let conn = s.conn;
        s.run_until(SimDuration::from_millis(10), |s| {
            let client = s.client;
            if dialling {
                s.world
                    .with_agent::<PeerHoodNode, _>(client, |n, _| {
                        let core = n.core_mut().expect("node running");
                        core.pending
                            .values()
                            .any(|role| matches!(role, LinkRole::HandoverPending { conn: c, .. } if *c == conn))
                    })
                    .unwrap()
            } else {
                s.links_of_session(client)
                    .iter()
                    .any(|(_, role)| matches!(role, LinkRole::HandoverPending { .. }))
            }
        });
        let closer = if closer_is_server { s.server } else { s.client };
        s.world
            .with_agent::<PeerHoodNode, _>(closer, |n, ctx| n.with_api(ctx, |api| api.close(conn)))
            .unwrap();
        if bridge_goes_dark {
            s.world.set_radio_enabled(s.bridge, RadioTech::Bluetooth, false);
        }
        s.world.run_for(SimDuration::from_secs(30));
        let (disconnected, changed) = s.client_app(|a| (a.disconnected.clone(), a.changed.clone()));
        let heard: &[(ConnectionId, bool)] = if closer_is_server { &[(conn, true)] } else { &[] };
        assert_eq!(
            disconnected, heard,
            "{case}: the client's app hears the peer's close once"
        );
        assert_eq!(changed, [], "{case}: the abandoned switch changed no route");
        let (state, completions) = s
            .world
            .with_agent::<PeerHoodNode, _>(s.client, |n, _| {
                (n.connection(conn).map(|c| c.state), n.handover_completions())
            })
            .unwrap();
        assert_ne!(
            state,
            Some(ConnState::Established),
            "{case}: the client holds no session"
        );
        assert_eq!(completions, 0, "{case}");
        assert_eq!(s.links_of_session(s.client), [], "{case}");
        let peers = s
            .world
            .with_agent::<PeerHoodNode, _>(s.server, |n, _| n.app::<TestApp>().unwrap().peer_connected.len())
            .unwrap();
        assert_eq!(peers, 1, "{case}: the server saw the session connect once");
        let server_heard = s
            .world
            .with_agent::<PeerHoodNode, _>(s.server, |n, _| {
                let app = n.app::<TestApp>().unwrap();
                (app.disconnected.clone(), app.changed.clone())
            })
            .unwrap();
        let heard: &[(ConnectionId, bool)] = if closer_is_server { &[] } else { &[(conn, true)] };
        assert_eq!(
            server_heard,
            (heard.to_vec(), vec![]),
            "{case}: what the server's app heard"
        );
    }
}

// ---------------------------------------------------------------------
// Crash & restart lifecycle (fault injection)
// ---------------------------------------------------------------------

/// A crashed peer must surface as a non-graceful `Disconnected` to the
/// owning application, age out of the daemon storage within one discovery
/// cycle, and — after the node restarts — be rediscovered with its services
/// re-advertised by the reborn daemon.
#[test]
fn crashed_peer_expires_and_reborn_daemon_readvertises() {
    let mut world = World::new(WorldConfig::ideal(48));
    let client = world.add_node(
        "client",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        traced(
            PeerHoodNode::builder()
                .config(PeerHoodConfig::new("client", MobilityClass::Dynamic))
                .app(TestApp::default())
                .build(),
        ),
    );
    let server = world.add_node(
        "server",
        MobilityModel::stationary(Point::new(4.0, 0.0)),
        &bt(),
        peerhood("server", MobilityClass::Static, TestApp::server("echo", false)),
    );
    world.run_for(SimDuration::from_secs(40));
    let conn = world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            n.with_api(ctx, |api| api.connect_to_service("echo")).unwrap()
        })
        .unwrap()
        .expect("echo service reachable");
    world.run_for(SimDuration::from_secs(5));
    world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            assert_eq!(n.app::<TestApp>().unwrap().connected, vec![conn]);
            let _ = n.take_event_trace();
        })
        .unwrap();

    world.crash_node(server);
    // Within one discovery cycle: the app sees the non-graceful disconnect
    // and the crashed neighbour is erased from the storage (DeviceLost).
    world.run_for(SimDuration::from_secs(30));
    world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            let app = n.app::<TestApp>().unwrap();
            assert_eq!(app.disconnected, vec![(conn, false)], "crash is not a graceful close");
            assert_eq!(n.storage_stats().known_devices, 0, "the crashed neighbour must age out");
            let trace = n.take_event_trace();
            assert!(
                trace.iter().any(|e| matches!(e, PeerHoodEvent::DeviceLost { .. })),
                "the expiry must fan out as DeviceLost"
            );
        })
        .unwrap();

    world.restart_node(server);
    world.run_for(SimDuration::from_secs(40));
    world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            let stats = n.storage_stats();
            assert_eq!(stats.known_devices, 1, "the restarted server must be rediscovered");
            assert_eq!(stats.known_services, 1, "the reborn daemon re-advertises its service");
        })
        .unwrap();
    // The middleware came back cold: no connections survive on the server.
    let server_conns = world
        .with_agent::<PeerHoodNode, _>(server, |n, _| n.connections().len())
        .unwrap();
    assert_eq!(server_conns, 0, "the reborn core starts with an empty connection table");
    // A fresh end-to-end session works against the reborn daemon.
    let conn2 = world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            n.with_api(ctx, |api| api.connect_to_service("echo")).unwrap()
        })
        .unwrap()
        .expect("reconnect to the reborn service");
    world.run_for(SimDuration::from_secs(5));
    world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            assert!(n.app::<TestApp>().unwrap().connected.contains(&conn2));
        })
        .unwrap();
}

// ---------------------------------------------------------------------
// Resilience pipeline
// ---------------------------------------------------------------------

/// A refused dial is knowledge: the client walks out of provider `near`'s
/// range towards provider `far`, dials `near` (still stored, still best
/// ranked) and is refused as out of range. Its next dial goes to `far`, not
/// to `near` again.
#[test]
fn a_walker_whose_provider_left_range_dials_another_provider_next() {
    let mut world = World::new(WorldConfig::ideal(58));
    // Bluetooth reaches 10 m. From x = 3 the walker hears both; from x = 16,
    // reached at t = 41.3 s, only `far`. No inquiry loop ends between
    // leaving `near` and the dials (loops every 12 s), so `near` is not yet
    // stale: only the refusal can move the second dial.
    let walk = MobilityModel::walk_after(
        Point::new(3.0, 0.0),
        Point::new(16.0, 0.0),
        10.0,
        SimDuration::from_secs(40),
    );
    let client = world.add_node(
        "client",
        walk,
        &bt(),
        peerhood("client", MobilityClass::Dynamic, TestApp::default()),
    );
    // `near` is the closer and the lower address: it ranks first.
    let [near, far] = [0.0, 8.0].map(|x| {
        world.add_node(
            "server",
            MobilityModel::stationary(Point::new(x, 0.0)),
            &bt(),
            peerhood("server", MobilityClass::Static, TestApp::server("echo", false)),
        )
    });
    let [near, far] = [near, far].map(DeviceAddress::from_node);
    world.run_for(SimDuration::from_secs(42));
    let dial = |world: &mut World| {
        let conn = world
            .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
                n.with_api(ctx, |api| api.connect_to_service("echo")).unwrap()
            })
            .unwrap()
            .expect("both providers are stored");
        world.run_for(SimDuration::from_secs(2));
        world
            .with_agent::<PeerHoodNode, _>(client, |n, _| {
                let dialled = n.connections().into_iter().find(|c| c.id == conn).unwrap().remote;
                let app = n.app::<TestApp>().unwrap();
                (dialled, app.connected.contains(&conn))
            })
            .unwrap()
    };
    assert_eq!(
        dial(&mut world),
        (near, false),
        "the first dial goes to the best ranked, gone provider"
    );
    assert_eq!(
        dial(&mut world),
        (far, true),
        "the refusal steers the next dial elsewhere"
    );
}

/// A link that breaks out of range is knowledge too. A walker's session
/// provider `near` falls out of range; `shadow` is stored only through
/// `near`, and `far` only through the hybrid-class relay `b`, so the lost
/// route ranks first among the other providers until the break marks `near`
/// absent. Routing handover is off, so the break goes straight to the
/// provider switch: when the middleware asks, before it dials anything,
/// `near` is absent, and the switch goes to `far`.
#[test]
fn a_range_exit_marks_the_provider_absent_before_the_switch_picks_another() {
    let mut world = World::new(WorldConfig::ideal(59));
    // Bluetooth reaches 10 m. The walker leaves x = 3 at t = 40 s at 1 m/s
    // and loses `near` (x = 0) at t = 47 s; it hears `b` all the way and
    // never hears `shadow` or `far`.
    let walk = MobilityModel::walk_after(
        Point::new(3.0, 0.0),
        Point::new(12.0, 0.0),
        1.0,
        SimDuration::from_secs(40),
    );
    let mut cfg = fast_discovery_config("client", MobilityClass::Dynamic);
    cfg.handover.max_routing_attempts = 0;
    let client = world.add_node(
        "client",
        walk,
        &bt(),
        Box::new(OnWorld(
            PeerHoodNode::builder().config(cfg).app(TestApp::default()).build(),
        )),
    );
    let provider = |world: &mut World, x: f64, y: f64| {
        let at = MobilityModel::stationary(Point::new(x, y));
        let app = TestApp::server("echo", false);
        DeviceAddress::from_node(world.add_node("server", at, &bt(), peerhood("server", MobilityClass::Static, app)))
    };
    let near = provider(&mut world, 0.0, 0.0);
    let shadow = provider(&mut world, -8.0, 0.0);
    let far = provider(&mut world, 13.0, 10.0);
    world.add_node(
        "b",
        MobilityModel::stationary(Point::new(7.0, 6.0)),
        &bt(),
        peerhood("b", MobilityClass::Hybrid, TestApp::default()),
    );
    world.run_for(SimDuration::from_secs(40));
    let routes = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            let jumps = |a| {
                n.known_devices()
                    .iter()
                    .find(|d| d.info.address == a)
                    .map(|d| d.route.jumps)
            };
            [near, shadow, far].map(jumps)
        })
        .unwrap();
    assert_eq!(
        routes,
        [Some(0), Some(1), Some(1)],
        "near direct, shadow and far one jump away"
    );
    let conn = world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            n.with_api(ctx, |api| api.connect_to_service("echo")).unwrap()
        })
        .unwrap()
        .expect("three providers are stored");
    world.run_for(SimDuration::from_secs(10));
    let (switches, remote) = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            let remote = n.connection(conn).map(|c| c.remote);
            (n.app::<TestApp>().unwrap().switches.clone(), remote)
        })
        .unwrap();
    assert_eq!(
        switches,
        [(conn, far, vec![near])],
        "one switch, asked with near already absent, to the provider not routed through it"
    );
    assert_eq!(remote, Some(far));
}

/// A switch refused as out of range is re-aimed at a provider a fresh
/// inquiry hears. The walker's session provider `lost` falls out of range,
/// and the switch goes to `gone`, which outranks `near` in storage but left
/// range a moment before. The refusal starts a search, which hears `near`:
/// the session lands there on its own connection id, and the app hears no
/// failure and needs no dial of its own.
#[test]
fn a_refused_switch_lands_on_a_provider_the_fresh_search_heard() {
    let mut world = World::new(WorldConfig::ideal(64));
    // Bluetooth reaches 10 m. From x = 5 the walker hears all three; at
    // 10 m/s from t = 40 s it loses `gone` (x = -2) at t = 40.3 s and `lost`
    // (x = 0) at t = 40.5 s, and stops at x = 18, 4 m from `near`.
    let walk = MobilityModel::walk_after(
        Point::new(5.0, 0.0),
        Point::new(18.0, 0.0),
        10.0,
        SimDuration::from_secs(40),
    );
    let mut cfg = fast_discovery_config("client", MobilityClass::Dynamic);
    cfg.handover.max_routing_attempts = 0;
    let client = world.add_node(
        "client",
        walk,
        &bt(),
        traced(PeerHoodNode::builder().config(cfg).app(TestApp::default()).build()),
    );
    let [lost, gone, near] = [0.0, -2.0, 14.0].map(|x| {
        let at = MobilityModel::stationary(Point::new(x, 0.0));
        let app = TestApp::server("echo", false);
        DeviceAddress::from_node(world.add_node("server", at, &bt(), peerhood("server", MobilityClass::Static, app)))
    });
    world.run_for(SimDuration::from_secs(38));
    let conn = world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            n.with_api(ctx, |api| api.connect_to(lost, "echo")).unwrap()
        })
        .unwrap()
        .expect("the provider is stored");
    world.run_for(SimDuration::from_secs(17));
    let (app, session, sessions, reconnected) = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            let app = n.app::<TestApp>().unwrap();
            let app = (app.switches.clone(), app.failed.clone(), app.connected.clone());
            let reconnected: Vec<_> = n
                .take_event_trace()
                .into_iter()
                .filter_map(|e| match e {
                    PeerHoodEvent::ServiceReconnected { conn, provider, .. } => Some((conn, provider)),
                    _ => None,
                })
                .collect();
            (app, n.connection(conn), n.connections().len(), reconnected)
        })
        .unwrap();
    let (switches, failed, connected) = app;
    let proposed: Vec<_> = switches.iter().map(|(c, provider, _)| (*c, *provider)).collect();
    assert_eq!(
        proposed,
        [(conn, gone), (conn, near)],
        "the refused switch is re-aimed at the heard provider"
    );
    assert!(failed.is_empty(), "the app heard {failed:?}");
    assert_eq!(connected, [conn], "the app dialled only its first session");
    assert_eq!(reconnected, [(conn, near)]);
    assert_eq!(sessions, 1, "no connection but the session's");
    let session = session.expect("the session is kept");
    assert_eq!((session.remote, session.state), (near, ConnState::Established));
    assert!(session.switch_rescued, "the switch landed on its second chance");
}

/// Starts a provider switch on a new connection of the client's app, as the
/// app's approval of a `ReconnectRequired` does: the connection lost `lost`
/// and goes to `target`.
fn begin_switch(world: &mut World, client: NodeId, lost: DeviceAddress, target: DeviceAddress) -> ConnectionId {
    world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            n.with_api(ctx, |api| {
                let core = &mut *api.core;
                let conn = core.connection_ids.allocate(core.my_address());
                let owner = Some(api.app.expect("the client hosts an app"));
                let entry = AppConnection::outgoing(conn, lost, "echo", ConnKind::OutgoingDirect, owner);
                core.connections.insert(conn, entry);
                core.start_service_reconnection(api.ctx, conn, target);
                conn
            })
        })
        .flatten()
        .expect("the client is running")
}

/// A switch whose dial faults at set-up re-dials the same hop once: with a
/// radio on which every set-up faults, the switch makes two dials, and the
/// app hears the second fault.
#[test]
fn a_faulted_switch_dial_is_retried_exactly_once() {
    let mut config = WorldConfig::ideal(65);
    config.radio.profile_mut(RadioTech::Bluetooth).setup_fault_prob = 1.0;
    let mut world = World::new(config);
    let client = world.add_node(
        "client",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        peerhood("client", MobilityClass::Static, TestApp::default()),
    );
    let server = world.add_node(
        "server",
        MobilityModel::stationary(Point::new(4.0, 0.0)),
        &bt(),
        peerhood("server", MobilityClass::Static, TestApp::server("echo", false)),
    );
    // Every fetch faults too, so the client learns the server by hand, and
    // the switch runs before the first inquiry ends (10.24 s).
    world.run_for(SimDuration::from_secs(1));
    world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            let services = vec![ServiceInfo::new("echo", "test", 10)];
            let core = n.core_mut().expect("client running");
            core.storage
                .upsert_direct(device(server.as_raw()), 200, services, ctx.now());
        })
        .unwrap();
    let before = world.metrics().node(client);
    let lost = DeviceAddress::from_node_raw(99);
    let conn = begin_switch(&mut world, client, lost, DeviceAddress::from_node(server));
    world.run_for(SimDuration::from_secs(1));
    let after = world.metrics().node(client);
    assert_eq!(
        (
            after.connect_attempts - before.connect_attempts,
            after.connect_failures - before.connect_failures
        ),
        (2, 2),
        "one dial and one re-dial, both faulted"
    );
    let (failed, session) = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            (n.app::<TestApp>().unwrap().failed.clone(), n.connection(conn))
        })
        .unwrap();
    assert_eq!(
        failed,
        [(conn, PeerHoodError::Remote(simnet::ConnectError::Fault.to_string()))],
        "the app hears the second fault"
    );
    let session = session.unwrap();
    assert_eq!(session.state, ConnState::Failed);
    assert!(session.switch_rescued);
}

/// The fresh search is an inquiry of its own that writes nothing: a switch
/// refused as out of range while no scan is in flight starts one, and when
/// it completes the storage and the plugin's cycle are as they were — no
/// hit noted, no fetch, no aging — while the switch is re-aimed at its hit.
/// The periodic inquiry then starts when it was scheduled to, as in a twin
/// world where no switch ran.
#[test]
fn a_fresh_search_leaves_the_storage_and_the_discovery_cycle_alone() {
    let world_with = |switch: bool| {
        let mut world = World::new(WorldConfig::ideal(66));
        let mut cfg = PeerHoodConfig::new("client", MobilityClass::Static);
        cfg.discovery.inquiry_interval = SimDuration::from_secs(60);
        let client = world.add_node(
            "client",
            MobilityModel::stationary(Point::new(0.0, 0.0)),
            &bt(),
            Box::new(OnWorld(
                PeerHoodNode::builder().config(cfg).app(TestApp::default()).build(),
            )),
        );
        let server = world.add_node(
            "server",
            MobilityModel::stationary(Point::new(4.0, 0.0)),
            &bt(),
            peerhood("server", MobilityClass::Static, TestApp::server("echo", false)),
        );
        // Out of range: known to the client only by hand.
        let far = world.add_node(
            "far",
            MobilityModel::stationary(Point::new(50.0, 0.0)),
            &bt(),
            peerhood("far", MobilityClass::Static, TestApp::server("echo", false)),
        );
        // The first cycle ends by t = 13 s; the next starts 60-120 s later.
        world.run_for(SimDuration::from_secs(20));
        world
            .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
                let services = vec![ServiceInfo::new("echo", "test", 10)];
                let core = n.core_mut().expect("client running");
                core.storage
                    .upsert_direct(device(far.as_raw()), 250, services, ctx.now());
            })
            .unwrap();
        let lost = DeviceAddress::from_node_raw(99);
        let conn = switch.then(|| begin_switch(&mut world, client, lost, DeviceAddress::from_node(far)));
        (world, client, DeviceAddress::from_node(server), conn)
    };
    let stored = |world: &mut World, client| {
        world
            .with_agent::<PeerHoodNode, _>(client, |n, _| {
                let core = n.core_mut().expect("client running");
                let generations = (core.storage.generation(), core.storage.presence_generation());
                (
                    core.storage.devices().collect::<Vec<_>>(),
                    generations,
                    core.plugins.clone(),
                )
            })
            .unwrap()
    };
    let (mut world, client, server, conn) = world_with(true);
    let conn = conn.unwrap();
    world.run_for(SimDuration::from_millis(100));
    let refused = stored(&mut world, client);
    assert_eq!(
        refused.2[0].inquiries,
        [InquiryKind::Search],
        "the refusal started a search"
    );
    assert_eq!(world.metrics().node(client).inquiries_started, 2);
    world.run_for(SimDuration::from_secs(11));
    let searched = stored(&mut world, client);
    assert_eq!(searched.0, refused.0, "the search wrote no row");
    assert_eq!(searched.1, refused.1, "the search moved no generation");
    assert!(searched.2[0].inquiries.is_empty());
    assert_eq!(
        (
            searched.2[0].cycle_active,
            searched.2[0].pending_fetches,
            searched.2[0].current_responders.len()
        ),
        (false, 0, 0),
        "the search touched no discovery cycle"
    );
    let (switches, session) = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            (n.app::<TestApp>().unwrap().switches.clone(), n.connection(conn))
        })
        .unwrap();
    assert_eq!(switches.iter().map(|s| s.1).collect::<Vec<_>>(), [server]);
    assert_eq!(
        session.map(|c| (c.remote, c.state)),
        Some((server, ConnState::Established))
    );
    // The next periodic inquiry starts at the instant it does without the
    // search (the search is the one extra inquiry).
    let next_periodic = |world: &mut World, client, already: u64| {
        let start = world.now();
        while world.metrics().node(client).inquiries_started == already {
            world.run_for(SimDuration::from_millis(10));
            assert!(world.now().saturating_since(start) < SimDuration::from_secs(200));
        }
        world.now()
    };
    let with_search = next_periodic(&mut world, client, 2);
    let (mut twin, twin_client, ..) = world_with(false);
    let without = next_periodic(&mut twin, twin_client, 1);
    assert_eq!(with_search, without);
}

/// A client at the origin whose first discovery cycle has stored the echo
/// servers `target` (4 m east) and `near` (4 m north) as direct rows; its
/// next cycle starts no sooner than t = 73 s.
fn two_provider_world(seed: u64) -> (World, NodeId, NodeId, DeviceAddress) {
    let mut world = World::new(WorldConfig::ideal(seed));
    let mut cfg = PeerHoodConfig::new("client", MobilityClass::Static);
    cfg.discovery.inquiry_interval = SimDuration::from_secs(60);
    let client = world.add_node(
        "client",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(
            PeerHoodNode::builder().config(cfg).app(TestApp::default()).build(),
        )),
    );
    let [target, near] = [(4.0, 0.0), (0.0, 4.0)].map(|(x, y)| {
        let at = MobilityModel::stationary(Point::new(x, y));
        let app = TestApp::server("echo", false);
        world.add_node("server", at, &bt(), peerhood("server", MobilityClass::Static, app))
    });
    world.run_for(SimDuration::from_secs(20));
    let stored = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            let core = n.core_mut().expect("client running");
            [target, near].map(|t| core.storage.get(DeviceAddress::from_node(t)).map(|d| d.is_direct()))
        })
        .unwrap();
    assert_eq!(stored, [Some(true); 2], "both servers stored as direct rows");
    (world, client, target, DeviceAddress::from_node(near))
}

/// Runs a switch of the client's from a lost provider to `target` for 15 s
/// and checks that its refused dial was re-aimed once at `heard`, on the
/// session's own connection id, dialled directly, with no failure heard by
/// the app. Returns the session.
fn switch_lands_on(
    world: &mut World,
    client: NodeId,
    target: DeviceAddress,
    heard: DeviceAddress,
) -> ConnectionSnapshot {
    let lost = DeviceAddress::from_node_raw(99);
    let conn = begin_switch(world, client, lost, target);
    world.run_for(SimDuration::from_secs(15));
    let (switches, failed, kind, session) = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            let app = n.app::<TestApp>().unwrap();
            let switches: Vec<_> = app.switches.iter().map(|s| (s.0, s.1)).collect();
            let failed = app.failed.clone();
            let session = n.connection(conn).expect("the session is kept");
            let kind = n.core_mut().unwrap().connections.get(&conn).unwrap().kind.clone();
            (switches, failed, kind, session)
        })
        .unwrap();
    assert_eq!(
        switches,
        [(conn, heard)],
        "the refused switch is re-aimed at the heard provider"
    );
    assert!(failed.is_empty(), "the app heard {failed:?}");
    assert_eq!((session.remote, session.state), (heard, ConnState::Established));
    assert_eq!(kind, ConnKind::OutgoingDirect);
    assert!(session.switch_rescued);
    session
}

/// A switch whose dial a partition cut refuses (`LinkDown`) gets the fresh
/// search: it is re-aimed at the provider the search heard, on the same
/// connection id, and the app hears no failure.
#[test]
fn a_switch_refused_by_a_partition_cut_lands_on_a_provider_the_search_heard() {
    let (mut world, client, target, near) = two_provider_world(67);
    let now = world.now();
    let cut = simnet::AdversaryPlan::new().partition(now, now + SimDuration::from_secs(120), [target]);
    world.install_adversary_plan(cut);
    switch_lands_on(&mut world, client, DeviceAddress::from_node(target), near);
}

/// A switch whose dial is refused as `Unreachable` — the provider's stack
/// is down — gets the fresh search too, and lands where it heard.
#[test]
fn a_switch_to_a_crashed_provider_lands_on_a_provider_the_search_heard() {
    let (mut world, client, target, near) = two_provider_world(68);
    world.install_fault_plan(target, simnet::FaultPlan::new().crash_at(world.now()));
    world.run_for(SimDuration::from_millis(100));
    assert!(!world.is_alive(target));
    switch_lands_on(&mut world, client, DeviceAddress::from_node(target), near);
}

/// A provider the search heard is dialled directly, whatever route storage
/// holds for it. `p` joins after the client's first discovery cycle and is
/// stored only through the bridge `b`'s report; the switch to `far`, out of
/// range, is refused and re-aimed at `p`, which the radio just heard: the
/// session's first hop is `p` itself, `b` relays nothing, and the stored row
/// is still the bridged one, since the search writes nothing.
#[test]
fn a_heard_provider_stored_only_behind_a_bridge_is_dialled_directly() {
    let mut world = World::new(WorldConfig::ideal(69));
    let mut cfg = PeerHoodConfig::new("client", MobilityClass::Static);
    cfg.discovery.inquiry_interval = SimDuration::from_secs(60);
    let client = world.add_node(
        "client",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(
            PeerHoodNode::builder().config(cfg).app(TestApp::default()).build(),
        )),
    );
    let b = world.add_node(
        "b",
        MobilityModel::stationary(Point::new(0.0, 4.0)),
        &bt(),
        peerhood("b", MobilityClass::Static, TestApp::default()),
    );
    let far = world.add_node(
        "far",
        MobilityModel::stationary(Point::new(50.0, 0.0)),
        &bt(),
        peerhood("far", MobilityClass::Static, TestApp::server("echo", false)),
    );
    world.run_for(SimDuration::from_secs(20));
    let p = world.add_node(
        "p",
        MobilityModel::stationary(Point::new(4.0, 0.0)),
        &bt(),
        peerhood("p", MobilityClass::Static, TestApp::server("echo", false)),
    );
    let p_info = device(p.as_raw());
    let [b, p] = [b, p].map(DeviceAddress::from_node);
    let route_to_p = |world: &mut World| {
        world
            .with_agent::<PeerHoodNode, _>(client, |n, _| {
                let route = n.core_mut().unwrap().storage.get(p).map(|d| d.route);
                route.map(|r| (r.jumps, r.bridge))
            })
            .unwrap()
    };
    world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            let services: Arc<[ServiceInfo]> = vec![ServiceInfo::new("echo", "test", 10)].into();
            let core = n.core_mut().expect("client running");
            core.storage
                .upsert_direct(device(far.as_raw()), 250, services.clone(), ctx.now());
            let record = NeighborRecord {
                info: p_info,
                jumps: 0,
                hop_qualities: vec![200],
                services,
            };
            let mode = crate::config::DiscoveryMode::Dynamic;
            core.storage
                .integrate_neighbor_report(b, 220, MobilityClass::Static, &[record], mode, ctx.now());
        })
        .unwrap();
    assert_eq!(route_to_p(&mut world), Some((1, Some(b))), "p is stored behind b only");
    let session = switch_lands_on(&mut world, client, DeviceAddress::from_node(far), p);
    assert_eq!(session.first_hop, Some(p));
    let relayed = world.with_agent::<PeerHoodNode, _>(b.node_id(), |n, _| n.bridge_stats().0);
    assert_eq!(relayed, Some(0), "b relays nothing");
    assert_eq!(
        route_to_p(&mut world),
        Some((1, Some(b))),
        "the stored row is still bridged"
    );
}

/// A link that breaks while its peer is still in range (here a flap's down
/// phase) says nothing about where the peer is: the row stays offered and
/// the break is booked on the peer's breaker.
#[test]
fn an_in_range_flap_break_leaves_the_row_offered_and_books_a_break() {
    let mut cfg = PeerHoodConfig::new("client", MobilityClass::Dynamic);
    cfg.resilience = crate::resilience::ResilienceConfig::all_on();
    let mut world = World::new(WorldConfig::ideal(61));
    let client = world.add_node(
        "client",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(
            PeerHoodNode::builder().config(cfg).app(TestApp::default()).build(),
        )),
    );
    let server = world.add_node(
        "server",
        MobilityModel::stationary(Point::new(4.0, 0.0)),
        &bt(),
        peerhood("server", MobilityClass::Static, TestApp::server("echo", false)),
    );
    let server_addr = DeviceAddress::from_node(server);
    world.run_for(SimDuration::from_secs(40));
    let conn = world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            n.with_api(ctx, |api| api.connect_to(server_addr, "echo")).unwrap()
        })
        .unwrap()
        .expect("the server is stored");
    world.run_for(SimDuration::from_secs(2));
    let period = SimDuration::from_secs(20);
    world.install_fault_plan(client, simnet::FaultPlan::new().flapping_link(server, period, 0.5));
    world.run_for(period);
    let (disconnected, absent, offered, breaks) = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            let disconnected = n.app::<TestApp>().unwrap().disconnected.clone();
            let core = n.core_mut().expect("client running");
            let absent = core.storage.get(server_addr).map(|d| d.absent);
            let offered = core.storage.best_service_provider("echo", None).map(|(a, _)| a);
            let breaks = core.security.peers.get(&server_addr).map(|row| row.breaker.breaks());
            (disconnected, absent, offered, breaks)
        })
        .unwrap();
    assert_eq!(disconnected, [(conn, false)], "the flap broke the session");
    assert_eq!(absent, Some(false));
    assert_eq!(offered, Some(server_addr));
    assert_eq!(breaks, Some(1));
}

/// Absence is not failure: a hardened client whose only peer keeps walking
/// out of range, breaking its session each time and refusing the dials made
/// while it is away, trips no breaker.
#[test]
fn peers_that_only_walk_away_trip_no_breaker() {
    let mut cfg = PeerHoodConfig::new("client", MobilityClass::Static);
    cfg.resilience = crate::resilience::ResilienceConfig::all_on();
    let mut world = World::new(WorldConfig::ideal(62));
    let client = world.add_node(
        "client",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(
            PeerHoodNode::builder().config(cfg).app(TestApp::default()).build(),
        )),
    );
    // Bluetooth reaches 10 m: from t = 30 s the walker is out of range for
    // 8 s of every 20, three times within one flap window.
    let (inside, outside) = (Point::new(4.0, 0.0), Point::new(14.0, 0.0));
    let walk = MobilityModel::Waypoints {
        points: vec![inside, outside, inside, outside, inside, outside, inside],
        speed_mps: 1.0,
        start_after: SimDuration::from_secs(30),
    };
    let walker = world.add_node(
        "walker",
        walk,
        &bt(),
        peerhood("walker", MobilityClass::Dynamic, TestApp::server("echo", false)),
    );
    let walker_addr = DeviceAddress::from_node(walker);
    world.run_for(SimDuration::from_secs(25));
    // Keep a session up: whenever none is, dial again.
    for _ in 0..70 {
        world
            .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
                let up = n.connections().iter().any(|c| {
                    matches!(
                        c.state,
                        ConnState::Connecting | ConnState::AwaitingAccept | ConnState::Established
                    )
                });
                if !up {
                    // A refusal by an open breaker is counted below.
                    let _ = n.with_api(ctx, |api| api.connect_to(walker_addr, "echo"));
                }
            })
            .unwrap();
        world.run_for(SimDuration::from_secs(1));
    }
    let (breaks, refusals, stats) = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            let app = n.app::<TestApp>().unwrap();
            (app.disconnected.len(), app.failed.len(), n.resilience_stats())
        })
        .unwrap();
    assert!(breaks >= 3, "the walker broke {breaks} sessions");
    assert!(refusals >= 3 * 3, "{refusals} dials refused while it was away");
    assert_eq!((stats.breaker_trips, stats.breaker_blocked), (0, 0), "{stats:?}");
}

/// The per-peer circuit breaker on the client refuses dials towards a
/// crashed server once consecutive failures trip it, surfacing
/// `CircuitOpen` synchronously instead of burning radio attempts.
#[test]
fn circuit_breaker_blocks_dials_to_a_dead_peer() {
    let mut client_cfg = PeerHoodConfig::new("client", MobilityClass::Dynamic);
    client_cfg.resilience = crate::resilience::ResilienceConfig::all_on();
    let mut world = World::new(WorldConfig::ideal(53));
    let client = world.add_node(
        "client",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(
            PeerHoodNode::builder()
                .config(client_cfg)
                .app(TestApp::default())
                .build(),
        )),
    );
    let server = world.add_node(
        "server",
        MobilityModel::stationary(Point::new(4.0, 0.0)),
        &bt(),
        peerhood("server", MobilityClass::Static, TestApp::server("echo", false)),
    );
    world.run_for(SimDuration::from_secs(40));
    let server_addr = world
        .with_agent::<PeerHoodNode, _>(server, |n, _| n.device_address().unwrap())
        .unwrap();
    world.crash_node(server);

    // What a connect leaves behind on the client: its connections and the
    // radio attempts in flight.
    let footprint = |n: &mut PeerHoodNode| {
        (
            n.connections(),
            n.core_mut().expect("client core running").pending.len(),
        )
    };
    let mut circuit_open = false;
    for _ in 0..8 {
        let (result, before, after) = world
            .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
                let before = footprint(n);
                let result = n.with_api(ctx, |api| api.connect_to(server_addr, "echo")).unwrap();
                (result, before, footprint(n))
            })
            .unwrap();
        match result {
            Err(PeerHoodError::CircuitOpen(hop)) => {
                assert_eq!(hop, server_addr);
                // The breaker is asked before an id is allocated: a refused
                // dial leaves no connection and no attempt behind.
                assert_eq!(after, before, "a refused dial must cost nothing");
                circuit_open = true;
                break;
            }
            Err(PeerHoodError::UnknownDevice(_)) => break, // aged out first
            _ => {}
        }
        world.run_for(SimDuration::from_secs(8));
    }
    assert!(circuit_open, "repeated dial failures must trip the breaker");
    let stats = world
        .with_agent::<PeerHoodNode, _>(client, |n, _| n.resilience_stats())
        .unwrap();
    assert!(stats.breaker_trips >= 1, "the trip must be counted, got {stats:?}");
    assert!(stats.breaker_blocked >= 1, "the refused dial must be counted");
}

/// A crash forgives everything: a hardened node holding penalties, replay
/// windows, a tripped breaker and a neighbour's claims is crashed and
/// restarted by a `FaultPlan`, and its reborn core holds no peer row and no
/// claim.
#[test]
fn a_restart_empties_the_peer_table_and_the_claims() {
    let hardened = |name: &str, mobility| {
        let mut cfg = PeerHoodConfig::new(name, mobility);
        cfg.security = crate::config::SecurityConfig::auth();
        cfg.resilience = crate::resilience::ResilienceConfig::all_on();
        cfg
    };
    let node =
        |cfg: PeerHoodConfig, app: TestApp| Box::new(OnWorld(PeerHoodNode::builder().config(cfg).app(app).build()));
    let mut world = World::new(WorldConfig::ideal(57));
    let victim = world.add_node(
        "victim",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        node(hardened("victim", MobilityClass::Dynamic), TestApp::default()),
    );
    let relay = world.add_node(
        "relay",
        MobilityModel::stationary(Point::new(3.0, 0.0)),
        &bt(),
        node(hardened("relay", MobilityClass::Static), TestApp::default()),
    );
    let server = world.add_node(
        "server",
        MobilityModel::stationary(Point::new(6.0, 0.0)),
        &bt(),
        node(
            hardened("server", MobilityClass::Static),
            TestApp::server("echo", false),
        ),
    );
    world.run_for(SimDuration::from_secs(40));
    let (relay_addr, server_addr) = (DeviceAddress::from_node(relay), DeviceAddress::from_node(server));

    // A frame without a valid trailer, on the relay's radio: a penalty.
    world
        .with_agent::<PeerHoodNode, _>(victim, |n, ctx| {
            let core = n.core_mut().expect("victim running");
            core.handle_message(ctx, simnet::LinkId(9_999), relay, b"no trailer".to_vec().into());
        })
        .unwrap();
    // Dials towards the crashed server trip its breaker.
    world.crash_node(server);
    let mut circuit_open = false;
    for _ in 0..8 {
        let result = world
            .with_agent::<PeerHoodNode, _>(victim, |n, ctx| {
                n.with_api(ctx, |api| api.connect_to(server_addr, "echo")).unwrap()
            })
            .unwrap();
        if let Err(PeerHoodError::CircuitOpen(_)) = result {
            circuit_open = true;
            break;
        }
        world.run_for(SimDuration::from_secs(8));
    }
    assert!(circuit_open, "repeated dial failures must trip the breaker");

    let held = |n: &mut PeerHoodNode| {
        let core = n.core_mut().expect("victim running");
        let peers = &core.security.peers;
        let penalized = peers.get(&relay_addr).map_or(0, |row| row.penalties);
        let open = peers
            .values()
            .filter(|row| row.breaker.state() == BreakerState::Open)
            .count();
        let claimed = core.storage.reported_quality(relay_addr, server_addr).is_some()
            || core.storage.reported_quality(server_addr, relay_addr).is_some();
        (peers.len(), penalized, open, claimed)
    };
    let before = world.with_agent::<PeerHoodNode, _>(victim, |n, _| held(n)).unwrap();
    assert_eq!(before.0, 2, "a row for each neighbour heard");
    assert!(before.1 >= 1, "the relay holds a penalty");
    assert_eq!(before.2, 1, "the server's breaker is open");
    assert!(before.3, "a neighbour's claim is held");

    let crash_at = world.now() + SimDuration::from_secs(1);
    let downtime = SimDuration::from_secs(5);
    world.install_fault_plan(victim, simnet::FaultPlan::new().crash_for(crash_at, downtime));
    world.run_until(crash_at + downtime + SimDuration::from_millis(10));
    let after = world.with_agent::<PeerHoodNode, _>(victim, |n, _| held(n)).unwrap();
    assert_eq!(
        after,
        (0, 0, 0, false),
        "the reborn core starts with no peer row and no claim"
    );
    assert_eq!(world.fault_stats().restarts, 1);
}

// ---------------------------------------------------------------------
// The daemon's state on the core: registry, inquiry response, cycles
// ---------------------------------------------------------------------

fn device(n: u64) -> DeviceInfo {
    DeviceInfo::new(
        NodeId::from_raw(n),
        format!("d{n}"),
        MobilityClass::Static,
        &[RadioTech::Bluetooth],
    )
}

fn core_config() -> PeerHoodConfig {
    PeerHoodConfig::new("test", MobilityClass::Static)
}

/// The core of device 0, not started.
fn core_of(config: PeerHoodConfig) -> Core {
    Core::new(device(0), Arc::new(config))
}

/// Sets the bridge load `core` advertises: `percent` relayed pairs out of
/// 100.
fn load_bridge(core: &mut Core, percent: u8) {
    core.bridge = BridgeService::new(100);
    for n in 0..u32::from(percent) {
        let conn = ConnectionId::new(DeviceAddress::from_node_raw(7), n);
        let destination = DeviceAddress::from_node_raw(8);
        core.bridge
            .insert_pending(conn, simnet::LinkId(u64::from(n)), destination, "svc", device(7), None);
    }
}

/// What `core` answers an inquiry with, exporting up to `max_export_jumps`
/// jumps, decoded: `(device, services, neighbors, bridge_load_percent)`.
fn reply(core: &mut Core, max_export_jumps: u8) -> (DeviceInfo, Vec<ServiceInfo>, Vec<NeighborRecord>, u8) {
    let mut config = core_config();
    config.discovery.max_export_jumps = max_export_jumps;
    core.config = Arc::new(config);
    core.inquiry_frame = None;
    match wire::decode(&core.inquiry_response_frame()).expect("the inquiry response decodes") {
        Message::InquiryResponse {
            device,
            services,
            neighbors,
            bridge_load_percent,
        } => (device, services, neighbors, bridge_load_percent),
        other => panic!("unexpected message {other:?}"),
    }
}

#[test]
fn bridge_service_is_hidden_but_registered() {
    let mut core = core_of(core_config());
    assert!(core.registry.find(BRIDGE_SERVICE_NAME).is_some());
    assert!(reply(&mut core, 8).1.is_empty());
    // Disabling the bridge omits the hidden service.
    let mut config = core_config();
    config.bridge.enabled = false;
    assert!(core_of(config).registry.find(BRIDGE_SERVICE_NAME).is_none());
}

#[test]
fn register_and_advertise_services() {
    let mut core = core_of(core_config());
    core.registry.register(ServiceInfo::new("echo", "v1", 10)).unwrap();
    assert_eq!(reply(&mut core, 8).1, vec![ServiceInfo::new("echo", "v1", 10)]);
    assert!(core.registry.register(ServiceInfo::new("echo", "v2", 11)).is_err());
}

#[test]
fn inquiry_response_contains_storage_export() {
    let mut core = core_of(core_config());
    core.registry.register(ServiceInfo::new("echo", "v1", 10)).unwrap();
    core.storage
        .upsert_direct(device(2), 240, vec![ServiceInfo::new("print", "", 3)], SimTime::ZERO);
    load_bridge(&mut core, 25);
    let (me, services, neighbors, bridge_load_percent) = reply(&mut core, 8);
    assert_eq!(me.address, device(0).address);
    assert_eq!(services.len(), 1);
    assert_eq!(neighbors.len(), 1);
    assert_eq!(neighbors[0].info.address, device(2).address);
    assert_eq!(bridge_load_percent, 25);
}

#[test]
fn export_neighbors_respects_jump_limit() {
    let mut core = core_of(core_config());
    let far = |n, jumps: u8, quality| NeighborRecord {
        info: device(n),
        jumps,
        hop_qualities: vec![quality; jumps as usize + 1],
        services: vec![].into(),
    };
    let frame = wire::encode(&Message::InquiryResponse {
        device: device(1),
        services: vec![],
        neighbors: vec![far(2, 0, 235), far(3, 3, 232)],
        bridge_load_percent: 0,
    });
    let report = wire::view_inquiry_response(&frame).unwrap();
    let mode = core.config.discovery.mode;
    core.storage
        .integrate_report_into(&report, true, 240, mode, SimTime::ZERO, &mut Vec::new());
    assert_eq!(reply(&mut core, 8).2.len(), 3);
    let limited = reply(&mut core, 1).2;
    assert_eq!(limited.len(), 2, "the 4-jump entry must be excluded");
    // Exported jump counts are the exporter's own view.
    let d2 = limited.iter().find(|r| r.info.address == device(2).address).unwrap();
    assert_eq!(d2.jumps, 1);
}

#[test]
fn a_record_of_255_hops_leaves_the_inquiry_response_decodable() {
    // Our hop in front of 254 reported ones fills the 255 a frame can
    // carry; in front of 255 it would be one too many, and the next export
    // would write the row's hop count wrapped to 0.
    let mut core = core_of(core_config());
    let record = |n, hops| NeighborRecord {
        info: device(n),
        jumps: 0,
        hop_qualities: vec![240; hops],
        services: vec![].into(),
    };
    let frame = wire::encode(&Message::InquiryResponse {
        device: device(1),
        services: vec![],
        neighbors: vec![record(2, 255), record(3, 254)],
        bridge_load_percent: 0,
    });
    let report = wire::view_inquiry_response(&frame).unwrap();
    let mode = core.config.discovery.mode;
    core.storage
        .integrate_report_into(&report, true, 240, mode, SimTime::ZERO, &mut Vec::new());
    assert!(wire::decode(&core.inquiry_response_frame()).is_ok());
    let exported = reply(&mut core, 8).2;
    let addresses: Vec<DeviceAddress> = exported.iter().map(|r| r.info.address).collect();
    assert_eq!(addresses, [device(1).address, device(3).address]);
    assert_eq!(exported[1].hop_qualities.len(), 255);
    assert_eq!(
        core.storage.reported_quality(device(1).address, device(2).address),
        None
    );
}

/// An agent that does nothing: it lends a free-standing [`Core`] a context.
struct Bystander;

impl simnet::agent::Agent for Bystander {}

#[test]
fn a_discovery_cycle_ages_and_removes_silent_devices() {
    let mut world = World::new(WorldConfig::ideal(3));
    let node = world.add_node(
        "bystander",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Bystander)),
    );
    let mut core = core_of(core_config());
    core.storage.upsert_direct(device(1), 240, vec![], SimTime::ZERO);
    core.storage.upsert_direct(device(2), 240, vec![], SimTime::ZERO);
    // Device 1 answers every cycle, device 2 never does. The default
    // configuration tolerates five missed loops, so the sixth silent cycle
    // removes it — and announces it lost.
    for cycle in 0..8 {
        world.run_for(SimDuration::from_secs(10));
        world
            .with_agent::<Bystander, _>(node, |_, ctx| {
                let plugin = core.plugin_mut(RadioTech::Bluetooth).expect("a Bluetooth plugin");
                plugin.begin_cycle();
                plugin.note_responder(device(1).address);
                core.finish_discovery_cycle(ctx, RadioTech::Bluetooth);
            })
            .unwrap();
        let lost: Vec<PeerHoodEvent> = core.events.drain(..).collect();
        if cycle < 5 {
            assert!(lost.is_empty(), "cycle {cycle} removed {lost:?}");
        }
    }
    assert!(core.storage.get(device(1).address).is_some());
    assert!(core.storage.get(device(2).address).is_none());
}

/// A device of one fleet: every node advertises the same name, technology
/// list and services.
fn fleet_device(n: u64) -> DeviceInfo {
    DeviceInfo::new(NodeId::from_raw(n), "metro", MobilityClass::Dynamic, &[RadioTech::Wlan])
}

#[test]
fn the_reply_streamed_from_storage_is_the_frame_of_the_message_built_record_by_record() {
    let mut rng = SimRng::new(0x5E47E);
    let fleet_services = || vec![ServiceInfo::new("metro.echo", "v1", 7)];
    for round in 0..40 {
        let mut core = Core::new(
            fleet_device(0),
            Arc::new(PeerHoodConfig::new("metro", MobilityClass::Dynamic)),
        );
        for s in 0..rng.range(0usize..3) {
            core.registry
                .register(ServiceInfo::new(format!("svc{s}"), "v1", s as u16))
                .unwrap();
        }
        // Direct neighbours, each reporting a few devices up to 9 jumps out.
        for _ in 0..rng.range(0usize..6) {
            let responder = fleet_device(rng.range(1u64..40));
            let services: Vec<ServiceInfo> = (0..rng.range(0usize..3))
                .map(|s| ServiceInfo::new(format!("r{s}"), "", s as u16))
                .collect();
            let quality = rng.range(200u8..=255);
            core.storage
                .upsert_direct(responder.clone(), quality, services, SimTime::ZERO);
            let records: Vec<NeighborRecord> = (0..rng.range(0usize..8))
                .map(|_| {
                    let jumps = rng.range(0u8..9);
                    NeighborRecord {
                        info: fleet_device(rng.range(40u64..80)),
                        jumps,
                        hop_qualities: (0..=jumps).map(|_| rng.range(200u8..=255)).collect(),
                        services: fleet_services().into(),
                    }
                })
                .collect();
            core.storage.integrate_neighbor_report(
                responder.address,
                quality,
                responder.mobility,
                &records,
                core.config.discovery.mode,
                SimTime::ZERO,
            );
        }
        for max_export_jumps in [0, 1, 8] {
            let load = rng.range(0u8..=100);
            let expected = wire::encode(&Message::InquiryResponse {
                device: core.my_info(),
                services: core
                    .registry
                    .list()
                    .iter()
                    .filter(|s| s.name != BRIDGE_SERVICE_NAME)
                    .cloned()
                    .collect(),
                neighbors: core
                    .storage
                    .devices()
                    .filter(|e| e.route.jumps <= max_export_jumps)
                    .map(|e| NeighborRecord {
                        info: e.info.clone(),
                        jumps: e.route.jumps,
                        hop_qualities: e.route.hop_qualities.to_vec(),
                        services: e.services.clone(),
                    })
                    .collect(),
                bridge_load_percent: load,
            });
            let mut config = PeerHoodConfig::new("metro", MobilityClass::Dynamic);
            config.discovery.max_export_jumps = max_export_jumps;
            core.config = Arc::new(config);
            core.inquiry_frame = None;
            load_bridge(&mut core, load);
            assert_eq!(&core.inquiry_response_frame()[..], expected.as_slice(), "round {round}");
        }
    }
}
