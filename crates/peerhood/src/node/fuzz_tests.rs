//! The state-machine-coverage fuzz harness (hostile-city tentpole).
//!
//! Every protocol transition — each [`LinkRole`] the node can classify a
//! link into, crossed with each `PH_*` wire command — is exercised with a
//! syntactically valid hostile frame injected straight into
//! `Core::handle_message`. The harness asserts three things:
//!
//! 1. **coverage** — all role x command pairs are fed (`role_tag` and
//!    [`Message::command_name`] are wildcard-free matches, so adding a link
//!    role or a protocol command fails compilation until the corpus learns
//!    it),
//! 2. **tier behaviour** — with `defenses=off` nothing is counted as
//!    rejected and session hijacks land; with `sanity` every hijack class
//!    trips its counter; with `auth` no unauthenticated frame even reaches
//!    the codec,
//! 3. **no panics** — hostile input never brings the state machines down,
//!    including frames produced by the randomized [`ProtocolForge`].

use std::collections::BTreeSet;

use simnet::agent::Agent;
use simnet::{
    Ctx, FrameForge, IncomingConnection, LinkId, MobilityModel, NodeId, OnWorld, Payload, Point, RadioTech,
    SimDuration, SimRng, World, WorldConfig,
};

use crate::application::Application;
use crate::config::{PeerHoodConfig, SecurityConfig};
use crate::connection::{AppConnection, ConnKind};
use crate::device::{DeviceInfo, MobilityClass};
use crate::error::ErrorCode;
use crate::hostile::{ProtocolForge, HOSTILE_BASE};
use crate::ids::{ConnectionId, DeviceAddress};
use crate::proto::{Message, NeighborRecord};
use crate::resilience::{ResilienceConfig, INBOUND_BURST, PER_PEER_RATE};
use crate::security::Security;
use crate::service::ServiceInfo;
use crate::wire;

use super::pending::LinkRole;
use super::{PeerHoodApi, PeerHoodNode};

/// Wildcard-free role classifier: a new [`LinkRole`] variant breaks the
/// harness at compile time until the matrix below covers it.
fn role_tag(role: &LinkRole) -> &'static str {
    match role {
        LinkRole::IncomingUnidentified => "IncomingUnidentified",
        LinkRole::DaemonFetch { .. } => "DaemonFetch",
        LinkRole::DaemonServe => "DaemonServe",
        LinkRole::AppConnection(_) => "AppConnection",
        LinkRole::HandoverPending { .. } => "HandoverPending",
        LinkRole::BridgeUpstream(_) => "BridgeUpstream",
        LinkRole::BridgeDownstream(_) => "BridgeDownstream",
    }
}

const ALL_ROLES: [&str; 7] = [
    "IncomingUnidentified",
    "DaemonFetch",
    "DaemonServe",
    "AppConnection",
    "HandoverPending",
    "BridgeUpstream",
    "BridgeDownstream",
];

const ALL_COMMANDS: [&str; 8] = [
    "PH_INQUIRY",
    "PH_INQUIRY_RESP",
    "PH_CONNECT",
    "PH_BRIDGE",
    "PH_OK",
    "PH_ERROR",
    "PH_DATA",
    "PH_DISCONNECT",
];

/// A service-hosting application so hostile connect requests have a real
/// target; echoes data for the auth interop test.
#[derive(Default)]
struct FuzzApp {
    service: Option<&'static str>,
    echo: bool,
    data: Vec<Vec<u8>>,
    connected: Vec<ConnectionId>,
}

impl Application for FuzzApp {
    fn on_start(&mut self, api: &mut PeerHoodApi<'_>) {
        if let Some(name) = self.service {
            api.register_service(ServiceInfo::new(name, "fuzz", 10)).unwrap();
        }
    }
    fn on_connected(&mut self, _api: &mut PeerHoodApi<'_>, conn: ConnectionId) {
        self.connected.push(conn);
    }
    fn on_data(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, payload: Vec<u8>) {
        if self.echo {
            let mut reply = payload.clone();
            reply.reverse();
            let _ = api.send(conn, reply);
        }
        self.data.push(payload);
    }
}

fn attacker_node() -> NodeId {
    NodeId::from_raw(0xA77)
}

fn attacker_info() -> DeviceInfo {
    DeviceInfo::new(
        attacker_node(),
        "attacker",
        MobilityClass::Static,
        &[RadioTech::Bluetooth],
    )
}

/// An address no real node in the harness worlds owns.
fn phantom_addr() -> DeviceAddress {
    DeviceAddress::from_node_raw(HOSTILE_BASE + 0x123)
}

/// A connection id whose packed allocator is the phantom, never the sender.
fn foreign_conn() -> ConnectionId {
    ConnectionId::new(phantom_addr(), 9)
}

/// A forged neighbour report: the attacker advertises the target service and
/// a fan of phantom neighbours at perfect quality (§3.4.3 route poisoning).
fn poisoned_response() -> Message {
    Message::InquiryResponse {
        device: attacker_info(),
        services: vec![ServiceInfo::new("svc", "spoofed", 1)],
        neighbors: vec![NeighborRecord {
            info: DeviceInfo::new(
                NodeId::from_raw(HOSTILE_BASE + 0x42),
                "phantom",
                MobilityClass::Static,
                &[RadioTech::Bluetooth],
            ),
            jumps: 0,
            hop_qualities: vec![200],
            services: vec![].into(),
        }],
        bridge_load_percent: 0,
    }
}

fn victim_world(tier: SecurityConfig, resilience: ResilienceConfig) -> (World, NodeId) {
    let mut world = World::new(WorldConfig::ideal(0xF0_22));
    let mut cfg = PeerHoodConfig::new("victim", MobilityClass::Static);
    cfg.security = tier;
    cfg.resilience = resilience;
    let victim = world.add_node(
        "victim",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &[RadioTech::Bluetooth],
        Box::new(OnWorld(
            PeerHoodNode::builder()
                .config(cfg)
                .app(FuzzApp {
                    service: Some("svc"),
                    ..FuzzApp::default()
                })
                .build(),
        )),
    );
    world.run_for(SimDuration::from_secs(1));
    (world, victim)
}

/// What one full hostile matrix did to a victim under a given tier.
struct MatrixOutcome {
    covered: BTreeSet<(String, String)>,
    stats: crate::security::SecurityStats,
    /// Connection-table entries whose id was allocated by the phantom — a
    /// successfully hijacked/pre-poisoned session.
    hijacked: usize,
    /// Whether the phantom neighbour made it into the device storage.
    poisoned: bool,
    /// Reputation penalties the victim's storage holds against the attacker.
    attacker_penalty: u32,
    /// Total hostile frames injected.
    injected: u64,
}

/// Feeds every role x command pair (plus the forged-reply-context variant)
/// into a fresh victim and reports what stuck.
fn run_matrix(tier: SecurityConfig) -> MatrixOutcome {
    let (mut world, victim) = victim_world(tier, ResilienceConfig::default());
    let mut covered = BTreeSet::new();
    let mut injected = 0u64;
    // LinkIds far above anything the world allocates in a 1-second run.
    let mut next_link = 0x4000u64;
    let mut next_counter = 100u32;
    for role_name in ALL_ROLES {
        for cmd in ALL_COMMANDS {
            next_link += 2;
            next_counter += 1;
            let link = LinkId(next_link);
            let aux = LinkId(next_link + 1);
            world
                .with_agent::<PeerHoodNode, _>(victim, |n, ctx| {
                    let now = ctx.now();
                    let core = n.core_mut().expect("node started");
                    let attacker_addr = DeviceAddress::from_node(attacker_node());
                    // Each job gets a fresh session id so state torn down by
                    // one command cannot mask the next.
                    let session = ConnectionId::new(attacker_addr, next_counter);
                    let dest = DeviceAddress::from_node_raw(0xBEEF);
                    let role = match role_name {
                        "IncomingUnidentified" => LinkRole::IncomingUnidentified,
                        "DaemonFetch" => LinkRole::DaemonFetch {
                            peer: attacker_addr,
                            tech: RadioTech::Bluetooth,
                            quality: 200,
                        },
                        "DaemonServe" => LinkRole::DaemonServe,
                        "AppConnection" => LinkRole::AppConnection(session),
                        "HandoverPending" => LinkRole::HandoverPending {
                            conn: session,
                            via: dest,
                            before_break: true,
                        },
                        "BridgeUpstream" => LinkRole::BridgeUpstream(session),
                        "BridgeDownstream" => LinkRole::BridgeDownstream(session),
                        other => panic!("unknown role tag {other}"),
                    };
                    // Install the middleware state that classifies `link`
                    // into `role`, exactly as the real flows would.
                    match role {
                        LinkRole::IncomingUnidentified | LinkRole::DaemonFetch { .. } | LinkRole::DaemonServe => {}
                        LinkRole::AppConnection(conn) => {
                            core.connections
                                .insert(AppConnection::incoming(conn, attacker_info(), "svc", link, now));
                        }
                        LinkRole::HandoverPending { conn, via, .. } => {
                            core.connections.insert(AppConnection::outgoing(
                                conn,
                                via,
                                "svc",
                                ConnKind::OutgoingDirect,
                                now,
                            ));
                        }
                        LinkRole::BridgeUpstream(conn) => {
                            core.bridge
                                .insert_pending(conn, link, dest, "svc", attacker_info(), None);
                            core.bridge.get_mut(conn).unwrap().downstream = Some(aux);
                        }
                        LinkRole::BridgeDownstream(conn) => {
                            core.bridge
                                .insert_pending(conn, aux, dest, "svc", attacker_info(), None);
                            core.bridge.get_mut(conn).unwrap().downstream = Some(link);
                        }
                    }
                    core.roles.insert(link, (role, RadioTech::Bluetooth));
                    // The hostile frame for this command. Session-scoped
                    // commands use the classified session id (replay shape);
                    // the rest present the phantom's foreign id (splice
                    // shape). Data towards a bridge leg keeps the session id
                    // so the relay fast path itself is exercised.
                    let on_bridge = matches!(role, LinkRole::BridgeUpstream(_) | LinkRole::BridgeDownstream(_));
                    let message = match cmd {
                        "PH_INQUIRY" => Message::InquiryRequest {
                            requester: attacker_info(),
                        },
                        "PH_INQUIRY_RESP" => poisoned_response(),
                        "PH_CONNECT" => Message::ConnectRequest {
                            conn_id: foreign_conn(),
                            service: "svc".into(),
                            client: attacker_info(),
                            reply_context: None,
                        },
                        "PH_BRIDGE" => Message::BridgeRequest {
                            conn_id: foreign_conn(),
                            destination: phantom_addr(),
                            service: "svc".into(),
                            client: attacker_info(),
                            reply_context: None,
                        },
                        "PH_OK" => Message::Accept { conn_id: session },
                        "PH_ERROR" => Message::Error {
                            conn_id: session,
                            code: ErrorCode::ServiceUnavailable,
                            detail: "forged".into(),
                        },
                        "PH_DATA" => Message::Data {
                            conn_id: if on_bridge { session } else { foreign_conn() },
                            payload: b"hostile".to_vec(),
                        },
                        "PH_DISCONNECT" => Message::Disconnect { conn_id: session },
                        other => panic!("unknown command {other}"),
                    };
                    assert_eq!(message.command_name(), cmd, "corpus entry mislabelled");
                    covered.insert((role_tag(&role).to_string(), cmd.to_string()));
                    injected += 1;
                    core.handle_message(ctx, link, attacker_node(), wire::encode(&message).into());
                })
                .unwrap();
        }
    }
    // The forged-reply-context variant of PH_CONNECT: a reply that refers
    // back to a session the victim never initiated.
    next_link += 2;
    world
        .with_agent::<PeerHoodNode, _>(victim, |n, ctx| {
            let core = n.core_mut().expect("node started");
            let message = Message::ConnectRequest {
                conn_id: ConnectionId::new(DeviceAddress::from_node(attacker_node()), 999),
                service: "svc".into(),
                client: attacker_info(),
                reply_context: Some(foreign_conn()),
            };
            injected += 1;
            let link = LinkId(next_link);
            core.roles
                .insert(link, (LinkRole::IncomingUnidentified, RadioTech::Bluetooth));
            core.handle_message(ctx, link, attacker_node(), wire::encode(&message).into());
        })
        .unwrap();
    // Let queued events drain through the normal dispatch path.
    world.run_for(SimDuration::from_secs(2));
    let (stats, hijacked, poisoned, attacker_penalty) = world
        .with_agent::<PeerHoodNode, _>(victim, |n, _| {
            let stats = n.security_stats();
            let core = n.core_mut().expect("node started");
            let hijacked = core
                .connections
                .ids()
                .iter()
                .filter(|c| c.initiator() == phantom_addr())
                .count();
            let poisoned = core.storage.get(phantom_addr()).is_some()
                || core
                    .storage
                    .get(DeviceAddress::from_node_raw(HOSTILE_BASE + 0x42))
                    .is_some();
            let attacker = &core.security.peers.get(&DeviceAddress::from_node(attacker_node()));
            let attacker_penalty = attacker.map_or(0, |row| row.penalties);
            (stats, hijacked, poisoned, attacker_penalty)
        })
        .unwrap();
    MatrixOutcome {
        covered,
        stats,
        hijacked,
        poisoned,
        attacker_penalty,
        injected,
    }
}

#[test]
fn every_protocol_transition_has_a_hostile_input_test() {
    let outcome = run_matrix(SecurityConfig::sanity());
    let mut expected = BTreeSet::new();
    for role in ALL_ROLES {
        for cmd in ALL_COMMANDS {
            expected.insert((role.to_string(), cmd.to_string()));
        }
    }
    let missing: Vec<_> = expected.difference(&outcome.covered).collect();
    assert!(missing.is_empty(), "uncovered protocol transitions: {missing:?}");
    assert_eq!(outcome.covered.len(), ALL_ROLES.len() * ALL_COMMANDS.len());
}

#[test]
fn defenses_off_accepts_what_sanity_rejects() {
    let off = run_matrix(SecurityConfig::off());
    // With everything disabled no defence fires...
    assert_eq!(off.stats.frames_rejected(), 0);
    assert_eq!(off.stats.penalties_recorded, 0);
    // ...and the storage holds no penalty, so below the sanity tier no
    // reporter is ever blocked.
    assert_eq!(off.attacker_penalty, 0);
    // ...and the hostile frames actually land: the phantom pre-poisons a
    // session and the forged report reaches the routing table.
    assert!(
        off.hijacked >= 1,
        "foreign connect request must be accepted with defenses off"
    );
    assert!(
        off.poisoned,
        "forged neighbour report must poison the storage with defenses off"
    );

    let sanity = run_matrix(SecurityConfig::sanity());
    assert!(
        sanity.stats.foreign_conn_rejected >= 1,
        "foreign conn ids must be rejected"
    );
    assert!(
        sanity.stats.bad_reply_context >= 1,
        "forged reply contexts must be rejected"
    );
    assert!(sanity.stats.duplicate_accepts >= 1, "replayed Accepts must be counted");
    assert!(
        sanity.stats.conn_mismatch_dropped >= 1,
        "spliced frames must be dropped"
    );
    assert!(
        sanity.stats.penalties_recorded >= 1,
        "caught attackers must be penalized"
    );
    assert_eq!(sanity.hijacked, 0, "no foreign session may survive the sanity tier");
    assert!(
        sanity.stats.frames_rejected() < off.injected,
        "sanity rejects selectively, not wholesale"
    );
}

#[test]
fn auth_rejects_every_raw_hostile_frame_before_decode() {
    let outcome = run_matrix(SecurityConfig::auth());
    // Nothing the attacker sent carried a valid trailer, so nothing reaches
    // the codec: no hijack, no poisoning, and the only counter that moves is
    // the MAC rejection (plus the reputation penalties it feeds).
    assert_eq!(outcome.stats.auth_rejected, outcome.injected);
    assert_eq!(outcome.stats.foreign_conn_rejected, 0);
    assert_eq!(outcome.stats.conn_mismatch_dropped, 0);
    assert_eq!(outcome.hijacked, 0);
    assert!(!outcome.poisoned);
    assert_eq!(outcome.stats.penalties_recorded, outcome.injected);
}

/// The frame path's order is behaviour. With frame auth, the sanity tier
/// and the resilience pipeline all on, a frame one step refuses never
/// reaches a later one: more forged `Data` frames than the inbound bucket
/// holds all stop at the MAC check, as many authenticated ones naming
/// another session all stop at the session check, and an honest frame after
/// both floods still finds the bucket full and reaches the app. An incoming
/// connection that admission refuses leaves no link role behind.
#[test]
fn a_frame_one_defence_refuses_never_reaches_the_next() {
    let (mut world, victim) = victim_world(SecurityConfig::auth(), ResilienceConfig::all_on());
    let attacker = DeviceAddress::from_node(attacker_node());
    let session = ConnectionId::new(attacker, 1);
    let link = LinkId(0x4000);
    let flood = INBOUND_BURST as u64 + 1;
    // The sender holds the key: a frame it seals verifies, one it does not
    // is a forgery.
    let mut sender = Security::new(SecurityConfig::auth());
    let mut data = |conn_id, payload: &[u8], sealed: bool| -> Payload {
        let mut frame = wire::encode(&Message::Data {
            conn_id,
            payload: payload.to_vec(),
        });
        if sealed {
            sender.append_trailer(attacker, &mut frame);
        }
        frame.into()
    };
    world
        .with_agent::<PeerHoodNode, _>(victim, |n, ctx| {
            let app = n.app_ids()[0];
            let now = ctx.now();
            let core = n.core_mut().expect("node started");
            core.connections
                .insert(AppConnection::incoming(session, attacker_info(), "svc", link, now));
            core.conn_owner.insert(session, app);
            core.roles
                .insert(link, (LinkRole::AppConnection(session), RadioTech::Bluetooth));
            for _ in 0..flood {
                core.handle_message(ctx, link, attacker_node(), data(session, b"forged", false));
                core.handle_message(ctx, link, attacker_node(), data(foreign_conn(), b"spliced", true));
            }
            core.handle_message(ctx, link, attacker_node(), data(session, b"honest", true));
        })
        .unwrap();
    world.run_for(SimDuration::from_secs(2));
    world
        .with_agent::<PeerHoodNode, _>(victim, |n, ctx| {
            let security = n.security_stats();
            assert_eq!(security.auth_rejected, flood);
            assert_eq!(security.conn_mismatch_dropped, flood);
            let shed = n.resilience_stats().inbound_shed;
            assert_eq!(shed, 0, "a refused frame was charged to the inbound bucket");
            assert_eq!(n.app::<FuzzApp>().unwrap().data, vec![b"honest".to_vec()]);
            // The per-peer accept rate refuses the connection past it.
            let links: Vec<_> = (0..=PER_PEER_RATE as u64).map(|i| LinkId(0x5000 + i)).collect();
            let admitted: Vec<bool> = links
                .iter()
                .map(|&link| {
                    let incoming = IncomingConnection {
                        from: attacker_node(),
                        tech: RadioTech::Bluetooth,
                        link,
                    };
                    n.on_incoming_connection(ctx, incoming)
                })
                .collect();
            assert_eq!(admitted, [vec![true; PER_PEER_RATE], vec![false]].concat());
            let roles = &n.core_mut().expect("node started").roles;
            assert!(roles.get(&links[0]).is_some());
            assert!(
                roles.get(&links[PER_PEER_RATE]).is_none(),
                "a refused connection left a link role"
            );
        })
        .unwrap();
}

#[test]
fn forge_corpus_never_panics_any_tier() {
    // The last configuration runs every gate together: auth, sanity,
    // admission, backpressure and the breakers.
    let off = ResilienceConfig::default();
    for (tier, resilience) in [
        (SecurityConfig::off(), off),
        (SecurityConfig::sanity(), off),
        (SecurityConfig::auth(), off),
        (SecurityConfig::auth(), ResilienceConfig::all_on()),
    ] {
        let (mut world, victim) = victim_world(tier, resilience);
        let mut rng = SimRng::new(0xF0_26E);
        let mut forge = ProtocolForge::new("svc");
        // Sniffed traffic for the forge to replay: a legitimate-looking
        // session frame captured off the air.
        let sniffed = vec![wire::encode(&Message::Accept {
            conn_id: ConnectionId::new(DeviceAddress::from_node(attacker_node()), 7),
        })
        .into()];
        let mut fed = 0u32;
        let mut link = 0x8000u64;
        while fed < 64 {
            if let Some(frame) = forge.forge(attacker_node(), victim, &sniffed, &mut rng) {
                link += 1;
                world
                    .with_agent::<PeerHoodNode, _>(victim, |n, ctx| {
                        n.core_mut()
                            .expect("node started")
                            .handle_message(ctx, LinkId(link), attacker_node(), frame);
                    })
                    .unwrap();
                fed += 1;
            }
        }
        world.run_for(SimDuration::from_secs(2));
    }
}

#[test]
fn authenticated_stacks_interoperate() {
    // Two honest nodes running the full auth tier must still discover each
    // other, connect and exchange data — the defence may cost bytes, never
    // sessions.
    let mut world = World::new(WorldConfig::ideal(0xA07));
    let mut client_cfg = PeerHoodConfig::new("client", MobilityClass::Dynamic);
    client_cfg.security = SecurityConfig::auth();
    client_cfg.discovery.inquiry_interval = SimDuration::from_secs(3);
    let mut server_cfg = PeerHoodConfig::new("server", MobilityClass::Static);
    server_cfg.security = SecurityConfig::auth();
    server_cfg.discovery.inquiry_interval = SimDuration::from_secs(3);
    let client = world.add_node(
        "client",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &[RadioTech::Bluetooth],
        Box::new(OnWorld(
            PeerHoodNode::builder()
                .config(client_cfg)
                .app(FuzzApp::default())
                .build(),
        )),
    );
    let server = world.add_node(
        "server",
        MobilityModel::stationary(Point::new(4.0, 0.0)),
        &[RadioTech::Bluetooth],
        Box::new(OnWorld(
            PeerHoodNode::builder()
                .config(server_cfg)
                .app(FuzzApp {
                    service: Some("echo"),
                    echo: true,
                    ..FuzzApp::default()
                })
                .build(),
        )),
    );
    world.run_for(SimDuration::from_secs(40));
    let conn = world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            n.with_api(ctx, |api| api.connect_to_service("echo")).unwrap()
        })
        .unwrap()
        .expect("auth peers must still connect");
    world.run_for(SimDuration::from_secs(5));
    world
        .with_agent::<PeerHoodNode, _>(client, |n, ctx| {
            assert_eq!(n.app::<FuzzApp>().unwrap().connected, vec![conn]);
            n.with_api(ctx, |api| api.send(conn, b"ping".to_vec()).unwrap());
        })
        .unwrap();
    world.run_for(SimDuration::from_secs(5));
    for node in [client, server] {
        world
            .with_agent::<PeerHoodNode, _>(node, |n, _| {
                let stats = n.security_stats();
                assert!(stats.frames_authenticated > 0, "every frame must carry a trailer");
                assert_eq!(stats.frames_rejected(), 0, "honest traffic must never be rejected");
                assert_eq!(
                    stats.auth_bytes,
                    stats.frames_authenticated * crate::security::AUTH_TRAILER_LEN as u64
                );
            })
            .unwrap();
    }
    world
        .with_agent::<PeerHoodNode, _>(client, |n, _| {
            let app = n.app::<FuzzApp>().unwrap();
            assert_eq!(app.data, vec![b"gnip".to_vec()], "the echo must survive frame auth");
        })
        .unwrap();
}
