//! Full-stack tests: the real PeerHood middleware populates the E15
//! metropolis and an authenticated city, on every `cargo test`. Debug builds
//! run E15 at 300 nodes for 80 s (`claims.rs` checks its *Paper:* line
//! there); CI runs the 2k-node quick variant through the release `repro`
//! binary.

use std::rc::Rc;

use peerhood::config::SecurityConfig;
use peerhood::ids::DeviceAddress;
use peerhood::node::{PeerHoodEvent, PeerHoodNode};
use peerhood::resilience::{ResilienceConfig, ResilienceStats};
use peerhood::security::SecurityStats;
use scenarios::experiments::city::{wlan_world, City};
use scenarios::experiments::full_stack::{metro_configs, FullStackHost, MetroApp};
use scenarios::experiments::metropolis::{self, aggregate_full_stats};
use scenarios::experiments::{find, metropolis_run, Params};
use scenarios::topology::random_positions;
use simnet::prelude::*;

/// E15 at the debug-sized grid point `claims.rs` checks it at, run twice
/// through the registry.
#[test]
fn e15_report_is_deterministic() {
    let mut params = Params::new();
    params.set("nodes", "300");
    params.set("duration_s", "80");
    let metropolis = find("metropolis").unwrap();
    let a = metropolis.run(15, &params, true).unwrap();
    let b = metropolis.run(15, &params, true).unwrap();
    assert_eq!(a.report, b.report, "same settings must reproduce the identical report");
}

/// Every reconnect sample a city's apps take is counted once by how it
/// ended: a provider switch's first dial, a switch's second chance (its
/// re-dial after a set-up fault or its re-aim by a fresh search) or the
/// app's own dial. An all-walking debug-sized E15 city takes each kind.
#[test]
fn every_reconnect_sample_is_counted_by_how_it_ended() {
    let city = City {
        nodes: vec![300],
        mobile_fraction: 1.0,
        duration: SimDuration::from_secs(80),
        ..metropolis::quick()
    };
    let mut world = metropolis_run(&city, 300, 40.0);
    let (stats, _) = aggregate_full_stats(&mut world);
    let ended = [stats.switched_first_dial, stats.switched_second_chance, stats.redialled];
    assert_eq!(ended.iter().sum::<u64>(), stats.reconnects, "{stats:?}");
    assert!(
        ended.iter().all(|&n| n > 0),
        "a kind of ending never happened: {stats:?}"
    );
}

/// The hardening tier must sit on the data path of an honest city without
/// costing it a single frame — alone, and with the whole resilience pipeline
/// switched on beside it (the two subsystems composed on one frame path). No
/// churn here on purpose: a restarted node re-uses sequence numbers its peers
/// have already seen, which the replay window (correctly, today) drops — a
/// separate, open issue.
#[test]
fn peaceful_auth_city_authenticates_its_traffic_and_rejects_none() {
    const NODES: usize = 300;
    let side = (NODES as f64 / 2_000.0 * 1_000_000.0).sqrt();
    let mut sessions_by_input = Vec::new();
    for resilience in [ResilienceConfig::default(), ResilienceConfig::all_on()] {
        let mut world = wlan_world(20080815);
        let (static_cfg, mobile_cfg) = metro_configs(SimDuration::from_secs(10));
        let [static_cfg, mobile_cfg] = [static_cfg, mobile_cfg].map(|base| {
            let mut cfg = (*base).clone();
            cfg.security = SecurityConfig::auth();
            cfg.resilience = resilience;
            Rc::new(cfg)
        });
        for (i, start) in random_positions(NODES, side, 0xF57A7E).into_iter().enumerate() {
            let (mobility, cfg) = if i % 4 == 0 {
                let walker = MobilityModel::RandomWaypoint {
                    area: Rect::square(side),
                    start,
                    min_speed_mps: 0.7,
                    max_speed_mps: 2.0,
                    pause: SimDuration::from_secs(20),
                };
                (walker, &mobile_cfg)
            } else {
                (MobilityModel::stationary(start), &static_cfg)
            };
            let host = FullStackHost::new(Rc::clone(cfg));
            world.add_node(format!("n{i}"), mobility, &[RadioTech::Wlan], Box::new(host));
        }
        world.run_for(SimDuration::from_secs(60));
        let mut sessions = 0u64;
        let mut security = SecurityStats::default();
        let mut pipeline = ResilienceStats::default();
        for node in world.node_ids().collect::<Vec<_>>() {
            let (full, sec, res) = world
                .with_agent::<FullStackHost, _>(node, |host, _| {
                    (
                        host.stats(),
                        host.node().security_stats(),
                        host.node().resilience_stats(),
                    )
                })
                .expect("no node is down: the city has no churn");
            sessions += full.sessions_established;
            security.absorb(&sec);
            pipeline.absorb(&res);
        }
        assert!(sessions > 0, "{resilience:?}: no session established");
        assert!(
            security.frames_authenticated > NODES as u64,
            "{resilience:?}: only {} frames authenticated: the defence is not on the data path",
            security.frames_authenticated
        );
        assert_eq!(security.frames_rejected(), 0, "{resilience:?}: honest frames rejected");
        // Breakers do trip here — walkers leave range mid-dial — so what is
        // pinned is what the layers may cost an honest city: nothing.
        let refused = pipeline.inbound_shed
            + pipeline.outbound_shed
            + pipeline.queue_shed
            + pipeline.rejected_sessions
            + pipeline.rejected_rate;
        assert_eq!(refused, 0, "{resilience:?}: honest load shed or turned away");
        assert_eq!(
            pipeline.admitted > 0,
            resilience.enabled,
            "{resilience:?}: admission off the accept path"
        );
        sessions_by_input.push(sessions);
    }
    assert_eq!(
        sessions_by_input[0], sessions_by_input[1],
        "the resilience pipeline must not cost an honest city a session"
    );
}

#[test]
fn a_full_stack_host_stays_a_small_bin_allocation() {
    let size = std::mem::size_of::<FullStackHost>();
    assert!(
        size <= 1000,
        "FullStackHost is {size} bytes: past 1000 a boxed host leaves glibc's last small-bin request (1008 with \
         its header) and every `add_node` takes the large-request path — setup_s read +10-12 % at 1008 (PR 20). \
         Slim `Core` before adding a field."
    );
}

#[test]
fn a_metro_app_stays_136_bytes() {
    let size = std::mem::size_of::<MetroApp>();
    assert!(
        size <= 136,
        "MetroApp is {size} bytes: every node boxes one, and at 144 bytes `benchmark setup` on city_fullstack read \
         ~12 % slower than at 120-136 over 20 alternated runs. Keep what only the host fills out of its counts."
    );
}

/// §5.2.2 in a city node: a walker's session provider falls out of range, no
/// neighbour reaches it (so the routing handover has no candidate), and the
/// middleware switches the session to the other provider it knows — on the
/// same connection id, with no dial of the app's own. The walker reads
/// detached from the proposal to the switch's `Accept`, and that window is
/// its one reconnect sample.
#[test]
fn a_walker_whose_provider_left_is_switched_by_the_middleware_and_timed() {
    const STEP: SimDuration = SimDuration::from_millis(10);
    let mut world = World::new(WorldConfig::ideal(47));
    let (static_cfg, mobile_cfg) = metro_configs(SimDuration::from_secs(10));
    // WLAN reaches 50 m. `near` (x = 0) and `far` (x = 75) never hear each
    // other. The walker leaves x = 20 at t = 30 s at 1 m/s: it hears `far`
    // from t = 35 s and loses `near` at t = 60 s.
    let mut node = PeerHoodNode::builder()
        .config((*mobile_cfg).clone())
        .app(MetroApp::default())
        .build();
    node.subscribe_event_trace();
    let walk = MobilityModel::walk_after(
        Point::new(20.0, 0.0),
        Point::new(60.0, 0.0),
        1.0,
        SimDuration::from_secs(30),
    );
    let walker = world.add_node("walker", walk, &[RadioTech::Wlan], Box::new(OnWorld(node)));
    let [near, far] = [0.0, 75.0].map(|x| {
        let host = FullStackHost::new(Rc::clone(&static_cfg));
        let at = MobilityModel::stationary(Point::new(x, 0.0));
        world.add_node("provider", at, &[RadioTech::Wlan], Box::new(host))
    });
    let [near, far] = [near, far].map(DeviceAddress::from_node);
    let look = |world: &mut World| {
        world
            .with_agent::<PeerHoodNode, _>(walker, |n, _| {
                let app = n.app::<MetroApp>().unwrap();
                let conn = app.current_conn();
                let remote = conn.and_then(|c| n.connection(c)).map(|c| c.remote);
                let counts = app.counts;
                (
                    app.attached(),
                    conn,
                    remote,
                    counts.reconnects,
                    counts.reconnect_secs_total,
                )
            })
            .unwrap()
    };
    let drain = |world: &mut World| {
        world
            .with_agent::<PeerHoodNode, _>(walker, |n, _| n.take_event_trace())
            .unwrap()
    };

    world.run_for(SimDuration::from_secs(55));
    drain(&mut world);
    let (attached, session, remote, reconnects, total_before) = look(&mut world);
    assert!(attached, "the walker holds a session before it walks off");
    assert_eq!(remote, Some(near), "the session is on the nearer provider");
    let session = session.unwrap();
    assert!(
        world
            .with_agent::<PeerHoodNode, _>(walker, |n, _| n.known_devices().iter().any(|d| d.info.address == far))
            .unwrap(),
        "the other provider is known before the break"
    );

    // Step through the break in 10 ms slices, reading the walker after each.
    let (mut proposed, mut switched) = (None, None);
    let mut step = 0u32;
    while switched.is_none() && step < 1_500 {
        world.run_for(STEP);
        step += 1;
        for event in drain(&mut world) {
            match event {
                PeerHoodEvent::ReconnectRequired { conn, .. } if conn == session => proposed = Some(step),
                PeerHoodEvent::ServiceReconnected { conn, provider, .. } if conn == session => {
                    assert_eq!(provider, far, "the switch goes to the provider still in range");
                    switched = Some(step);
                }
                PeerHoodEvent::Disconnected { conn, .. } if conn == session => {
                    panic!("step {step}: the session was abandoned instead of switched")
                }
                PeerHoodEvent::Connected { conn, .. } | PeerHoodEvent::ConnectFailed { conn, .. } => {
                    panic!("step {step}: the walker dialled {conn:?} itself")
                }
                _ => {}
            }
        }
        let (attached, conn, ..) = look(&mut world);
        assert_eq!(conn, Some(session), "step {step}: the session keeps its connection id");
        if proposed.is_some() && switched.is_none() {
            assert!(!attached, "step {step}: attached while the switch is in flight");
        }
    }
    let proposed = proposed.expect("the middleware proposed a provider switch");
    let switched = switched.expect("the switch completed");
    let (attached, _, remote, after, total) = look(&mut world);
    assert!(attached && remote == Some(far), "re-attached to the other provider");
    assert_eq!(after, reconnects + 1, "one reconnect sample");
    // The sample runs from the proposal to the `Accept`, each known to the
    // slice it fell in.
    let (window, slices) = (total - total_before, f64::from(switched - proposed));
    let slice = STEP.as_secs_f64();
    assert!(
        window > (slices - 1.0) * slice && window <= (slices + 1.0) * slice,
        "a {window} s sample for a switch seen {slices} slices after the proposal"
    );
    assert!(
        window < 1.0,
        "the switch took {window} s: a ping tick re-attached the walker"
    );
}
