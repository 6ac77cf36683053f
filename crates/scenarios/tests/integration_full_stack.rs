//! Full-stack tests: the real PeerHood middleware populates the E15
//! metropolis and an authenticated city, on every `cargo test`. Debug builds
//! run E15 at 300 nodes for 80 s (`claims.rs` checks its *Paper:* line
//! there); CI runs the 2k-node quick variant through the release `repro`
//! binary.

use std::rc::Rc;

use peerhood::config::SecurityConfig;
use peerhood::resilience::{ResilienceConfig, ResilienceStats};
use peerhood::security::SecurityStats;
use scenarios::experiments::city::wlan_world;
use scenarios::experiments::full_stack::{metro_configs, FullStackHost};
use scenarios::experiments::{find, Params};
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
