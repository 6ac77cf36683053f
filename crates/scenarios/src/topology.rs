//! Topology generators and node-spawning helpers for the experiments.
//!
//! Every experiment builds its world from the same small vocabulary the
//! thesis uses: fixed PCs/laptops, mobile phones, line-of-bridges corridors,
//! office-sized random fields and the tunnel of Fig. 6.1.

use peerhood::application::Application;
use peerhood::config::PeerHoodConfig;
use peerhood::gnutella::Topology;
use peerhood::node::PeerHoodNode;
use peerhood::prelude::*;
use simnet::prelude::*;

/// Spawns a PeerHood device running only the middleware (daemon, discovery,
/// bridge service) at a fixed position.
pub fn spawn_relay(world: &mut World, config: PeerHoodConfig, position: Point) -> NodeId {
    let techs = config.techs.clone();
    let name = config.device_name.clone();
    world.add_node(
        name,
        MobilityModel::stationary(position),
        &techs,
        Box::new(OnWorld(PeerHoodNode::relay(config))),
    )
}

/// Spawns a PeerHood device with an application and an arbitrary mobility
/// model.
pub fn spawn_app(
    world: &mut World,
    config: PeerHoodConfig,
    mobility: MobilityModel,
    app: Box<dyn Application>,
) -> NodeId {
    spawn_apps(world, config, mobility, vec![app])
}

/// Spawns a PeerHood device hosting several applications on one middleware
/// stack (the multi-application host).
pub fn spawn_apps(
    world: &mut World,
    config: PeerHoodConfig,
    mobility: MobilityModel,
    apps: Vec<Box<dyn Application>>,
) -> NodeId {
    let techs = config.techs.clone();
    let name = config.device_name.clone();
    let mut builder = PeerHoodNode::builder().config(config);
    for app in apps {
        builder = builder.app_boxed(app);
    }
    world.add_node(name, mobility, &techs, Box::new(OnWorld(builder.build())))
}

/// Runs a closure against the first application of type `T` hosted on a
/// node — the typed inspection helper experiments use instead of chaining
/// `n.app::<T>().unwrap()` downcasts through `with_agent`.
///
/// Returns `None` when the node is unknown, is not a [`PeerHoodNode`], or
/// hosts no application of type `T`.
pub fn with_app<T: Application, R>(world: &mut World, node: NodeId, f: impl FnOnce(&T) -> R) -> Option<R> {
    world
        .with_agent::<PeerHoodNode, _>(node, |n, _| n.with_app(f))
        .flatten()
}

/// Uniformly random positions inside a square area.
pub fn random_positions(count: usize, side_m: f64, seed: u64) -> Vec<Point> {
    let mut rng = SimRng::new(seed);
    (0..count)
        .map(|_| Point::new(rng.uniform_f64(0.0, side_m), rng.uniform_f64(0.0, side_m)))
        .collect()
}

/// Positions along a straight line with constant spacing, starting at the
/// origin.
pub fn line_positions(count: usize, spacing_m: f64) -> Vec<Point> {
    (0..count).map(|i| Point::new(i as f64 * spacing_m, 0.0)).collect()
}

/// Ground-truth connectivity graph of a set of positions for a radio range.
pub fn ground_truth(positions: &[Point], range_m: f64) -> Topology {
    let pairs: Vec<(f64, f64)> = positions.iter().map(|p| (p.x, p.y)).collect();
    Topology::from_positions(&pairs, range_m)
}

/// A PeerHood configuration suitable for batch experiments: the given
/// discovery mode, a short inquiry interval so runs converge quickly, and the
/// bridge service enabled.
pub fn experiment_config(name: impl Into<String>, mobility: MobilityClass, mode: DiscoveryMode) -> PeerHoodConfig {
    let mut cfg = PeerHoodConfig::new(name, mobility).with_discovery_mode(mode);
    cfg.discovery.inquiry_interval = SimDuration::from_secs(4);
    cfg
}

/// Fraction of the devices reachable from `origin` (multi-hop, ground truth)
/// that `known` actually contains. Returns 1.0 when nothing is reachable.
pub fn knowledge_fraction(truth: &Topology, origin: usize, known_count: usize) -> f64 {
    let reachable = truth.reachable_within(origin, usize::MAX).len() - 1;
    if reachable == 0 {
        1.0
    } else {
        (known_count.min(reachable)) as f64 / reachable as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_positions_are_evenly_spaced() {
        let p = line_positions(4, 8.0);
        assert_eq!(p.len(), 4);
        assert_eq!(p[0], Point::new(0.0, 0.0));
        assert_eq!(p[3], Point::new(24.0, 0.0));
    }

    #[test]
    fn random_positions_stay_in_area_and_are_deterministic() {
        let a = random_positions(50, 60.0, 9);
        let b = random_positions(50, 60.0, 9);
        assert_eq!(a, b);
        assert!(a.iter().all(|p| p.x >= 0.0 && p.x <= 60.0 && p.y >= 0.0 && p.y <= 60.0));
    }

    #[test]
    fn ground_truth_matches_range() {
        let t = ground_truth(&line_positions(3, 8.0), 10.0);
        assert_eq!(t.edge_count(), 2);
        assert_eq!(t.hop_distance(0, 2), Some(2));
    }

    #[test]
    fn knowledge_fraction_bounds() {
        let t = ground_truth(&line_positions(4, 8.0), 10.0);
        assert_eq!(knowledge_fraction(&t, 0, 3), 1.0);
        assert!((knowledge_fraction(&t, 0, 1) - 1.0 / 3.0).abs() < 1e-9);
        let isolated = ground_truth(&[Point::new(0.0, 0.0)], 10.0);
        assert_eq!(knowledge_fraction(&isolated, 0, 0), 1.0);
    }

    #[test]
    fn spawn_helpers_create_running_nodes() {
        let mut world = World::new(WorldConfig::ideal(5));
        let relay = spawn_relay(
            &mut world,
            experiment_config("pc", MobilityClass::Static, DiscoveryMode::Dynamic),
            Point::new(0.0, 0.0),
        );
        let phone = spawn_app(
            &mut world,
            experiment_config("phone", MobilityClass::Dynamic, DiscoveryMode::Dynamic),
            MobilityModel::stationary(Point::new(4.0, 0.0)),
            Box::new(IdleApplication),
        );
        world.run_for(SimDuration::from_secs(40));
        let known = world
            .with_agent::<PeerHoodNode, _>(phone, |n, _| n.storage_stats().known_devices)
            .unwrap();
        assert_eq!(known, 1);
        assert!(world.is_alive(relay));
    }
}
