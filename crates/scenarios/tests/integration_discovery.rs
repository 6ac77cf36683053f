//! Cross-crate integration tests: dynamic device discovery (Ch. 3).

use peerhood::node::PeerHoodNode;
use peerhood::prelude::*;
use scenarios::topology::{experiment_config, line_positions, spawn_relay};
use simnet::prelude::*;

#[test]
fn dynamic_discovery_gives_total_awareness_on_a_line() {
    // Five relays in a line, each only in range of its neighbours: every node
    // must still learn about every other node through neighbourhood reports.
    let mut world = World::new(WorldConfig::ideal(101));
    let ids: Vec<NodeId> = line_positions(5, 8.0)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            spawn_relay(
                &mut world,
                experiment_config(format!("n{i}"), MobilityClass::Static, DiscoveryMode::Dynamic),
                p,
            )
        })
        .collect();
    world.run_for(SimDuration::from_secs(240));
    for id in &ids {
        let stats = world
            .with_agent::<PeerHoodNode, _>(*id, |n, _| n.storage_stats())
            .unwrap();
        assert_eq!(stats.known_devices, 4, "node {id} should know the whole line");
    }
    // The end node reaches the other end through several jumps.
    let far_addr = DeviceAddress::from_node(ids[4]);
    let route = world
        .with_agent::<PeerHoodNode, _>(ids[0], |n, _| {
            n.known_devices()
                .into_iter()
                .find(|d| d.info.address == far_addr)
                .map(|d| d.route.jumps)
        })
        .unwrap();
    assert_eq!(route, Some(3));
}

#[test]
fn direct_only_mode_is_limited_to_radio_coverage() {
    let mut world = World::new(WorldConfig::ideal(102));
    let ids: Vec<NodeId> = line_positions(4, 8.0)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            spawn_relay(
                &mut world,
                experiment_config(format!("n{i}"), MobilityClass::Static, DiscoveryMode::DirectOnly),
                p,
            )
        })
        .collect();
    world.run_for(SimDuration::from_secs(180));
    let known = world
        .with_agent::<PeerHoodNode, _>(ids[0], |n, _| n.storage_stats().known_devices)
        .unwrap();
    assert_eq!(known, 1, "an end node only sees its single direct neighbour");
}
