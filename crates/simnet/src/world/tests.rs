use std::collections::VecDeque;

use super::*;
use crate::agent::{Agent, OnWorld};
use crate::node::{ConnectError, DisconnectReason, IncomingConnection, InquiryHit};

/// A minimal scriptable agent used to exercise the world mechanics.
#[derive(Default)]
struct Probe {
    started: bool,
    timers: Vec<TimerToken>,
    inquiry_results: Vec<(RadioTech, Vec<InquiryHit>)>,
    connected: Vec<(AttemptId, LinkId, NodeId)>,
    failed: Vec<(AttemptId, ConnectError)>,
    incoming: Vec<IncomingConnection>,
    accept_incoming: bool,
    messages: Vec<(LinkId, Vec<u8>)>,
    disconnects: Vec<(LinkId, DisconnectReason)>,
    disconnected_at: Vec<SimTime>,
    echo: bool,
}

impl Probe {
    fn accepting() -> Self {
        Probe {
            accept_incoming: true,
            ..Probe::default()
        }
    }
    fn echoing() -> Self {
        Probe {
            accept_incoming: true,
            echo: true,
            ..Probe::default()
        }
    }
}

impl Agent for Probe {
    fn on_start<C: Ctx>(&mut self, _ctx: &mut C) {
        self.started = true;
    }
    fn on_timer<C: Ctx>(&mut self, _ctx: &mut C, timer: TimerToken) {
        self.timers.push(timer);
    }
    fn on_inquiry_complete<C: Ctx>(&mut self, _ctx: &mut C, tech: RadioTech, hits: Vec<InquiryHit>) {
        self.inquiry_results.push((tech, hits));
    }
    fn on_incoming_connection<C: Ctx>(&mut self, _ctx: &mut C, incoming: IncomingConnection) -> bool {
        self.incoming.push(incoming);
        self.accept_incoming
    }
    fn on_connected<C: Ctx>(&mut self, _ctx: &mut C, attempt: AttemptId, link: LinkId, peer: NodeId, _tech: RadioTech) {
        self.connected.push((attempt, link, peer));
    }
    fn on_connect_failed<C: Ctx>(
        &mut self,
        _ctx: &mut C,
        attempt: AttemptId,
        _peer: NodeId,
        _tech: RadioTech,
        error: ConnectError,
    ) {
        self.failed.push((attempt, error));
    }
    fn on_message<C: Ctx>(&mut self, ctx: &mut C, link: LinkId, _from: NodeId, payload: Payload) {
        if self.echo {
            let mut reply = payload.to_vec();
            reply.reverse();
            let _ = ctx.send(link, reply.into());
        }
        self.messages.push((link, payload.to_vec()));
    }
    fn on_disconnected<C: Ctx>(&mut self, ctx: &mut C, link: LinkId, _peer: NodeId, reason: DisconnectReason) {
        self.disconnects.push((link, reason));
        self.disconnected_at.push(ctx.now());
    }
}

fn ideal_world(seed: u64) -> World {
    World::new(WorldConfig::ideal(seed))
}

fn bt() -> [RadioTech; 1] {
    [RadioTech::Bluetooth]
}

#[test]
fn start_and_timer_delivery() {
    let mut w = ideal_world(1);
    let a = w.add_node(
        "a",
        MobilityModel::stationary(Point::ORIGIN),
        &bt(),
        Box::new(OnWorld(Probe::default())),
    );
    w.run_for(SimDuration::from_millis(1));
    w.with_agent::<Probe, _>(a, |p, ctx| {
        assert!(p.started);
        ctx.schedule(SimDuration::from_secs(5), TimerToken(99));
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(4));
    w.with_agent::<Probe, _>(a, |p, _| assert!(p.timers.is_empty()))
        .unwrap();
    w.run_for(SimDuration::from_secs(2));
    w.with_agent::<Probe, _>(a, |p, _| assert_eq!(p.timers, vec![TimerToken(99)]))
        .unwrap();
}

#[test]
fn inquiry_finds_only_nodes_in_range() {
    let mut w = ideal_world(2);
    let a = w.add_node(
        "a",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::default())),
    );
    let b = w.add_node(
        "b",
        MobilityModel::stationary(Point::new(5.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::default())),
    );
    let _far = w.add_node(
        "far",
        MobilityModel::stationary(Point::new(100.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::default())),
    );
    w.run_for(SimDuration::from_millis(1));
    w.with_agent::<Probe, _>(a, |_, ctx| ctx.start_inquiry(RadioTech::Bluetooth))
        .unwrap();
    w.run_for(SimDuration::from_secs(15));
    w.with_agent::<Probe, _>(a, |p, _| {
        assert_eq!(p.inquiry_results.len(), 1);
        let hits = &p.inquiry_results[0].1;
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].node, b);
        assert!(hits[0].quality > 200);
    })
    .unwrap();
    assert_eq!(w.metrics().global().inquiries_started, 1);
    assert_eq!(w.metrics().global().inquiry_hits, 1);
}

#[test]
fn undiscoverable_nodes_are_not_found() {
    let mut w = ideal_world(3);
    let a = w.add_node(
        "a",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::default())),
    );
    let b = w.add_node(
        "b",
        MobilityModel::stationary(Point::new(3.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::default())),
    );
    w.run_for(SimDuration::from_millis(1));
    w.with_agent::<Probe, _>(b, |_, ctx| ctx.set_discoverable(RadioTech::Bluetooth, false))
        .unwrap();
    w.with_agent::<Probe, _>(a, |_, ctx| ctx.start_inquiry(RadioTech::Bluetooth))
        .unwrap();
    w.run_for(SimDuration::from_secs(15));
    w.with_agent::<Probe, _>(a, |p, _| {
        assert!(p.inquiry_results[0].1.is_empty());
    })
    .unwrap();
}

#[test]
fn connect_send_and_receive() {
    let mut w = ideal_world(4);
    let a = w.add_node(
        "a",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::default())),
    );
    let b = w.add_node(
        "b",
        MobilityModel::stationary(Point::new(4.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::echoing())),
    );
    w.run_for(SimDuration::from_millis(1));
    w.with_agent::<Probe, _>(a, |_, ctx| {
        ctx.connect(b, RadioTech::Bluetooth);
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(2));
    let link = w
        .with_agent::<Probe, _>(a, |p, _| {
            assert_eq!(p.connected.len(), 1);
            p.connected[0].1
        })
        .unwrap();
    w.with_agent::<Probe, _>(a, |_, ctx| {
        ctx.send(link, b"hello".into()).unwrap();
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(2));
    w.with_agent::<Probe, _>(b, |p, _| {
        assert_eq!(p.messages.len(), 1);
        assert_eq!(p.messages[0].1, b"hello".to_vec());
    })
    .unwrap();
    // The echoing agent reversed the payload back to a.
    w.with_agent::<Probe, _>(a, |p, _| {
        assert_eq!(p.messages.len(), 1);
        assert_eq!(p.messages[0].1, b"olleh".to_vec());
    })
    .unwrap();
    assert_eq!(w.metrics().global().connects_established, 1);
    assert_eq!(w.metrics().global().messages_delivered, 2);
}

#[test]
fn rejected_connection_reports_failure() {
    let mut w = ideal_world(5);
    let a = w.add_node(
        "a",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::default())),
    );
    let b = w.add_node(
        "b",
        MobilityModel::stationary(Point::new(4.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::default())), // does not accept
    );
    w.run_for(SimDuration::from_millis(1));
    w.with_agent::<Probe, _>(a, |_, ctx| {
        ctx.connect(b, RadioTech::Bluetooth);
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(2));
    w.with_agent::<Probe, _>(a, |p, _| {
        assert_eq!(p.failed.len(), 1);
        assert_eq!(p.failed[0].1, ConnectError::Rejected);
    })
    .unwrap();
    assert_eq!(w.metrics().global().connect_failures, 1);
}

#[test]
fn out_of_range_connection_fails() {
    let mut w = ideal_world(6);
    let a = w.add_node(
        "a",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::default())),
    );
    let b = w.add_node(
        "b",
        MobilityModel::stationary(Point::new(500.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::accepting())),
    );
    w.run_for(SimDuration::from_millis(1));
    w.with_agent::<Probe, _>(a, |_, ctx| {
        ctx.connect(b, RadioTech::Bluetooth);
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(2));
    w.with_agent::<Probe, _>(a, |p, _| {
        assert_eq!(p.failed[0].1, ConnectError::OutOfRange);
    })
    .unwrap();
}

#[test]
fn mobility_breaks_links_and_loses_in_flight_messages() {
    let mut w = ideal_world(7);
    let a = w.add_node(
        "a",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::default())),
    );
    // b walks away at 2 m/s immediately; after ~5 s it is out of the 10 m
    // Bluetooth range.
    let b = w.add_node(
        "b",
        MobilityModel::walk(Point::new(1.0, 0.0), Point::new(200.0, 0.0), 2.0),
        &bt(),
        Box::new(OnWorld(Probe::accepting())),
    );
    w.run_for(SimDuration::from_millis(1));
    w.with_agent::<Probe, _>(a, |_, ctx| {
        ctx.connect(b, RadioTech::Bluetooth);
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(1));
    let link = w
        .with_agent::<Probe, _>(a, |p, _| p.connected.first().map(|c| c.1))
        .unwrap()
        .expect("link established before b left range");
    w.run_for(SimDuration::from_secs(30));
    w.with_agent::<Probe, _>(a, |p, _| {
        assert_eq!(p.disconnects.len(), 1);
        assert_eq!(p.disconnects[0], (link, DisconnectReason::OutOfRange));
    })
    .unwrap();
    assert!(w.metrics().global().links_broken >= 2);
    // Sending on the now-closed link is an error.
    let err = w
        .with_agent::<Probe, _>(a, |_, ctx| ctx.send(link, vec![1, 2, 3].into()))
        .unwrap();
    assert_eq!(err, Err(SendError::Closed));
}

#[test]
fn graceful_close_notifies_peer() {
    let mut w = ideal_world(8);
    let a = w.add_node(
        "a",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::default())),
    );
    let b = w.add_node(
        "b",
        MobilityModel::stationary(Point::new(2.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::accepting())),
    );
    w.run_for(SimDuration::from_millis(1));
    w.with_agent::<Probe, _>(a, |_, ctx| {
        ctx.connect(b, RadioTech::Bluetooth);
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(1));
    let link = w.with_agent::<Probe, _>(a, |p, _| p.connected[0].1).unwrap();
    w.with_agent::<Probe, _>(a, |_, ctx| ctx.close(link)).unwrap();
    w.run_for(SimDuration::from_secs(1));
    w.with_agent::<Probe, _>(b, |p, _| {
        assert_eq!(p.disconnects, vec![(link, DisconnectReason::PeerClosed)]);
    })
    .unwrap();
}

#[test]
fn crash_node_fails_links() {
    let mut w = ideal_world(9);
    let a = w.add_node(
        "a",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::default())),
    );
    let b = w.add_node(
        "b",
        MobilityModel::stationary(Point::new(2.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::accepting())),
    );
    w.run_for(SimDuration::from_millis(1));
    w.with_agent::<Probe, _>(a, |_, ctx| {
        ctx.connect(b, RadioTech::Bluetooth);
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(1));
    let link = w.with_agent::<Probe, _>(a, |p, _| p.connected[0].1).unwrap();
    w.crash_node(b);
    w.with_agent::<Probe, _>(a, |p, _| {
        assert_eq!(p.disconnects, vec![(link, DisconnectReason::PeerFailed)]);
    })
    .unwrap();
    assert!(!w.is_alive(b));
    // The dead node can no longer be driven.
    assert!(w.with_agent::<Probe, _>(b, |_, _| ()).is_none());
}

#[test]
fn quality_override_decays_and_breaks_link() {
    let mut w = ideal_world(10);
    let a = w.add_node(
        "a",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::default())),
    );
    let b = w.add_node(
        "b",
        MobilityModel::stationary(Point::new(2.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::accepting())),
    );
    w.run_for(SimDuration::from_millis(1));
    w.with_agent::<Probe, _>(a, |_, ctx| {
        ctx.connect(b, RadioTech::Bluetooth);
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(1));
    let link = w.with_agent::<Probe, _>(a, |p, _| p.connected[0].1).unwrap();
    // Start at 240 and decay 10 units per second: below 230 after 1 s,
    // zero (and therefore broken) after 24 s.
    w.set_link_quality_override(link, 240.0, 10.0);
    assert_eq!(w.link_quality(link), Some(240));
    w.run_for(SimDuration::from_secs(2));
    let q = w.link_quality(link).unwrap();
    assert!(q < 230, "quality should have decayed below threshold, got {q}");
    w.run_for(SimDuration::from_secs(30));
    w.with_agent::<Probe, _>(a, |p, _| {
        assert_eq!(p.disconnects.len(), 1);
    })
    .unwrap();
    assert_eq!(w.link_quality(link), None);
}

#[test]
fn gprs_dead_zone_blocks_connection() {
    let mut config = WorldConfig::ideal(11);
    config.gprs_dead_zones = vec![Rect::new(-5.0, -5.0, 5.0, 5.0)];
    let mut w = World::new(config);
    let inside = w.add_node(
        "inside",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &[RadioTech::Gprs],
        Box::new(OnWorld(Probe::default())),
    );
    let outside = w.add_node(
        "outside",
        MobilityModel::stationary(Point::new(100.0, 0.0)),
        &[RadioTech::Gprs],
        Box::new(OnWorld(Probe::accepting())),
    );
    w.run_for(SimDuration::from_millis(1));
    assert!(!w.in_range(inside, outside, RadioTech::Gprs));
    w.with_agent::<Probe, _>(inside, |_, ctx| {
        ctx.connect(outside, RadioTech::Gprs);
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(5));
    w.with_agent::<Probe, _>(inside, |p, _| {
        assert_eq!(p.failed[0].1, ConnectError::OutOfRange);
    })
    .unwrap();
    // Two nodes both outside the dead zone can talk regardless of distance.
    let far = w.add_node(
        "far",
        MobilityModel::stationary(Point::new(5000.0, 0.0)),
        &[RadioTech::Gprs],
        Box::new(OnWorld(Probe::accepting())),
    );
    w.run_for(SimDuration::from_millis(1));
    assert!(w.in_range(outside, far, RadioTech::Gprs));
}

#[test]
fn determinism_same_seed_same_outcome() {
    fn run(seed: u64) -> (u64, u64, VecDeque<u64>) {
        let mut w = World::new(WorldConfig::with_seed(seed));
        let a = w.add_node(
            "a",
            MobilityModel::stationary(Point::new(0.0, 0.0)),
            &bt(),
            Box::new(OnWorld(Probe::default())),
        );
        let b = w.add_node(
            "b",
            MobilityModel::stationary(Point::new(6.0, 0.0)),
            &bt(),
            Box::new(OnWorld(Probe::accepting())),
        );
        w.run_for(SimDuration::from_millis(1));
        for _ in 0..10 {
            w.with_agent::<Probe, _>(a, |_, ctx| {
                ctx.connect(b, RadioTech::Bluetooth);
                ctx.start_inquiry(RadioTech::Bluetooth);
            })
            .unwrap();
            w.run_for(SimDuration::from_secs(20));
        }
        let qualities: VecDeque<u64> = w
            .with_agent::<Probe, _>(a, |p, _| {
                p.inquiry_results
                    .iter()
                    .flat_map(|(_, hits)| hits.iter().map(|h| h.quality as u64))
                    .collect()
            })
            .unwrap();
        (
            w.metrics().global().connects_established,
            w.metrics().global().connect_failures,
            qualities,
        )
    }
    assert_eq!(run(1234), run(1234));
    // Different seeds should usually differ in at least the sampled qualities.
    let a = run(1);
    let b = run(2);
    assert!(a.2 != b.2 || a.0 != b.0 || a.1 != b.1);
}

#[test]
fn world_accessors() {
    let mut w = ideal_world(12);
    let a = w.add_node(
        "alpha",
        MobilityModel::stationary(Point::new(1.0, 2.0)),
        &bt(),
        Box::new(OnWorld(Probe::default())),
    );
    assert_eq!(w.node_count(), 1);
    assert_eq!(w.node_name(a), Some("alpha"));
    assert_eq!(w.position_of(a), Some(Point::new(1.0, 2.0)));
    assert_eq!(w.node_ids().collect::<Vec<_>>(), vec![a]);
    assert!(w.links_of(a).is_empty());
    assert!(w.link_info(LinkId(0)).is_none());
    assert_eq!(w.now(), SimTime::ZERO);
    w.run_until(SimTime::from_secs(10));
    assert_eq!(w.now(), SimTime::from_secs(10));
}

#[test]
fn grid_cell_defaults_to_smallest_finite_range() {
    let w = ideal_world(13);
    // Bluetooth's 10 m is the smallest finite range in the default set.
    assert_eq!(w.grid_cell_m(), 10.0);
    let mut config = WorldConfig::ideal(13);
    config.grid_cell_m = Some(25.0);
    let w = World::new(config);
    assert_eq!(w.grid_cell_m(), 25.0);
}

#[test]
fn neighbors_grid_matches_reference_under_mobility() {
    let mut w = ideal_world(14);
    let mut rng = SimRng::new(99);
    let area = Rect::square(120.0);
    for i in 0..60 {
        let start = Point::new(rng.uniform_f64(0.0, 120.0), rng.uniform_f64(0.0, 120.0));
        let mobility = if i % 3 == 0 {
            MobilityModel::stationary(start)
        } else {
            MobilityModel::RandomWaypoint {
                area,
                start,
                min_speed_mps: 0.5,
                max_speed_mps: 2.5,
                pause: SimDuration::from_secs(3),
            }
        };
        w.add_node(format!("n{i}"), mobility, &bt(), Box::new(OnWorld(Probe::default())));
    }
    for step in 0..20 {
        w.run_for(SimDuration::from_secs(7));
        for node in w.node_ids().collect::<Vec<_>>() {
            let grid = w.neighbors_in_range(node, RadioTech::Bluetooth);
            let reference = w.neighbors_in_range_reference(node, RadioTech::Bluetooth);
            assert_eq!(grid, reference, "grid/reference diverged for {node} at step {step}");
        }
    }
}

#[test]
fn closed_links_retire_once_drained_but_stay_visible() {
    let (mut w, a, b, link) = connected_pair(15);
    assert_eq!(w.active_link_count(), 1);
    // Close with a payload still in flight: the payload must flush first.
    w.with_agent::<Probe, _>(a, |_, ctx| {
        ctx.send(link, b"flush me".into()).unwrap();
        ctx.close(link);
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(2));
    w.with_agent::<Probe, _>(b, |p, _| {
        assert_eq!(p.messages.len(), 1, "in-flight payload flushed before close");
        assert_eq!(p.disconnects, vec![(link, DisconnectReason::PeerClosed)]);
    })
    .unwrap();
    // Closed and drained, the link has left the table and the node index;
    // only `send` still knows the id was once handed out.
    assert_eq!(w.active_link_count(), 0);
    assert_eq!(w.link_info(link), None);
    assert!(w.links_of(a).is_empty());
    assert!(w.links_of(b).is_empty());
    let err = w
        .with_agent::<Probe, _>(a, |_, ctx| ctx.send(link, vec![1].into()))
        .unwrap();
    assert_eq!(err, Err(SendError::Closed), "a dropped link still classifies as closed");
    assert_eq!(w.link_quality(link), None);
}

#[test]
fn physically_broken_links_retire_after_loss() {
    let mut w = ideal_world(16);
    let a = w.add_node(
        "a",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::default())),
    );
    let b = w.add_node(
        "b",
        MobilityModel::walk(Point::new(1.0, 0.0), Point::new(300.0, 0.0), 4.0),
        &bt(),
        Box::new(OnWorld(Probe::accepting())),
    );
    w.run_for(SimDuration::from_millis(1));
    w.with_agent::<Probe, _>(a, |_, ctx| {
        ctx.connect(b, RadioTech::Bluetooth);
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(1));
    assert_eq!(w.active_link_count(), 1);
    w.run_for(SimDuration::from_secs(60));
    // Out of range: the link broke, was never gracefully closed, and has
    // left the table; no stale entries churn it.
    assert_eq!(w.active_link_count(), 0);
    assert!(w.metrics().global().links_broken >= 2);
}

/// Two stationary Bluetooth nodes 2 m apart with one established link
/// (initiated by `a`), on ideal radios.
fn connected_pair(seed: u64) -> (World, NodeId, NodeId, LinkId) {
    let mut w = ideal_world(seed);
    let a = w.add_node(
        "a",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::default())),
    );
    let b = w.add_node(
        "b",
        MobilityModel::stationary(Point::new(2.0, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::accepting())),
    );
    w.run_for(SimDuration::from_millis(1));
    w.with_agent::<Probe, _>(a, |_, ctx| {
        ctx.connect(b, RadioTech::Bluetooth);
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(1));
    let link = w.with_agent::<Probe, _>(a, |p, _| p.connected[0].1).unwrap();
    (w, a, b, link)
}

/// 70 kB takes 0.83 s over ideal Bluetooth; a one-byte payload 30 ms.
const SLOW_PAYLOAD_BYTES: usize = 70_000;

#[test]
fn close_waits_for_the_latest_delivery_not_the_last_send() {
    let (mut w, a, b, link) = connected_pair(18);
    w.with_agent::<Probe, _>(a, |_, ctx| {
        ctx.send(link, vec![0xAB; SLOW_PAYLOAD_BYTES].into()).unwrap();
        ctx.send(link, vec![1].into()).unwrap();
        ctx.close(link);
    })
    .unwrap();
    // The small payload sent second has landed; the big one is still on the
    // air, so the close must not have reached the peer yet.
    w.run_for(SimDuration::from_millis(400));
    w.with_agent::<Probe, _>(b, |p, _| {
        assert_eq!(p.messages, vec![(link, vec![1])]);
        assert!(p.disconnects.is_empty(), "the close overtook a payload sent before it");
    })
    .unwrap();
    assert!(w.link_info(link).is_some_and(|i| i.open));
    w.run_for(SimDuration::from_secs(1));
    w.with_agent::<Probe, _>(b, |p, _| {
        assert_eq!(p.messages.len(), 2);
        assert_eq!(p.messages[1].1.len(), SLOW_PAYLOAD_BYTES);
        assert_eq!(p.disconnects, vec![(link, DisconnectReason::PeerClosed)]);
    })
    .unwrap();
    assert_eq!(w.active_link_count(), 0);
}

#[test]
fn broken_link_stays_in_the_table_until_its_last_payload_is_lost() {
    let (mut w, a, b, link) = connected_pair(19);
    w.with_agent::<Probe, _>(a, |_, ctx| ctx.send(link, vec![0; SLOW_PAYLOAD_BYTES].into()))
        .unwrap()
        .unwrap();
    w.run_for(SimDuration::from_millis(100));
    w.crash_node(b);
    // Broken, but a payload is still travelling: the link is visible as
    // closed, in the table and under its surviving endpoint.
    assert_eq!(w.active_link_count(), 1);
    assert_eq!(w.open_link_count(), 0);
    assert!(w.link_info(link).is_some_and(|i| !i.open));
    assert_eq!(w.links_of(a).len(), 1);
    assert_eq!(w.metrics().global().messages_lost, 0);
    w.run_for(SimDuration::from_secs(1));
    // Its `Deliver` event ran: the payload is lost and the link is gone.
    assert_eq!(w.metrics().global().messages_lost, 1);
    assert_eq!(w.metrics().global().messages_delivered, 0);
    assert_eq!(w.active_link_count(), 0);
    assert_eq!(w.link_info(link), None);
    assert!(w.links_of(a).is_empty());
}

#[test]
fn send_tells_a_dropped_link_from_an_id_never_handed_out() {
    let (mut w, a, b, link) = connected_pair(20);
    w.crash_node(b);
    assert_eq!(w.link_info(link), None, "nothing in flight: dropped at once");
    let (dropped, unknown) = w
        .with_agent::<Probe, _>(a, |_, ctx| {
            (
                ctx.send(link, vec![1].into()),
                ctx.send(LinkId(link.0 + 1), vec![1].into()),
            )
        })
        .unwrap();
    assert_eq!(dropped, Err(SendError::Closed));
    assert_eq!(unknown, Err(SendError::UnknownLink));
}

/// Where per-interval polling (the parent of the range-exit scheduling)
/// broke the link of `a_walker_leaves_its_fixed_peer_at_the_instant_polling_found`:
/// the first instant of the link's 500 ms grid at which the pair is more than
/// 10 m apart.
const WALKER_BREAK_IDEAL: SimTime = SimTime::from_micros(4_513_113);
const WALKER_BREAK_SEEDED: SimTime = SimTime::from_micros(4_586_012);

#[test]
fn a_walker_leaves_its_fixed_peer_at_the_instant_polling_found() {
    // b walks away from a at 2 m/s from 1 m out: 10 m apart after 4.5 s.
    let run = |config: WorldConfig| {
        let mut w = World::new(config);
        w.enable_profiling();
        let a = w.add_node(
            "a",
            MobilityModel::stationary(Point::ORIGIN),
            &bt(),
            Box::new(OnWorld(Probe::default())),
        );
        let walk = MobilityModel::walk(Point::new(1.0, 0.0), Point::new(200.0, 0.0), 2.0);
        let b = w.add_node("b", walk, &bt(), Box::new(OnWorld(Probe::accepting())));
        w.run_for(SimDuration::from_millis(1));
        w.with_agent::<Probe, _>(a, |_, ctx| {
            ctx.connect(b, RadioTech::Bluetooth);
        })
        .unwrap();
        w.run_for(SimDuration::from_secs(30));
        let seen = |w: &mut World, node| {
            w.with_agent::<Probe, _>(node, |p, _| (p.disconnects.clone(), p.disconnected_at.clone()))
                .unwrap()
        };
        let (at_a, at_b) = (seen(&mut w, a), seen(&mut w, b));
        assert_eq!(at_a, at_b, "both ends see the one break");
        assert_eq!(at_a.0.len(), 1);
        assert_eq!(at_a.0[0].1, DisconnectReason::OutOfRange);
        (at_a.1[0], w.profiler().calls(Phase::LinkCheck))
    };
    // One look at the link, at the instant it breaks; polling took nine.
    assert_eq!(run(WorldConfig::ideal(7)), (WALKER_BREAK_IDEAL, 1));
    // Real radios: a sampled set-up latency puts the link on an odd grid.
    let mut seeded = WorldConfig::with_seed(7);
    seeded.radio.bluetooth.setup_fault_prob = 0.0;
    assert_eq!(run(seeded), (WALKER_BREAK_SEEDED, 1));
}

#[test]
fn a_walker_that_comes_back_between_two_polls_keeps_its_link() {
    // b steps out of a's range and back inside one 500 ms interval
    // (10 m/s, 9.5 m -> 11 m -> 9.5 m in 0.3 s from 1.1 s on, between the
    // polls at 1.013 s and 1.513 s): polling never saw it, and neither must the wake-up the
    // exit causes.
    let mut w = ideal_world(8);
    w.enable_profiling();
    let a = w.add_node(
        "a",
        MobilityModel::stationary(Point::ORIGIN),
        &bt(),
        Box::new(OnWorld(Probe::default())),
    );
    let dart = MobilityModel::Waypoints {
        points: vec![Point::new(9.5, 0.0), Point::new(11.0, 0.0), Point::new(9.5, 0.0)],
        speed_mps: 10.0,
        start_after: SimDuration::from_millis(1_100),
    };
    let b = w.add_node("b", dart, &bt(), Box::new(OnWorld(Probe::accepting())));
    w.run_for(SimDuration::from_millis(1));
    w.with_agent::<Probe, _>(a, |_, ctx| {
        ctx.connect(b, RadioTech::Bluetooth);
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(30));
    let link = w.with_agent::<Probe, _>(a, |p, _| p.connected[0].1).unwrap();
    assert!(w.link_info(link).unwrap().open);
    // Woken once, at the first poll after the exit; b is back and at rest.
    assert_eq!(w.profiler().calls(Phase::LinkCheck), 1);
}
