//! World-level tests of the adversary subsystem: partition windows (link
//! breaks, discovery suppression, delivery loss, heal) and Byzantine
//! tamper/inject behaviour through a test forge.

use std::cell::RefCell;
use std::rc::Rc;

use super::*;
use crate::adversary::{AdversaryPlan, FrameForge};
use crate::agent::{Agent, OnWorld};
use crate::node::{ConnectError, DisconnectReason, IncomingConnection, InquiryHit};

#[derive(Default)]
struct Probe {
    inquiry_hits: Vec<Vec<NodeId>>,
    connected: Vec<(LinkId, NodeId)>,
    failed: Vec<ConnectError>,
    messages: Vec<Vec<u8>>,
    disconnects: Vec<(NodeId, DisconnectReason)>,
}

impl Agent for Probe {
    fn on_inquiry_complete<C: Ctx>(&mut self, _ctx: &mut C, _tech: RadioTech, hits: Vec<InquiryHit>) {
        self.inquiry_hits.push(hits.into_iter().map(|h| h.node).collect());
    }
    fn on_incoming_connection<C: Ctx>(&mut self, _ctx: &mut C, _incoming: IncomingConnection) -> bool {
        true
    }
    fn on_connected<C: Ctx>(
        &mut self,
        _ctx: &mut C,
        _attempt: AttemptId,
        link: LinkId,
        peer: NodeId,
        _tech: RadioTech,
    ) {
        self.connected.push((link, peer));
    }
    fn on_connect_failed<C: Ctx>(
        &mut self,
        _ctx: &mut C,
        _attempt: AttemptId,
        _peer: NodeId,
        _tech: RadioTech,
        error: ConnectError,
    ) {
        self.failed.push(error);
    }
    fn on_message<C: Ctx>(&mut self, _ctx: &mut C, _link: LinkId, _from: NodeId, payload: Payload) {
        self.messages.push(payload.to_vec());
    }
    fn on_disconnected<C: Ctx>(&mut self, _ctx: &mut C, _link: LinkId, peer: NodeId, reason: DisconnectReason) {
        self.disconnects.push((peer, reason));
    }
}

fn bt() -> [RadioTech; 1] {
    [RadioTech::Bluetooth]
}

fn add_probe(w: &mut World, name: &str, x: f64) -> NodeId {
    w.add_node(
        name,
        MobilityModel::stationary(Point::new(x, 0.0)),
        &bt(),
        Box::new(OnWorld(Probe::default())),
    )
}

fn connect_pair(w: &mut World, a: NodeId, b: NodeId) -> LinkId {
    w.with_agent::<Probe, _>(a, |_, ctx| {
        ctx.connect(b, RadioTech::Bluetooth);
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(5));
    w.with_agent::<Probe, _>(a, |p, _| p.connected.last().map(|(l, _)| *l))
        .unwrap()
        .expect("pair must connect")
}

#[test]
fn partition_opening_breaks_links_across_the_cut_as_out_of_range() {
    let mut w = World::new(WorldConfig::ideal(3));
    let a = add_probe(&mut w, "a", 0.0);
    let b = add_probe(&mut w, "b", 5.0);
    let c = add_probe(&mut w, "c", 8.0);
    w.run_for(SimDuration::from_secs(1));
    let cut_link = connect_pair(&mut w, a, b);
    let safe_link = connect_pair(&mut w, b, c);
    w.install_adversary_plan(AdversaryPlan::new().partition(SimTime::from_secs(30), SimTime::from_secs(60), [a]));
    w.run_for(SimDuration::from_secs(40));
    assert!(
        !w.link_info(cut_link).is_some_and(|i| i.open),
        "link across the cut breaks"
    );
    assert!(w.link_info(safe_link).unwrap().open, "same-side link survives");
    w.with_agent::<Probe, _>(a, |p, _| {
        assert_eq!(p.disconnects, vec![(b, DisconnectReason::OutOfRange)]);
    })
    .unwrap();
    let stats = w.adversary_stats();
    assert_eq!(stats.partitions_started, 1);
    assert_eq!(stats.cut_links_broken, 1);
    assert_eq!(stats.partitions_healed, 0, "window still open at t=41");
    assert!(w.partitioned(a, c));
    assert!(!w.partitioned(b, c));
}

/// Accepts every link and writes each `on_disconnected` it hears into a log
/// all the nodes share, so the log is the order the world called them in.
struct DisconnectLog(Rc<RefCell<Vec<(NodeId, LinkId)>>>);

impl Agent for DisconnectLog {
    fn on_incoming_connection<C: Ctx>(&mut self, _ctx: &mut C, _incoming: IncomingConnection) -> bool {
        true
    }
    fn on_disconnected<C: Ctx>(&mut self, ctx: &mut C, link: LinkId, _peer: NodeId, _reason: DisconnectReason) {
        self.0.borrow_mut().push((ctx.node_id(), link));
    }
}

#[test]
fn a_partition_breaks_links_in_ascending_id_order() {
    // 8 × 8 links across the cut plus 8 inside the island, dialled all at
    // once in a shuffled order from either side: ids follow the random setup
    // latencies, and the table's hash order follows neither.
    let mut w = World::new(WorldConfig::ideal(27));
    let log = Rc::new(RefCell::new(Vec::new()));
    let add = |w: &mut World, name: String, x: f64, y: f64| {
        let at = MobilityModel::stationary(Point::new(x, y));
        w.add_node(name, at, &bt(), Box::new(OnWorld(DisconnectLog(log.clone()))))
    };
    let island: Vec<NodeId> = (0..8)
        .map(|i| add(&mut w, format!("a{i}"), i as f64 * 0.5, 0.0))
        .collect();
    let mainland: Vec<NodeId> = (0..8)
        .map(|i| add(&mut w, format!("b{i}"), i as f64 * 0.5, 1.0))
        .collect();
    let mut dials: Vec<(NodeId, NodeId)> = island
        .iter()
        .flat_map(|&a| mainland.iter().map(move |&b| (a, b)))
        .chain(island.iter().zip(island.iter().cycle().skip(1)).map(|(&a, &b)| (a, b)))
        .collect();
    let mut rng = SimRng::new(0xC07);
    rng.shuffle(&mut dials);
    for (n, (a, b)) in dials.into_iter().enumerate() {
        let (from, to) = if n % 2 == 0 { (a, b) } else { (b, a) };
        w.with_agent::<DisconnectLog, _>(from, |_, ctx| {
            ctx.connect(to, RadioTech::Bluetooth);
        })
        .expect("a live node");
    }
    w.run_for(SimDuration::from_secs(5));
    assert_eq!(w.active_link_count(), 72, "every dial connects");
    for &node in island.iter().chain(&mainland) {
        let ids: Vec<LinkId> = w.links_of(node).iter().map(|l| l.id).collect();
        assert!(
            ids.windows(2).all(|p| p[0] < p[1]),
            "{node}: links_of ascending: {ids:?}"
        );
    }

    w.install_adversary_plan(AdversaryPlan::new().partition(
        SimTime::from_secs(10),
        SimTime::from_secs(60),
        island.clone(),
    ));
    w.run_until(SimTime::from_secs(11));
    assert_eq!(w.adversary_stats().cut_links_broken, 64);
    assert_eq!(w.active_link_count(), 8, "the island's own links survive");
    let heard = log.borrow();
    assert_eq!(heard.len(), 128, "both ends of every cut link hear it");
    let order: Vec<LinkId> = heard.iter().map(|&(_, link)| link).collect();
    assert!(
        order.chunks(2).all(|ends| ends[0] == ends[1]) && order.windows(2).all(|p| p[0] <= p[1]),
        "each cut link is heard by both ends, ascending by link id: {order:?}"
    );
    for &node in island.iter().chain(&mainland) {
        let mine: Vec<LinkId> = heard.iter().filter(|&&(n, _)| n == node).map(|&(_, l)| l).collect();
        assert_eq!(mine.len(), 8, "{node}");
        assert!(mine.windows(2).all(|p| p[0] < p[1]), "{node} hears ascending: {mine:?}");
    }
}

#[test]
fn partition_suppresses_discovery_connects_and_delivery_until_heal() {
    let mut w = World::new(WorldConfig::ideal(4));
    let a = add_probe(&mut w, "a", 0.0);
    let b = add_probe(&mut w, "b", 5.0);
    w.run_for(SimDuration::from_secs(1));
    w.install_adversary_plan(AdversaryPlan::new().partition(SimTime::from_secs(10), SimTime::from_secs(100), [a]));
    w.run_for(SimDuration::from_secs(20));

    // Discovery: the peer beyond the cut is invisible, both on the grid
    // path and in the ground-truth oracle.
    assert!(w.neighbors_in_range(a, RadioTech::Bluetooth).is_empty());
    assert!(w.neighbors_in_range_reference(a, RadioTech::Bluetooth).is_empty());
    w.with_agent::<Probe, _>(a, |_, ctx| ctx.start_inquiry(RadioTech::Bluetooth))
        .unwrap();
    w.run_for(SimDuration::from_secs(15));
    w.with_agent::<Probe, _>(a, |p, _| {
        assert_eq!(p.inquiry_hits.last().unwrap().len(), 0, "no hits across the cut");
    })
    .unwrap();

    // Connects fail as a downed link: the peer beyond the cut is in range.
    w.with_agent::<Probe, _>(a, |_, ctx| {
        ctx.connect(b, RadioTech::Bluetooth);
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(5));
    w.with_agent::<Probe, _>(a, |p, _| {
        assert_eq!(p.failed, vec![ConnectError::LinkDown]);
    })
    .unwrap();

    // After the heal the same connect succeeds and payloads flow again.
    w.run_until(SimTime::from_secs(110));
    let link = connect_pair(&mut w, a, b);
    w.with_agent::<Probe, _>(a, |_, ctx| {
        ctx.send(link, Payload::copy_from_slice(b"post-heal")).unwrap();
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(2));
    w.with_agent::<Probe, _>(b, |p, _| {
        assert_eq!(p.messages, vec![b"post-heal".to_vec()]);
    })
    .unwrap();
    let stats = w.adversary_stats();
    assert_eq!(stats.partitions_healed, 1);
}

#[test]
fn in_flight_payloads_are_lost_across_an_active_cut() {
    let mut w = World::new(WorldConfig::ideal(5));
    let a = add_probe(&mut w, "a", 0.0);
    let b = add_probe(&mut w, "b", 5.0);
    w.run_for(SimDuration::from_secs(1));
    let link = connect_pair(&mut w, a, b);
    // The window opens in the same instant the payload is in flight: the
    // link-break sweep fires first (scheduled at the window start), so use a
    // window that opens while the payload travels.
    w.install_adversary_plan(AdversaryPlan::new().partition(SimTime::from_secs(50), SimTime::from_secs(60), [a]));
    w.run_until(SimTime::from_secs(49));
    // A large payload whose transmission crosses the window start.
    w.with_agent::<Probe, _>(a, |_, ctx| {
        ctx.send(link, Payload::copy_from_slice(&vec![0u8; 400_000])).unwrap();
    })
    .unwrap();
    w.run_until(SimTime::from_secs(70));
    w.with_agent::<Probe, _>(b, |p, _| {
        assert!(p.messages.is_empty(), "payload died at the cut");
    })
    .unwrap();
    let stats = w.adversary_stats();
    assert!(stats.partition_drops >= 1 || stats.cut_links_broken >= 1);
    assert_eq!(w.metrics().global().messages_delivered, 0);
}

struct TestForge;

impl FrameForge for TestForge {
    fn tamper(&mut self, _attacker: NodeId, payload: &Payload, _rng: &mut SimRng) -> Option<Payload> {
        let mut bytes = payload.to_vec();
        bytes.iter_mut().for_each(|b| *b ^= 0xAA);
        Some(bytes.into())
    }
    fn forge(&mut self, _attacker: NodeId, _peer: NodeId, _sniffed: &[Payload], _rng: &mut SimRng) -> Option<Payload> {
        Some(Payload::copy_from_slice(b"forged"))
    }
}

#[test]
fn compromised_node_tampers_and_injects_on_its_links() {
    let mut w = World::new(WorldConfig::ideal(6));
    let honest = add_probe(&mut w, "honest", 0.0);
    let attacker = add_probe(&mut w, "attacker", 5.0);
    w.run_for(SimDuration::from_secs(1));
    let link = connect_pair(&mut w, honest, attacker);
    w.set_frame_forge(Box::new(TestForge));
    w.install_adversary_plan(AdversaryPlan::new().compromise(
        attacker,
        SimTime::from_secs(10),
        SimTime::from_secs(40),
        SimDuration::from_secs(5),
    ));
    w.run_until(SimTime::from_secs(20));
    // Frames the attacker sends inside its window arrive tampered.
    w.with_agent::<Probe, _>(attacker, |_, ctx| {
        ctx.send(link, Payload::copy_from_slice(&[0x00, 0xFF])).unwrap();
    })
    .unwrap();
    // Honest frames toward the attacker are sniffed but not modified.
    w.with_agent::<Probe, _>(honest, |_, ctx| {
        ctx.send(link, Payload::copy_from_slice(b"clean")).unwrap();
    })
    .unwrap();
    w.run_until(SimTime::from_secs(60));
    w.with_agent::<Probe, _>(honest, |p, _| {
        assert!(
            p.messages.contains(&vec![0xAA, 0x55]),
            "attacker's frame arrived tampered: {:?}",
            p.messages
        );
        assert!(
            p.messages.iter().filter(|m| m.as_slice() == b"forged").count() >= 2,
            "periodic injections arrived: {:?}",
            p.messages
        );
    })
    .unwrap();
    w.with_agent::<Probe, _>(attacker, |p, _| {
        assert_eq!(p.messages, vec![b"clean".to_vec()], "honest frames pass untouched");
    })
    .unwrap();
    let stats = w.adversary_stats();
    assert_eq!(stats.frames_tampered, 1);
    assert!(stats.frames_injected >= 2, "stats: {stats:?}");
}

#[test]
fn adversarial_run_is_seed_deterministic() {
    let run = || {
        let mut w = World::new(WorldConfig::ideal(99));
        let a = add_probe(&mut w, "a", 0.0);
        let b = add_probe(&mut w, "b", 5.0);
        w.run_for(SimDuration::from_secs(1));
        let link = connect_pair(&mut w, a, b);
        w.set_frame_forge(Box::new(TestForge));
        w.install_adversary_plan(
            AdversaryPlan::new()
                .compromise(
                    b,
                    SimTime::from_secs(10),
                    SimTime::from_secs(50),
                    SimDuration::from_secs(3),
                )
                .partition(SimTime::from_secs(60), SimTime::from_secs(70), [a]),
        );
        w.with_agent::<Probe, _>(a, |_, ctx| {
            ctx.send(link, Payload::copy_from_slice(b"x")).unwrap();
        })
        .unwrap();
        w.run_until(SimTime::from_secs(90));
        let msgs = w.with_agent::<Probe, _>(a, |p, _| p.messages.clone()).unwrap();
        (w.adversary_stats(), *w.metrics().global(), msgs)
    };
    assert_eq!(run(), run());
}
