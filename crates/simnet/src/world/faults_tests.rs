//! World-level tests of the fault-injection subsystem: crash/restart
//! lifecycle, epoch guards and radio outages.

use super::*;
use crate::agent::{Agent, OnWorld};
use crate::faults::{FaultPlan, LifecycleKind};
use crate::node::{ConnectError, DisconnectReason, IncomingConnection, InquiryHit};

/// A probe that records lives: how often it started, restarted, what it saw.
#[derive(Default)]
struct FaultProbe {
    starts: usize,
    restarts: usize,
    timers: Vec<TimerToken>,
    inquiry_hits: Vec<Vec<NodeId>>,
    connected: Vec<(LinkId, NodeId)>,
    failed: Vec<ConnectError>,
    messages: Vec<Vec<u8>>,
    disconnects: Vec<(NodeId, DisconnectReason)>,
}

impl Agent for FaultProbe {
    fn on_start<C: Ctx>(&mut self, _ctx: &mut C) {
        self.starts += 1;
    }
    fn on_restart<C: Ctx>(&mut self, ctx: &mut C) {
        self.restarts += 1;
        self.on_start(ctx);
    }
    fn on_timer<C: Ctx>(&mut self, _ctx: &mut C, timer: TimerToken) {
        self.timers.push(timer);
    }
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

fn probe_world(seed: u64) -> World {
    World::new(WorldConfig::ideal(seed))
}

fn add_probe(w: &mut World, name: &str, x: f64) -> NodeId {
    w.add_node(
        name,
        MobilityModel::stationary(Point::new(x, 0.0)),
        &bt(),
        Box::new(OnWorld(FaultProbe::default())),
    )
}

/// Connects `a` to `b` and returns the established link id.
fn connect_pair(w: &mut World, a: NodeId, b: NodeId) -> LinkId {
    w.with_agent::<FaultProbe, _>(a, |_, ctx| {
        ctx.connect(b, RadioTech::Bluetooth);
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(5));
    w.with_agent::<FaultProbe, _>(a, |p, _| p.connected.last().map(|(l, _)| *l))
        .unwrap()
        .expect("pair must connect")
}

#[test]
fn scheduled_crash_breaks_links_and_notifies_the_peer() {
    let mut w = probe_world(11);
    let a = add_probe(&mut w, "a", 0.0);
    let b = add_probe(&mut w, "b", 5.0);
    w.run_for(SimDuration::from_secs(1));
    let link = connect_pair(&mut w, a, b);
    w.install_fault_plan(b, FaultPlan::new().crash_at(SimTime::from_secs(30)));
    w.run_for(SimDuration::from_secs(60));
    assert!(!w.is_alive(b));
    assert!(!w.link_info(link).is_some_and(|i| i.open));
    w.with_agent::<FaultProbe, _>(a, |p, _| {
        assert_eq!(p.disconnects, vec![(b, DisconnectReason::PeerFailed)]);
    })
    .unwrap();
    // The crashed node's agent is unreachable while down.
    assert!(w.with_agent::<FaultProbe, _>(b, |_, _| ()).is_none());
    let stats = w.fault_stats();
    assert_eq!(stats.crashes, 1);
    assert_eq!(stats.restarts, 0);
    assert_eq!(
        w.lifecycle_events(),
        &[LifecycleEvent {
            at: SimTime::from_secs(30),
            node: b,
            kind: LifecycleKind::NodeDown,
        }]
    );
}

#[test]
fn restart_rebirths_the_agent_and_reenters_the_spatial_index() {
    let mut w = probe_world(12);
    let a = add_probe(&mut w, "a", 0.0);
    let b = add_probe(&mut w, "b", 5.0);
    w.install_fault_plan(
        b,
        FaultPlan::new().crash_for(SimTime::from_secs(10), SimDuration::from_secs(10)),
    );
    w.run_for(SimDuration::from_secs(15));
    assert!(!w.is_alive(b));
    assert!(w.neighbors_in_range(a, RadioTech::Bluetooth).is_empty());
    w.run_for(SimDuration::from_secs(10));
    assert!(w.is_alive(b));
    // Back in the grid: both the indexed path and the oracle see it.
    assert_eq!(w.neighbors_in_range(a, RadioTech::Bluetooth), vec![b]);
    assert_eq!(w.neighbors_in_range_reference(a, RadioTech::Bluetooth), vec![b]);
    w.with_agent::<FaultProbe, _>(b, |p, _| {
        assert_eq!(p.restarts, 1);
        assert_eq!(p.starts, 2, "the default on_restart runs on_start again");
    })
    .unwrap();
    let stats = w.fault_stats();
    assert_eq!((stats.crashes, stats.restarts), (1, 1));
    let kinds: Vec<LifecycleKind> = w.take_lifecycle_events().into_iter().map(|e| e.kind).collect();
    assert_eq!(kinds, vec![LifecycleKind::NodeDown, LifecycleKind::NodeUp]);
    assert!(w.lifecycle_events().is_empty(), "take drains the stream");
}

#[test]
fn timers_and_inquiries_from_a_previous_life_never_fire() {
    let mut w = probe_world(13);
    let a = add_probe(&mut w, "a", 0.0);
    let _b = add_probe(&mut w, "b", 5.0);
    w.run_for(SimDuration::from_secs(1));
    // Schedule a timer and start an inquiry, then crash before they land.
    w.with_agent::<FaultProbe, _>(a, |_, ctx| {
        ctx.schedule(SimDuration::from_secs(30), TimerToken(7));
        ctx.start_inquiry(RadioTech::Bluetooth);
    })
    .unwrap();
    w.crash_node(a);
    w.restart_node(a);
    w.run_for(SimDuration::from_secs(60));
    w.with_agent::<FaultProbe, _>(a, |p, ctx| {
        assert!(p.timers.is_empty(), "pre-crash timer leaked into the new life");
        assert!(p.inquiry_hits.is_empty(), "pre-crash inquiry leaked into the new life");
        // The new life schedules its own timer, which does fire.
        ctx.schedule(SimDuration::from_secs(5), TimerToken(8));
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(10));
    w.with_agent::<FaultProbe, _>(a, |p, _| assert_eq!(p.timers, vec![TimerToken(8)]))
        .unwrap();
}

#[test]
fn connect_attempts_from_a_previous_life_resolve_to_nothing() {
    let mut w = probe_world(14);
    let a = add_probe(&mut w, "a", 0.0);
    let b = add_probe(&mut w, "b", 5.0);
    w.run_for(SimDuration::from_secs(1));
    w.with_agent::<FaultProbe, _>(a, |_, ctx| {
        ctx.connect(b, RadioTech::Bluetooth);
    })
    .unwrap();
    // Crash and restart before the attempt resolves.
    w.crash_node(a);
    w.restart_node(a);
    w.run_for(SimDuration::from_secs(30));
    w.with_agent::<FaultProbe, _>(a, |p, _| {
        assert!(p.connected.is_empty(), "stale attempt must not connect the new life");
        assert!(p.failed.is_empty(), "stale attempt must not fail into the new life");
    })
    .unwrap();
}

#[test]
fn radio_outage_breaks_links_like_range_loss_and_hides_the_node() {
    let mut w = probe_world(15);
    let a = add_probe(&mut w, "a", 0.0);
    let b = add_probe(&mut w, "b", 5.0);
    w.run_for(SimDuration::from_secs(1));
    let link = connect_pair(&mut w, a, b);
    w.install_fault_plan(
        b,
        FaultPlan::new().radio_outage(RadioTech::Bluetooth, SimTime::from_secs(30), SimDuration::from_secs(30)),
    );
    w.run_for(SimDuration::from_secs(40));
    assert!(w.is_alive(b), "an outage is not a crash");
    assert!(!w.radio_enabled(b, RadioTech::Bluetooth));
    assert!(!w.link_info(link).is_some_and(|i| i.open));
    // Both endpoints see the break, with the range-loss reason.
    for node in [a, b] {
        w.with_agent::<FaultProbe, _>(node, |p, _| {
            assert_eq!(p.disconnects.len(), 1);
            assert_eq!(p.disconnects[0].1, DisconnectReason::OutOfRange);
        })
        .unwrap();
    }
    // Invisible to discovery and unreachable while dark.
    assert!(w.neighbors_in_range(a, RadioTech::Bluetooth).is_empty());
    w.with_agent::<FaultProbe, _>(a, |_, ctx| {
        ctx.connect(b, RadioTech::Bluetooth);
    })
    .unwrap();
    w.run_for(SimDuration::from_secs(5));
    w.with_agent::<FaultProbe, _>(a, |p, _| {
        assert_eq!(p.failed, vec![ConnectError::Unreachable]);
    })
    .unwrap();
    // After the outage the node is reachable again.
    w.run_for(SimDuration::from_secs(20));
    assert!(w.radio_enabled(b, RadioTech::Bluetooth));
    assert_eq!(w.neighbors_in_range(a, RadioTech::Bluetooth), vec![b]);
    let stats = w.fault_stats();
    assert_eq!((stats.radio_outages, stats.radio_restores), (1, 1));
}

#[test]
fn radio_outage_is_per_technology() {
    let mut w = probe_world(16);
    let techs = [RadioTech::Bluetooth, RadioTech::Wlan];
    let a = w.add_node(
        "a",
        MobilityModel::stationary(Point::new(0.0, 0.0)),
        &techs,
        Box::new(OnWorld(FaultProbe::default())),
    );
    let b = w.add_node(
        "b",
        MobilityModel::stationary(Point::new(5.0, 0.0)),
        &techs,
        Box::new(OnWorld(FaultProbe::default())),
    );
    w.run_for(SimDuration::from_secs(1));
    w.set_radio_enabled(b, RadioTech::Bluetooth, false);
    assert!(w.neighbors_in_range(a, RadioTech::Bluetooth).is_empty());
    assert_eq!(w.neighbors_in_range(a, RadioTech::Wlan), vec![b]);
    // Toggling a technology the node does not carry is a no-op.
    w.set_radio_enabled(b, RadioTech::Gprs, false);
    assert_eq!(w.fault_stats().radio_outages, 1);
}

#[test]
fn same_seed_and_plan_reproduce_the_same_fault_run() {
    let run = |seed: u64| {
        let mut w = probe_world(seed);
        let nodes: Vec<NodeId> = (0..8)
            .map(|i| add_probe(&mut w, &format!("n{i}"), i as f64 * 4.0))
            .collect();
        let planner = SimRng::new(seed ^ 0xC0FFEE);
        for (i, node) in nodes.iter().enumerate() {
            let mut rng = planner.derive(i as u64);
            let plan = FaultPlan::churn(
                SimTime::from_secs(300),
                SimDuration::from_secs(60),
                SimDuration::from_secs(10),
                &mut rng,
            );
            w.install_fault_plan(*node, plan);
        }
        // Every node keeps trying to talk to its right neighbour.
        for round in 0..30 {
            w.run_for(SimDuration::from_secs(10));
            for pair in nodes.windows(2) {
                let (from, to) = (pair[0], pair[1]);
                w.with_agent::<FaultProbe, _>(from, |p, ctx| {
                    if let Some((link, peer)) = p.connected.last().copied() {
                        if peer == to {
                            let _ = ctx.send(link, vec![round as u8; 16].into());
                            return;
                        }
                    }
                    ctx.connect(to, RadioTech::Bluetooth);
                });
            }
        }
        w.run_for(SimDuration::from_secs(10));
        (w.fault_stats(), *w.metrics().global(), w.lifecycle_events().len())
    };
    let first = run(77);
    let second = run(77);
    assert_eq!(first, second, "same seed + same plans must reproduce exactly");
    assert!(first.0.crashes > 0, "the churn plans must actually crash nodes");
    let other = run(78);
    assert_ne!(first, other, "different seeds should diverge");
}

#[test]
fn flapping_link_breaks_and_blocks_the_pair_periodically() {
    let mut w = probe_world(21);
    let a = add_probe(&mut w, "a", 0.0);
    let b = add_probe(&mut w, "b", 5.0);
    let c = add_probe(&mut w, "c", 9.0);
    w.run_for(SimDuration::from_secs(1));
    let flaky = connect_pair(&mut w, a, b);
    let clean = connect_pair(&mut w, a, c);
    // 10 s period, up only 40% of it: over two minutes the a-b link must
    // break repeatedly while a-c stays up throughout.
    w.install_fault_plan(a, FaultPlan::new().flapping_link(b, SimDuration::from_secs(10), 0.4));
    w.run_for(SimDuration::from_secs(120));
    assert!(
        !w.link_info(flaky).is_some_and(|i| i.open),
        "a 40% duty link cannot stay up"
    );
    assert!(w.link_info(clean).unwrap().open, "the untouched pair must survive");
    let (breaks, reasons_ok) = w
        .with_agent::<FaultProbe, _>(a, |p, _| {
            let from_b: Vec<_> = p.disconnects.iter().filter(|(peer, _)| *peer == b).collect();
            (
                from_b.len(),
                from_b.iter().all(|(_, r)| *r == DisconnectReason::OutOfRange),
            )
        })
        .unwrap();
    assert_eq!(breaks, 1, "only the first break: nobody re-dialed");
    assert!(reasons_ok, "flap breaks must look like range losses");

    // Redialing during a down phase fails with OutOfRange; over enough
    // retries both outcomes appear and successes reconnect the pair.
    let mut successes = 0usize;
    let mut failures = 0usize;
    for _ in 0..24 {
        let already = w
            .with_agent::<FaultProbe, _>(a, |p, _| (p.connected.len(), p.failed.len()))
            .unwrap();
        w.with_agent::<FaultProbe, _>(a, |_, ctx| {
            ctx.connect(b, RadioTech::Bluetooth);
        })
        .unwrap();
        w.run_for(SimDuration::from_secs(5));
        let now = w
            .with_agent::<FaultProbe, _>(a, |p, _| (p.connected.len(), p.failed.len()))
            .unwrap();
        successes += now.0 - already.0;
        failures += now.1 - already.1;
    }
    assert!(successes > 0, "up phases must admit reconnects");
    assert!(failures > 0, "down phases must refuse connects");
    w.with_agent::<FaultProbe, _>(a, |p, _| {
        assert!(
            p.failed.iter().all(|e| *e == ConnectError::OutOfRange),
            "flap refusals use range-loss semantics: {:?}",
            p.failed
        );
    })
    .unwrap();
}

#[test]
fn a_stationary_world_runs_no_link_check_and_its_links_still_break() {
    let mut w = probe_world(23);
    w.enable_profiling();
    let hub = add_probe(&mut w, "hub", 0.0);
    let peers: Vec<NodeId> = (1..=6)
        .map(|i| add_probe(&mut w, &format!("p{i}"), f64::from(i)))
        .collect();
    w.run_for(SimDuration::from_secs(1));
    let links: Vec<LinkId> = peers.iter().map(|p| connect_pair(&mut w, hub, *p)).collect();
    let [crashed, dark, cut, flaky, fading, _spared] = peers[..] else {
        unreachable!()
    };
    let t0 = w.now();
    let after = |secs| t0 + SimDuration::from_secs(secs);

    // Nothing moves, so time alone breaks none of these links: whatever
    // does break one says so itself.
    w.install_fault_plan(crashed, FaultPlan::new().crash_at(after(2)));
    w.install_fault_plan(
        dark,
        FaultPlan::new().radio_outage(RadioTech::Bluetooth, after(4), SimDuration::from_secs(5)),
    );
    w.install_adversary_plan(crate::adversary::AdversaryPlan::new().partition(after(6), after(9), [cut]));
    w.run_until(after(20));
    assert_eq!(
        w.profiler().calls(Phase::LinkCheck),
        0,
        "a link between fixed nodes is never polled"
    );
    let open = |w: &World| -> Vec<bool> { links.iter().map(|l| w.link_info(*l).is_some_and(|i| i.open)).collect() };
    assert_eq!(open(&w), [false, false, false, true, true, true]);
    let seen = w
        .with_agent::<FaultProbe, _>(hub, |p, _| p.disconnects.clone())
        .unwrap();
    assert_eq!(
        seen,
        vec![
            (crashed, DisconnectReason::PeerFailed),
            (dark, DisconnectReason::OutOfRange),
            (cut, DisconnectReason::OutOfRange),
        ]
    );

    // A flap and a quality override installed on links that have no check
    // pending must start one: the flapping pair is polled, the override is
    // looked at when it runs out (5 units at 1/s: under half a unit is left
    // after 4.5 s).
    w.install_fault_plan(
        hub,
        FaultPlan::new().flapping_link(flaky, SimDuration::from_secs(10), 0.4),
    );
    w.set_link_quality_override(links[4], 5.0, 1.0);
    w.run_until(after(40));
    assert_eq!(open(&w), [false, false, false, false, false, true]);
    let seen = w
        .with_agent::<FaultProbe, _>(hub, |p, _| p.disconnects[3..].to_vec())
        .unwrap();
    assert_eq!(seen.len(), 2);
    assert!(seen.contains(&(flaky, DisconnectReason::OutOfRange)));
    assert!(seen.contains(&(fading, DisconnectReason::OutOfRange)));
    // At most a period of polls for the flap, one or two looks at the override.
    let checks = w.profiler().calls(Phase::LinkCheck);
    assert!((2..=22).contains(&checks), "{checks} link checks");
    // And the spared link is still never looked at.
    w.run_until(after(400));
    assert_eq!(w.profiler().calls(Phase::LinkCheck), checks);
    assert_eq!(open(&w), [false, false, false, false, false, true]);
}
