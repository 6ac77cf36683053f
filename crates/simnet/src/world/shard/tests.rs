use super::node::{LinkStatus, ID_NODE_SHIFT};
use super::*;
use crate::agent::{Agent, Ctx, OnWorld};
use crate::faults::LifecycleKind;

const HELLO: TimerToken = TimerToken(0x5EED);

/// A minimal exercise agent, written once for both engines: scans once,
/// connects to the first hit, pings, echoes, closes after the echo. It
/// carries WLAN only, and also asks for what it has no radio for.
#[derive(Default)]
struct Chatter {
    scans_done: Vec<RadioTech>,
    hits: usize,
    got: Vec<Vec<u8>>,
    connected: u32,
    disconnects: Vec<DisconnectReason>,
    /// [`Ctx::in_range`] towards the dialled peer over WLAN and Bluetooth.
    in_range: Vec<bool>,
}

impl Agent for Chatter {
    fn on_start<C: Ctx>(&mut self, ctx: &mut C) {
        ctx.start_inquiry(RadioTech::Bluetooth);
        ctx.set_discoverable(RadioTech::Bluetooth, true);
        if ctx.node_id().as_raw() == 0 {
            ctx.schedule(SimDuration::from_millis(100), HELLO);
        }
    }
    fn on_timer<C: Ctx>(&mut self, ctx: &mut C, _token: TimerToken) {
        ctx.start_inquiry(RadioTech::Wlan);
    }
    fn on_inquiry_complete<C: Ctx>(&mut self, ctx: &mut C, tech: RadioTech, hits: Vec<InquiryHit>) {
        self.scans_done.push(tech);
        self.hits = hits.len();
        if let Some(hit) = hits.first() {
            ctx.connect(hit.node, RadioTech::Wlan);
        }
    }
    fn on_incoming_connection<C: Ctx>(&mut self, _ctx: &mut C, _incoming: IncomingConnection) -> bool {
        true
    }
    fn on_connected<C: Ctx>(&mut self, ctx: &mut C, _attempt: AttemptId, link: LinkId, peer: NodeId, _tech: RadioTech) {
        self.connected += 1;
        self.in_range = vec![
            ctx.in_range(peer, RadioTech::Wlan),
            ctx.in_range(peer, RadioTech::Bluetooth),
        ];
        ctx.send(link, b"ping".into()).unwrap();
    }
    fn on_message<C: Ctx>(&mut self, ctx: &mut C, link: LinkId, _from: NodeId, payload: SharedPayload) {
        // Through `dyn Ctx`, as the PeerHood middleware acts: both contexts
        // must work behind a trait object.
        self.answer(ctx, link, payload);
    }
    fn on_disconnected<C: Ctx>(&mut self, ctx: &mut C, link: LinkId, _peer: NodeId, reason: DisconnectReason) {
        self.disconnects.push(reason);
        assert_eq!(ctx.link_quality(link), None, "the link is gone");
    }
}

impl Chatter {
    fn answer(&mut self, ctx: &mut dyn Ctx, link: LinkId, payload: SharedPayload) {
        self.got.push(payload.to_vec());
        if payload.as_slice() == b"ping" {
            ctx.send(link, b"pong".into()).unwrap();
        } else {
            ctx.close(link);
        }
    }
}

const A: NodeId = NodeId::from_raw(0);
const B: NodeId = NodeId::from_raw(1);

/// What [`Ctx`]'s docs promise, on one script: equal where they say
/// equal, different exactly where they say *differs*.
#[test]
fn the_ctx_contract_holds_on_both_engines() {
    let mut config = crate::world::WorldConfig::with_seed(42);
    config.radio.wlan.setup_fault_prob = 0.0;
    config.radio.wlan.inquiry_miss_prob = 0.0;
    // As in `two_node_world`: the pair stands 10 m apart, out of this range.
    config.radio.bluetooth.range_m = Some(5.0);
    let mut seq = crate::world::World::new(config);
    for (name, x) in [("a", 10.0), ("b", 20.0)] {
        let at = MobilityModel::stationary(Point::new(x, 50.0));
        seq.add_node(name, at, &[RadioTech::Wlan], Box::new(OnWorld(Chatter::default())));
    }
    seq.run_for(SimDuration::from_secs(30));
    let mut par = two_node_world(1);
    par.run_for(SimDuration::from_secs(30));

    let read = |node: NodeId, seq: &mut crate::world::World, par: &mut ShardedWorld| {
        let on_world = seq.with_agent::<Chatter, _>(node, |c, _| std::mem::take(c)).unwrap();
        let on_shards = par.with_agent::<Chatter, _>(node, std::mem::take).unwrap();
        [on_world, on_shards]
    };
    let (a, b) = (read(A, &mut seq, &mut par), read(B, &mut seq, &mut par));
    for (a, b) in a.iter().zip(&b) {
        // Scanning and un-hiding a radio the node lacks did nothing; the
        // WLAN script ran.
        assert_eq!((&a.scans_done, &b.scans_done), (&vec![RadioTech::Wlan], &vec![]));
        assert_eq!((a.hits, a.connected), (1, 1));
        assert_eq!((&a.got, &b.got), (&vec![b"pong".to_vec()], &vec![b"ping".to_vec()]));
        assert_eq!(b.disconnects, [DisconnectReason::PeerClosed]);
    }
    for g in [seq.metrics().global(), par.metrics().global()] {
        assert_eq!((g.inquiries_started, g.inquiry_hits), (1, 1));
        assert_eq!((g.connect_attempts, g.connects_established), (1, 1));
        assert_eq!((g.messages_sent, g.messages_delivered, g.messages_lost), (2, 2, 0));
    }
    // Differs: only shards tell the closer, and only `World` counts a
    // sample of a link that is gone (b's, after the close).
    // The pair is in WLAN range and out of the cut Bluetooth range on
    // both engines, though neither node carries Bluetooth.
    assert_eq!(
        (&a[0].in_range, &a[1].in_range),
        (&vec![true, false], &vec![true, false])
    );
    assert_eq!(a[0].disconnects, []);
    assert_eq!(a[1].disconnects, [DisconnectReason::LocalClosed]);
    assert_eq!(seq.metrics().global().quality_samples, 1);
    assert_eq!(par.metrics().global().quality_samples, 0);
}

fn two_node_world(shards: usize) -> ShardedWorld {
    let mut config = ShardedConfig::new(42, Rect::square(100.0));
    config.shards = shards;
    // The exercise asserts an exact event sequence; keep the WLAN
    // handshake free of random setup faults.
    config.radio.wlan.setup_fault_prob = 0.0;
    config.radio.wlan.inquiry_miss_prob = 0.0;
    // A radio the nodes lack, cut below the pair's 10 m so that
    // `Ctx::in_range` has a pair out of range to answer for.
    config.radio.bluetooth.range_m = Some(5.0);
    let mut world = ShardedWorld::new(config);
    world.add_node(
        "a",
        MobilityModel::stationary(Point::new(10.0, 50.0)),
        &[RadioTech::Wlan],
        Box::new(Chatter::default()),
    );
    world.add_node(
        "b",
        MobilityModel::stationary(Point::new(20.0, 50.0)),
        &[RadioTech::Wlan],
        Box::new(Chatter::default()),
    );
    world
}

#[test]
fn connect_message_close_roundtrip() {
    let mut world = two_node_world(1);
    world.run_for(SimDuration::from_secs(30));
    let a = NodeId::from_raw(0);
    let b = NodeId::from_raw(1);
    assert_eq!(world.with_agent::<Chatter, _>(a, |c| c.hits).unwrap(), 1);
    assert_eq!(world.with_agent::<Chatter, _>(a, |c| c.connected).unwrap(), 1);
    // b echoed the ping, a closed after the pong.
    assert_eq!(
        world.with_agent::<Chatter, _>(b, |c| c.got.clone()).unwrap(),
        vec![b"ping".to_vec()]
    );
    assert_eq!(
        world.with_agent::<Chatter, _>(a, |c| c.got.clone()).unwrap(),
        vec![b"pong".to_vec()]
    );
    assert_eq!(
        world.with_agent::<Chatter, _>(a, |c| c.disconnects.clone()).unwrap(),
        vec![DisconnectReason::LocalClosed]
    );
    assert_eq!(
        world.with_agent::<Chatter, _>(b, |c| c.disconnects.clone()).unwrap(),
        vec![DisconnectReason::PeerClosed]
    );
    let g = world.metrics().global();
    assert_eq!(g.connects_established, 1);
    assert_eq!(g.messages_sent, 2);
    assert_eq!(g.messages_delivered, 2);
    assert_eq!(g.messages_lost, 0);
    assert_eq!(world.metrics().messages_for_tech(RadioTech::Wlan), 2);
}

#[test]
fn shard_count_does_not_change_outcomes() {
    let summarise = |shards: usize| {
        let mut world = two_node_world(shards);
        world.run_for(SimDuration::from_secs(30));
        let g = *world.metrics().global();
        let a = world
            .with_agent::<Chatter, _>(NodeId::from_raw(0), |c| (c.hits, c.got.clone()))
            .unwrap();
        (g, a)
    };
    let one = summarise(1);
    assert_eq!(one, summarise(2));
    assert_eq!(one, summarise(8));
}

#[test]
fn crash_breaks_links_and_restart_reboots_the_agent() {
    let mut world = two_node_world(2);
    let b = NodeId::from_raw(1);
    let plan = FaultPlan::new()
        .crash_at(SimTime::from_secs(10))
        .restart_at(SimTime::from_secs(20));
    world.install_fault_plan(b, &plan);
    world.run_for(SimDuration::from_secs(30));
    assert_eq!(world.fault_stats().crashes, 1);
    assert_eq!(world.fault_stats().restarts, 1);
    assert!(world.is_alive(b));
    let kinds: Vec<LifecycleKind> = world.lifecycle_events().iter().map(|e| e.kind).collect();
    assert_eq!(kinds, vec![LifecycleKind::NodeDown, LifecycleKind::NodeUp]);
    // a held the link when b crashed: it must observe PeerFailed.
    let a_reasons = world
        .with_agent::<Chatter, _>(NodeId::from_raw(0), |c| c.disconnects.clone())
        .unwrap();
    assert!(
        a_reasons.contains(&DisconnectReason::PeerFailed) || a_reasons.contains(&DisconnectReason::LocalClosed),
        "a must have lost its link: {a_reasons:?}"
    );
}

#[test]
#[should_panic(expected = "crash/restart/radio-outage")]
fn flapping_links_are_rejected() {
    let mut world = two_node_world(1);
    let plan = FaultPlan::new().flapping_link(NodeId::from_raw(1), SimDuration::from_secs(10), 0.5);
    world.install_fault_plan(NodeId::from_raw(0), &plan);
}

#[test]
fn profiling_splits_the_scope_into_one_idle_span_per_window() {
    let mut world = two_node_world(2);
    world.enable_profiling();
    world.run_for(SimDuration::from_secs(5));
    let profile = world.profile();
    let windows = profile.calls(Phase::ShardWindows);
    assert!(windows > 0);
    assert_eq!(profile.calls(Phase::ShardIdle), windows);
    // Idle is the part of the scope's core time no shard's pass covers.
    assert!(profile.nanos(Phase::ShardIdle) <= 2 * profile.nanos(Phase::ShardWindows));
}

const TICK: TimerToken = TimerToken(0x71C);

/// A scripted agent for the pass's own paths: dials `dial` on start,
/// sends one byte per tick once connected, scans back to back when
/// `scan` is set, accepts everything and logs what it observes.
#[derive(Default)]
struct Probe {
    dial: Option<NodeId>,
    scan: bool,
    link: Option<LinkId>,
    heard: Vec<(SimTime, NodeId)>,
    scans: Vec<(SimTime, Vec<NodeId>)>,
    dropped: Vec<(SimTime, NodeId, DisconnectReason)>,
}

impl Probe {
    fn dialing(peer: NodeId) -> Box<Self> {
        Box::new(Probe {
            dial: Some(peer),
            ..Probe::default()
        })
    }
    fn scanning() -> Box<Self> {
        Box::new(Probe {
            scan: true,
            ..Probe::default()
        })
    }
}

impl Agent for Probe {
    fn on_start<C: Ctx>(&mut self, ctx: &mut C) {
        self.link = None;
        if let Some(peer) = self.dial {
            ctx.connect(peer, RadioTech::Wlan);
        }
        if self.scan {
            ctx.start_inquiry(RadioTech::Wlan);
        }
    }
    fn on_timer<C: Ctx>(&mut self, ctx: &mut C, _token: TimerToken) {
        if let Some(link) = self.link {
            if ctx.send(link, vec![0x5A].into()).is_ok() {
                ctx.schedule(SimDuration::from_millis(500), TICK);
            }
        }
    }
    fn on_inquiry_complete<C: Ctx>(&mut self, ctx: &mut C, _tech: RadioTech, hits: Vec<InquiryHit>) {
        self.scans.push((ctx.now(), hits.iter().map(|h| h.node).collect()));
        if self.link.is_none() && self.dial.is_none() {
            if let Some(hit) = hits.first() {
                self.dial = Some(hit.node);
                ctx.connect(hit.node, RadioTech::Wlan);
            }
        }
        ctx.start_inquiry(RadioTech::Wlan);
    }
    fn on_incoming_connection<C: Ctx>(&mut self, _ctx: &mut C, _incoming: IncomingConnection) -> bool {
        true
    }
    fn on_connected<C: Ctx>(
        &mut self,
        ctx: &mut C,
        _attempt: AttemptId,
        link: LinkId,
        _peer: NodeId,
        _tech: RadioTech,
    ) {
        self.link = Some(link);
        ctx.schedule(SimDuration::ZERO, TICK);
    }
    fn on_connect_failed<C: Ctx>(
        &mut self,
        _ctx: &mut C,
        _attempt: AttemptId,
        _peer: NodeId,
        _tech: RadioTech,
        _error: ConnectError,
    ) {
        if self.scan {
            self.dial = None;
        }
    }
    fn on_message<C: Ctx>(&mut self, ctx: &mut C, _link: LinkId, from: NodeId, _payload: SharedPayload) {
        self.heard.push((ctx.now(), from));
    }
    fn on_disconnected<C: Ctx>(&mut self, ctx: &mut C, _link: LinkId, peer: NodeId, reason: DisconnectReason) {
        self.dropped.push((ctx.now(), peer, reason));
        self.link = None;
        if self.scan {
            self.dial = None;
        }
    }
}

/// A 100 m square with instantaneous, fault-free, noise-free radios and
/// the default 500 ms window.
fn ideal_world(shards: usize) -> ShardedWorld {
    let mut config = ShardedConfig::new(7, Rect::square(100.0));
    config.shards = shards;
    config.radio = RadioEnvironment::ideal();
    ShardedWorld::new(config)
}

fn fixed_at(x: f64, y: f64) -> MobilityModel {
    MobilityModel::stationary(Point::new(x, y))
}

fn probe<R>(world: &mut ShardedWorld, node: NodeId, f: impl FnOnce(&mut Probe) -> R) -> R {
    world.with_agent::<Probe, _>(node, f).expect("a Probe node")
}

fn ms(millis: u64) -> SimTime {
    SimTime::from_millis(millis)
}

#[test]
fn mail_for_a_walker_that_changes_stripe_is_delivered_by_the_new_owner_in_canonical_order() {
    let run = |shards: usize| {
        let mut world = ideal_world(shards);
        let walker = NodeId::from_raw(2);
        let a = world.add_node("a", fixed_at(40.0, 50.0), &[RadioTech::Wlan], Probe::dialing(walker));
        let b = world.add_node("b", fixed_at(60.0, 50.0), &[RadioTech::Wlan], Probe::dialing(walker));
        // Crosses the two-stripe cut at x = 50 at t = 5 s.
        let walk = MobilityModel::walk(Point::new(45.0, 50.0), Point::new(55.0, 50.0), 1.0);
        world.add_node("w", walk, &[RadioTech::Wlan], Box::<Probe>::default());
        // Its mirror image 30 m south, crossing the other way at the same
        // barrier: the two stripes carry equal load in every window, so the
        // stripes stay where they are and only the walkers change owner.
        let mirror = NodeId::from_raw(5);
        world.add_node("c", fixed_at(60.0, 20.0), &[RadioTech::Wlan], Probe::dialing(mirror));
        world.add_node("d", fixed_at(40.0, 20.0), &[RadioTech::Wlan], Probe::dialing(mirror));
        let walk = MobilityModel::walk(Point::new(54.5, 20.0), Point::new(44.5, 20.0), 1.0);
        world.add_node("m", walk, &[RadioTech::Wlan], Box::<Probe>::default());
        let first_owners = (world.owner[2], world.owner[5]);
        world.run_for(SimDuration::from_secs(8));
        let heard = probe(&mut world, walker, |p| p.heard.clone());
        let stats = world.partition_stats();
        assert_eq!((stats.rebalances, stats.last_imbalance), (0, 1.0), "{stats:?}");
        (heard, first_owners, (world.owner[2], world.owner[5]), a, b)
    };
    let (heard, first_owners, last_owners, a, b) = run(2);
    assert_eq!(
        (first_owners, last_owners),
        ((0, 1), (1, 0)),
        "both walkers must change shard mid-run"
    );
    // Both dials resolve in the first window, are answered at 0.5 s and
    // confirmed at 1.0 s; from then on each sender's tick lands one
    // window later, the two always on the same instant.
    let expected: Vec<(SimTime, NodeId)> = (3..16)
        .flat_map(|half_secs| [(ms(500 * half_secs), a), (ms(500 * half_secs), b)])
        .collect();
    assert_eq!(
        heard, expected,
        "every instant: lower origin first, no gap at the migration"
    );
    assert_eq!(run(1).0, expected, "and the same on one shard");
}

#[test]
fn a_crash_installed_between_runs_for_now_lets_the_pending_message_in_first() {
    let mut world = ideal_world(2);
    let b = NodeId::from_raw(1);
    let a = world.add_node("a", fixed_at(40.0, 50.0), &[RadioTech::Wlan], Probe::dialing(b));
    world.add_node("b", fixed_at(60.0, 50.0), &[RadioTech::Wlan], Box::<Probe>::default());
    // a's ticks at 1.0 and 1.5 s arrive at 1.5 and 2.0 s: when this call
    // returns, the second one is pending for exactly `now`.
    world.run_until(ms(2_000));
    world.install_fault_plan(b, &FaultPlan::new().crash_at(ms(2_000)));
    world.run_until(ms(4_000));
    assert!(!world.is_alive(b));
    assert_eq!(
        probe(&mut world, b, |p| p.heard.clone()),
        vec![(ms(1_500), a), (ms(2_000), a)],
        "delivered, then crashed: the barrier's message was queued before the fault"
    );
    // a's 2.0 s tick reaches a dead node, and so does its 2.5 s one: b's
    // `Broken` arrives at 2.5 s, queued behind the tick set at 2.0 s.
    assert_eq!(world.metrics().global().messages_lost, 2);
    assert_eq!(world.metrics().global().messages_sent, 4);
    assert_eq!(probe(&mut world, a, |p| p.link), None);
}

#[test]
fn nodes_added_after_a_run_are_discoverable_and_discover_in_their_first_window() {
    let mut world = ideal_world(2);
    let a = world.add_node("a", fixed_at(10.0, 50.0), &[RadioTech::Wlan], Probe::scanning());
    // a's 2 s scans complete at 2.0, 4.0, ...: stop just short of one.
    world.run_until(ms(3_900));
    let fixed = world.add_node("c", fixed_at(20.0, 50.0), &[RadioTech::Wlan], Probe::scanning());
    let walk = MobilityModel::walk(Point::new(30.0, 50.0), Point::new(40.0, 50.0), 1.0);
    let walker = world.add_node("d", walk, &[RadioTech::Wlan], Probe::scanning());
    world.run_until(ms(6_000));
    let scans_of = |world: &mut ShardedWorld, node| probe(world, node, |p| p.scans.clone());
    assert_eq!(
        scans_of(&mut world, a),
        vec![(ms(2_000), vec![]), (ms(4_000), vec![fixed, walker])],
        "the scan ending in the newcomers' first window must already see both"
    );
    // The newcomers started at 3.9 s; their first scans end at 5.9 s.
    assert_eq!(scans_of(&mut world, fixed), vec![(ms(5_900), vec![a, walker])]);
    assert_eq!(scans_of(&mut world, walker), vec![(ms(5_900), vec![a, fixed])]);
}

#[test]
fn add_node_does_no_grid_work_and_the_next_window_start_indexes_the_newcomers() {
    let mut world = ideal_world(2);
    let mut placer = SimRng::new(0x5E7);
    let mut crowd = |world: &mut ShardedWorld, count: usize| {
        for i in 0..count {
            let at = Point::new(placer.uniform_f64(0.0, 100.0), placer.uniform_f64(0.0, 100.0));
            let mobility = if i % 4 == 0 {
                MobilityModel::walk(at, Point::new(100.0 - at.x, at.y), 1.5)
            } else {
                MobilityModel::stationary(at)
            };
            world.add_node(format!("n{i}"), mobility, &[RadioTech::Wlan], Box::<Probe>::default());
        }
    };
    crowd(&mut world, 300);
    assert_eq!(
        world.grid.node_count(),
        0,
        "add_node must leave the spatial index alone: inserting there doubled `setup_s` on \
         `city_sharded` (29-52 ms -> 60-101 ms in 6/6 runs of the prototype), an end-to-end \
         metric with a 25 % bound; the first window start inserts instead"
    );
    let window = world.window();
    world.run_for(window);
    assert_eq!(world.grid.node_count(), 300, "the first window start indexes everyone");
    crowd(&mut world, 50);
    assert_eq!(
        world.grid.node_count(),
        300,
        "and add_node between two runs is no grid work either"
    );
    world.run_for(window);
    assert_eq!(
        world.grid.node_count(),
        350,
        "the next window start indexes the newcomers"
    );
    // Everyone is bucketed within one window's walk of where it stands.
    for node in world.node_ids() {
        let here = world.position_of(node).expect("exists");
        let near = world.grid.query(here, 1.5 * window.as_secs_f64());
        assert!(near.contains(&node), "{node} is not indexed around {here:?}");
    }
}

#[test]
fn both_engines_size_their_grid_by_the_one_default_cell_rule() {
    let ranges = |bluetooth, wlan, gprs| {
        let mut radio = RadioEnvironment::default();
        radio.bluetooth.range_m = bluetooth;
        radio.wlan.range_m = wlan;
        radio.gprs.range_m = gprs;
        radio
    };
    let table = [
        (RadioEnvironment::default(), 10.0),
        (RadioEnvironment::ideal(), 10.0),
        (ranges(None, None, None), 50.0),
        // The parent's two copies of the rule disagreed here: 50 m on `World`.
        (ranges(Some(0.0), Some(80.0), None), 80.0),
        (ranges(Some(f64::NAN), Some(80.0), None), 80.0),
        (ranges(Some(f64::INFINITY), Some(30.0), Some(f64::INFINITY)), 30.0),
        (ranges(Some(-5.0), None, None), 50.0),
    ];
    for (radio, cell_m) in table {
        assert_eq!(radio.default_grid_cell_m(), cell_m, "{radio:?}");
        let mut sequential = crate::world::WorldConfig::with_seed(1);
        sequential.radio = radio.clone();
        let mut sharded = ShardedConfig::new(1, Rect::square(100.0));
        sharded.radio = radio;
        assert_eq!(crate::world::World::new(sequential.clone()).grid_cell_m(), cell_m);
        assert_eq!(ShardedWorld::new(sharded.clone()).grid.cell_m(), cell_m);
        // An explicit cell wins on both.
        sequential.grid_cell_m = Some(33.0);
        sharded.grid_cell_m = Some(33.0);
        assert_eq!(crate::world::World::new(sequential).grid_cell_m(), 33.0);
        assert_eq!(ShardedWorld::new(sharded).grid.cell_m(), 33.0);
    }
}

#[test]
fn a_crashed_fixed_node_keeps_its_grid_cell_but_is_no_hit_until_it_restarts() {
    let mut world = ideal_world(1);
    let a = world.add_node("a", fixed_at(10.0, 50.0), &[RadioTech::Wlan], Probe::scanning());
    let b = world.add_node("b", fixed_at(20.0, 50.0), &[RadioTech::Wlan], Box::<Probe>::default());
    world.install_fault_plan(b, &FaultPlan::new().crash_at(ms(3_000)).restart_at(ms(7_000)));
    world.run_until(ms(5_000));
    assert!(!world.is_alive(b));
    let bucketed = world.grid.query(Point::new(20.0, 50.0), 1.0);
    world.run_until(ms(10_500));
    let hits: Vec<Vec<NodeId>> = probe(&mut world, a, |p| p.scans.iter().map(|(_, h)| h.clone()).collect());
    assert_eq!(hits, vec![vec![b], vec![], vec![], vec![b], vec![b]]);
    assert!(
        bucketed.contains(&b),
        "fixed nodes are indexed once, whatever their liveness: {bucketed:?}"
    );
}

#[test]
fn mostly_fixed_hotspot_is_invariant_to_adaptivity_and_the_recut_moves_fixed_nodes() {
    // 90 fixed nodes crowd the right quarter, 10 walkers cross the city;
    // everyone scans, dials its first hit and ticks.
    let run = |shards: usize| {
        let mut config = ShardedConfig::new(11, Rect::square(100.0));
        config.shards = shards;
        let mut world = ShardedWorld::new(config);
        let mut placer = SimRng::new(0xF1ED);
        for i in 0..100 {
            let mobility = if i % 10 == 0 {
                let y = placer.uniform_f64(0.0, 100.0);
                MobilityModel::walk(Point::new(5.0, y), Point::new(95.0, y), 1.5)
            } else {
                fixed_at(placer.uniform_f64(75.0, 100.0), placer.uniform_f64(0.0, 100.0))
            };
            world.add_node(format!("n{i}"), mobility, &[RadioTech::Wlan], Probe::scanning());
        }
        world.install_fault_plan(
            NodeId::from_raw(33),
            &FaultPlan::new().crash_at(ms(9_000)).restart_at(ms(15_000)),
        );
        let uniform_owner = world.owner.clone();
        world.run_for(SimDuration::from_secs(30));
        let moved_fixed = (0..100).any(|raw| raw % 10 != 0 && world.owner[raw] != uniform_owner[raw]);
        let logs: Vec<_> = world
            .node_ids()
            .collect::<Vec<_>>()
            .into_iter()
            .map(|node| probe(&mut world, node, |p| (p.heard.clone(), p.scans.clone())))
            .collect();
        let trace = (*world.metrics().global(), world.fault_stats().crashes, logs);
        (trace, world.partition_stats().rebalances, moved_fixed)
    };
    // One stripe never re-cuts: the reference ran on the fixed layout.
    let (reference, recuts, _) = run(1);
    assert_eq!(recuts, 0);
    assert!(reference.0.messages_delivered > 0 && reference.0.links_broken > 0);
    for shards in [2, 3] {
        let (recut, recuts, moved) = run(shards);
        assert!(recuts > 0, "the crowd must trip the gate at {shards} shards");
        assert!(moved, "a re-cut must migrate fixed nodes too");
        assert!(recut == reference, "re-cut stripes diverged at {shards} shards");
    }
}

#[test]
fn every_barrier_folds_owned_nodes_plus_events_run_without_telemetry() {
    const EVENT_PHASES: [Phase; 8] = [
        Phase::AgentStart,
        Phase::Timers,
        Phase::Discovery,
        Phase::Connect,
        Phase::Delivery,
        Phase::LinkCheck,
        Phase::Disconnect,
        Phase::Faults,
    ];
    let events_run = |world: &ShardedWorld| {
        let profile = world.profile();
        EVENT_PHASES.iter().map(|&phase| profile.calls(phase)).sum::<u64>()
    };
    // Two ticking pairs and a scanner, spread over three stripes; one of
    // the dialers walks across them.
    let mut world = ideal_world(3);
    world.enable_profiling();
    let b = NodeId::from_raw(1);
    world.add_node("a", fixed_at(10.0, 50.0), &[RadioTech::Wlan], Probe::dialing(b));
    world.add_node("b", fixed_at(40.0, 50.0), &[RadioTech::Wlan], Box::<Probe>::default());
    let d = NodeId::from_raw(3);
    let walk = MobilityModel::walk(Point::new(60.0, 60.0), Point::new(30.0, 60.0), 1.5);
    world.add_node("c", walk, &[RadioTech::Wlan], Probe::dialing(d));
    world.add_node("d", fixed_at(70.0, 50.0), &[RadioTech::Wlan], Box::<Probe>::default());
    world.add_node("e", fixed_at(90.0, 50.0), &[RadioTech::Wlan], Probe::scanning());
    let window = world.window();
    let mut folds = 0;
    for _ in 0..40 {
        let (windows, before) = (world.partition_stats().windows, events_run(&world));
        world.run_for(window);
        let ran = events_run(&world) - before;
        let stats = world.partition_stats();
        if stats.windows == windows {
            assert_eq!(ran, 0, "an idle window runs nothing");
            continue;
        }
        folds += 1;
        assert_eq!(stats.windows, windows + 1);
        assert_eq!(stats.occupancy.iter().sum::<u64>(), 5, "{stats:?}");
        assert_eq!(
            stats.loads.iter().sum::<u64>(),
            stats.occupancy.iter().sum::<u64>() + ran,
            "{stats:?}"
        );
        assert!(stats.loads.iter().zip(&stats.occupancy).all(|(l, o)| l >= o));
    }
    assert!(folds > 30, "the pairs keep every window busy: {folds} folds");
}

/// Where per-interval polling (the parent of the range-exit scheduling)
/// broke the link of `a_walker_leaves_its_fixed_peer_at_the_instant_polling_found`:
/// the first instant of the link's 500 ms grid at which the walker is
/// more than WLAN's 50 m from its peer (50 m exactly at 20.0 s).
const WALKER_BREAK: SimTime = SimTime::from_millis(20_500);

#[test]
fn a_walker_leaves_its_fixed_peer_at_the_instant_polling_found() {
    for shards in [1, 2] {
        let mut world = ideal_world(shards);
        world.enable_profiling();
        let a = world.add_node("a", fixed_at(10.0, 50.0), &[RadioTech::Wlan], Box::<Probe>::default());
        let walk = MobilityModel::walk(Point::new(20.0, 50.0), Point::new(95.0, 50.0), 2.0);
        let w = world.add_node("w", walk, &[RadioTech::Wlan], Probe::dialing(a));
        world.run_for(SimDuration::from_secs(30));
        // The initiator finds out itself; its `Broken` crosses one barrier.
        assert_eq!(
            probe(&mut world, w, |p| p.dropped.clone()),
            vec![(WALKER_BREAK, a, DisconnectReason::OutOfRange)]
        );
        assert_eq!(
            probe(&mut world, a, |p| p.dropped.clone()),
            vec![(
                WALKER_BREAK + SimDuration::from_millis(500),
                w,
                DisconnectReason::OutOfRange
            )]
        );
        assert_eq!(world.metrics().global().links_broken, 2);
        // Two looks at the link where polling took 39: the slack in the
        // exit wakes it at 20.0 s, exactly 50 m out and still in range.
        assert_eq!(world.profile().calls(Phase::LinkCheck), 2);
    }
}

#[test]
fn a_stationary_city_runs_no_link_check_and_its_links_still_break() {
    let mut world = ideal_world(2);
    world.enable_profiling();
    let wlan = [RadioTech::Wlan];
    let pair = |world: &mut ShardedWorld, x: f64| {
        let acceptor = NodeId::from_raw(world.node_count() as u64 + 1);
        let dialer = world.add_node("dialer", fixed_at(x, 40.0), &wlan, Probe::dialing(acceptor));
        world.add_node("acceptor", fixed_at(x, 60.0), &wlan, Box::<Probe>::default());
        (dialer, acceptor)
    };
    let (a, b) = pair(&mut world, 10.0);
    let (c, d) = pair(&mut world, 35.0);
    let (e, f) = pair(&mut world, 65.0);
    let (g, h) = pair(&mut world, 90.0);
    world.install_fault_plan(b, &FaultPlan::new().crash_at(ms(3_000)));
    world.install_fault_plan(
        d,
        &FaultPlan::new().radio_outage(RadioTech::Wlan, ms(5_000), SimDuration::from_secs(2)),
    );
    world.install_fault_plan(g, &FaultPlan::new().crash_at(ms(7_200)));
    world.run_until(ms(12_000));
    assert_eq!(
        world.profile().calls(Phase::LinkCheck),
        0,
        "a link between fixed nodes is never polled"
    );
    // Whatever breaks such a link says so itself, one barrier later.
    let dropped = |world: &mut ShardedWorld, node| probe(world, node, |p| p.dropped.clone());
    assert_eq!(
        dropped(&mut world, a),
        vec![(ms(3_500), b, DisconnectReason::PeerFailed)]
    );
    assert_eq!(
        dropped(&mut world, d),
        vec![(ms(5_000), c, DisconnectReason::OutOfRange)]
    );
    assert_eq!(
        dropped(&mut world, c),
        vec![(ms(5_500), d, DisconnectReason::OutOfRange)]
    );
    assert_eq!(
        dropped(&mut world, h),
        vec![(ms(7_500), g, DisconnectReason::PeerFailed)]
    );
    // 3 crashed or dark endpoints with a link each, 3 peers told.
    assert_eq!(world.metrics().global().links_broken, 6);
    // The untouched pair talks on.
    assert!(dropped(&mut world, e).is_empty() && dropped(&mut world, f).is_empty());
    assert_eq!(probe(&mut world, f, |p| p.heard.last().copied()), Some((ms(11_500), e)));
}

#[test]
fn a_closed_link_leaves_both_tables_and_is_no_break_when_the_closer_crashes() {
    let mut world = two_node_world(1);
    let a = NodeId::from_raw(0);
    let b = NodeId::from_raw(1);
    // a closes after b's pong, b answers the close, a drops its half.
    world.run_for(SimDuration::from_secs(30));
    let links_of = |world: &ShardedWorld, node| world.slot(node).expect("owned").links.len();
    assert_eq!((links_of(&world, a), links_of(&world, b)), (0, 0));
    assert_eq!(world.metrics().global().links_broken, 0);

    // Same exchange, but a crashes in the window of its close, before
    // b's answer can have come back: the half is still `ClosedLocal`.
    let mut world = two_node_world(1);
    let mut closed_at = None;
    while closed_at.is_none() {
        world.run_for(SimDuration::from_millis(500));
        let closing = world
            .slot(a)
            .expect("owned")
            .links
            .values()
            .any(|half| half.status == LinkStatus::ClosedLocal);
        closed_at = closing.then(|| world.now());
        assert!(world.now() < SimTime::from_secs(30), "a closes after the pong");
    }
    world.install_fault_plan(a, &FaultPlan::new().crash_at(world.now()));
    world.run_for(SimDuration::from_secs(5));
    assert!(!world.is_alive(a));
    assert_eq!((links_of(&world, a), links_of(&world, b)), (0, 0));
    assert_eq!(
        world.metrics().global().links_broken,
        0,
        "a graceful close is not a break"
    );
    assert_eq!(
        world.with_agent::<Chatter, _>(b, |c| c.disconnects.clone()).unwrap(),
        vec![DisconnectReason::PeerClosed]
    );
}

#[test]
fn a_sharded_node_stays_under_304_bytes() {
    let size = std::mem::size_of::<ShardNode>();
    assert!(
        size <= 304,
        "ShardNode is {size} bytes: every sharded node is one, so 100 k probes pay every byte \
         of it (PR 25 took it from 400 to 296); put a rarely used field behind a pointer, as \
         `NodeFaults` is, instead of inline"
    );
}

#[test]
fn only_a_node_with_a_fault_plan_holds_fault_bookkeeping_and_the_stream_assembles_as_before() {
    let mut world = ideal_world(2);
    let wlan = [RadioTech::Wlan];
    let mut nodes = Vec::new();
    for x in [10.0, 35.0, 65.0] {
        let acceptor = NodeId::from_raw(world.node_count() as u64 + 1);
        nodes.push(world.add_node("dialer", fixed_at(x, 40.0), &wlan, Probe::dialing(acceptor)));
        nodes.push(world.add_node("acceptor", fixed_at(x, 60.0), &wlan, Box::<Probe>::default()));
    }
    let (crashed, dark) = (nodes[1], nodes[2]);
    world.install_fault_plan(crashed, &FaultPlan::new().crash_at(ms(3_000)).restart_at(ms(5_000)));
    world.install_fault_plan(
        dark,
        &FaultPlan::new().radio_outage(RadioTech::Wlan, ms(4_000), SimDuration::from_secs(2)),
    );
    world.run_until(ms(10_000));
    for &node in &nodes {
        let planned = node == crashed || node == dark;
        assert_eq!(
            world.slot(node).expect("owned").faults.is_some(),
            planned,
            "{node}: fault bookkeeping is allocated by a plan and only by one"
        );
    }
    let expected = FaultStats {
        crashes: 1,
        restarts: 1,
        radio_outages: 1,
        radio_restores: 1,
    };
    assert_eq!(world.fault_stats(), expected);
    let event = |at, node, kind| LifecycleEvent { at: ms(at), node, kind };
    assert_eq!(
        world.lifecycle_events(),
        [
            event(3_000, crashed, LifecycleKind::NodeDown),
            event(4_000, dark, LifecycleKind::RadioDown(RadioTech::Wlan)),
            event(5_000, crashed, LifecycleKind::NodeUp),
            event(6_000, dark, LifecycleKind::RadioUp(RadioTech::Wlan)),
        ]
    );
}

#[test]
fn link_and_attempt_tables_give_their_storage_back_when_they_empty() {
    let mut world = two_node_world(1);
    let mut saw_a_link = false;
    while world.now() < SimTime::from_secs(30) {
        world.run_for(SimDuration::from_millis(500));
        for node in [A, B] {
            let slot = world.slot(node).expect("owned");
            for (len, capacity) in [
                (slot.links.len(), slot.links.capacity()),
                (slot.pending.len(), slot.pending.capacity()),
            ] {
                assert_eq!(capacity, len, "{node}: a small table is sized to its contents");
            }
            saw_a_link |= !slot.links.is_empty();
        }
    }
    assert!(saw_a_link, "the script opens a link");
    for node in [A, B] {
        let slot = world.slot(node).expect("owned");
        assert_eq!(
            (slot.links.capacity(), slot.pending.capacity()),
            (0, 0),
            "{node}: closed and answered, the link is gone and so is the storage"
        );
    }
}

const DIAL: TimerToken = TimerToken(0xD1A1);

/// Dials `peer` `after` its start, accepts everything, and logs the links
/// it opens and loses in the order it hears of them.
struct LateDialer {
    peer: NodeId,
    after: SimDuration,
    opened: Vec<LinkId>,
    lost: Vec<LinkId>,
}

impl LateDialer {
    fn boxed(peer: NodeId, after_ms: u64) -> Box<Self> {
        let after = SimDuration::from_millis(after_ms);
        Box::new(LateDialer {
            peer,
            after,
            opened: Vec::new(),
            lost: Vec::new(),
        })
    }
}

impl Agent for LateDialer {
    fn on_start<C: Ctx>(&mut self, ctx: &mut C) {
        ctx.schedule(self.after, DIAL);
    }
    fn on_timer<C: Ctx>(&mut self, ctx: &mut C, _token: TimerToken) {
        ctx.connect(self.peer, RadioTech::Wlan);
    }
    fn on_incoming_connection<C: Ctx>(&mut self, _ctx: &mut C, incoming: IncomingConnection) -> bool {
        self.opened.push(incoming.link);
        true
    }
    fn on_connected<C: Ctx>(
        &mut self,
        _ctx: &mut C,
        _attempt: AttemptId,
        link: LinkId,
        _peer: NodeId,
        _tech: RadioTech,
    ) {
        self.opened.push(link);
    }
    fn on_disconnected<C: Ctx>(&mut self, _ctx: &mut C, link: LinkId, _peer: NodeId, _reason: DisconnectReason) {
        self.lost.push(link);
    }
}

#[test]
fn a_crash_and_an_outage_break_links_in_ascending_link_id_whatever_order_they_opened_in() {
    // `victim` dials `peer` first, so its own half — the higher id, packed
    // from the victim's — enters its table before the half of the link the
    // peer dials later. Both `Broken`s go to the peer, which hears them in
    // emission order.
    let (peer_link, victim_link) = (LinkId(0), LinkId(1 << ID_NODE_SHIFT));
    for outage in [false, true] {
        let mut world = ideal_world(1);
        let peer = world.add_node(
            "peer",
            fixed_at(40.0, 50.0),
            &[RadioTech::Wlan],
            LateDialer::boxed(B, 3_000),
        );
        let victim = world.add_node(
            "victim",
            fixed_at(60.0, 50.0),
            &[RadioTech::Wlan],
            LateDialer::boxed(A, 1_000),
        );
        let plan = if outage {
            FaultPlan::new().radio_outage(RadioTech::Wlan, ms(6_000), SimDuration::from_secs(2))
        } else {
            FaultPlan::new().crash_at(ms(6_000))
        };
        world.install_fault_plan(victim, &plan);
        world.run_until(ms(10_000));
        let log = |world: &mut ShardedWorld, node| {
            world
                .with_agent::<LateDialer, _>(node, |d| (d.opened.clone(), d.lost.clone()))
                .expect("a LateDialer")
        };
        let (opened, lost) = log(&mut world, victim);
        assert_eq!(
            opened,
            [victim_link, peer_link],
            "the victim's links open out of id order"
        );
        let ascending = [peer_link, victim_link];
        assert_eq!(
            log(&mut world, peer).1,
            ascending,
            "outage {outage}: Broken in link-id order"
        );
        if outage {
            assert_eq!(lost, ascending, "the dark node is told in the same order");
        }
    }
}

/// Dials `peer` on start (when set), closes the link the moment it opens
/// and logs what it hears.
#[derive(Default)]
struct Quitter {
    peer: Option<NodeId>,
    closed_at: Option<SimTime>,
    heard: Vec<DisconnectReason>,
}

impl Agent for Quitter {
    fn on_start<C: Ctx>(&mut self, ctx: &mut C) {
        if let Some(peer) = self.peer {
            ctx.connect(peer, RadioTech::Wlan);
        }
    }
    fn on_incoming_connection<C: Ctx>(&mut self, _ctx: &mut C, _incoming: IncomingConnection) -> bool {
        true
    }
    fn on_connected<C: Ctx>(
        &mut self,
        ctx: &mut C,
        _attempt: AttemptId,
        link: LinkId,
        _peer: NodeId,
        _tech: RadioTech,
    ) {
        self.closed_at = Some(ctx.now());
        ctx.close(link);
    }
    fn on_disconnected<C: Ctx>(&mut self, _ctx: &mut C, _link: LinkId, _peer: NodeId, reason: DisconnectReason) {
        self.heard.push(reason);
    }
}

#[test]
fn a_radio_outage_breaks_no_half_the_node_already_closed() {
    let mut world = ideal_world(1);
    world.enable_profiling();
    let peer = world.add_node(
        "peer",
        fixed_at(40.0, 50.0),
        &[RadioTech::Wlan],
        Box::<Quitter>::default(),
    );
    let closer = Quitter {
        peer: Some(peer),
        ..Quitter::default()
    };
    let closer = world.add_node("closer", fixed_at(60.0, 50.0), &[RadioTech::Wlan], Box::new(closer));
    let dark_at = ms(1_250);
    let plan = FaultPlan::new().radio_outage(RadioTech::Wlan, dark_at, SimDuration::from_secs(1));
    world.install_fault_plan(closer, &plan);
    world.run_until(ms(5_000));
    let log = |world: &mut ShardedWorld, node| {
        world
            .with_agent::<Quitter, _>(node, |q| (q.closed_at, q.heard.clone()))
            .expect("a Quitter")
    };
    let (closed_at, heard) = log(&mut world, closer);
    let closed_at = closed_at.expect("the link opened");
    assert!(
        closed_at < dark_at && dark_at < closed_at + world.window(),
        "the radio goes dark while the closed half waits for the peer's answer"
    );
    assert_eq!(heard, [DisconnectReason::LocalClosed]);
    assert_eq!(log(&mut world, peer).1, [DisconnectReason::PeerClosed]);
    assert_eq!(world.metrics().global().links_broken, 0);
    // The closer's own `LocalClosed`, the peer's `Closed` and the answer to
    // it: a `Broken` for the closed half would be a fourth.
    assert_eq!(world.profile().calls(Phase::Disconnect), 3);
}

#[test]
#[should_panic(expected = "bounds every node's speed by max_speed_mps (3 m/s)")]
fn a_walker_faster_than_the_speed_bound_is_refused() {
    let mut world = ideal_world(1);
    world.add_node(
        "steady",
        fixed_at(10.0, 10.0),
        &[RadioTech::Wlan],
        Box::<Probe>::default(),
    );
    let sprint = MobilityModel::walk(Point::new(0.0, 50.0), Point::new(100.0, 50.0), 5.0);
    world.add_node("sprinter", sprint, &[RadioTech::Wlan], Box::<Probe>::default());
}

/// Scans in rounds: each round starts at a multiple of `ROUND`, a per-node
/// jitter of less than one window later, so that while the scans are in the
/// air no node has anything to do and no barrier re-anchors the walkers.
#[derive(Default)]
struct Sweeper {
    jitter: Option<SimDuration>,
    hits: Vec<(SimTime, Vec<NodeId>)>,
}

const ROUND: SimDuration = SimDuration::from_secs(10);

impl Sweeper {
    fn next_round(&mut self, ctx: &mut impl Ctx) {
        let jitter = *self
            .jitter
            .get_or_insert_with(|| SimDuration::from_secs_f64(ctx.rng().uniform_f64(0.0, 0.4)));
        let round = ROUND.as_micros();
        let next = SimTime::from_micros((ctx.now().as_micros() / round + 1) * round) + jitter;
        ctx.schedule(next - ctx.now(), TICK);
    }
}

impl Agent for Sweeper {
    fn on_start<C: Ctx>(&mut self, ctx: &mut C) {
        self.next_round(ctx);
    }
    fn on_timer<C: Ctx>(&mut self, ctx: &mut C, _token: TimerToken) {
        ctx.start_inquiry(RadioTech::Wlan);
    }
    fn on_inquiry_complete<C: Ctx>(&mut self, ctx: &mut C, _tech: RadioTech, hits: Vec<InquiryHit>) {
        self.hits.push((ctx.now(), hits.iter().map(|h| h.node).collect()));
        self.next_round(ctx);
    }
}

/// Every inquiry of a 1 000-node city — 80 % fixed, walkers at the speed
/// bound, one crash and restart, newcomers between runs, and 4 s scans in
/// the air over windows with no event, so that anchors age seven windows —
/// is held by the test build's
/// cross-check in `complete_inquiry` to a scan of every node with the exact
/// predicate, in id order; at 1 and at 3 shards, with the same hits.
#[test]
fn every_sharded_inquiry_answers_what_a_scan_of_every_node_answers() {
    let run = |shards: usize| {
        let side = 900.0;
        let mut config = ShardedConfig::new(0x0AC1E, Rect::square(side));
        config.shards = shards;
        config.radio.wlan.inquiry_duration = SimDuration::from_secs(4);
        let bound = config.max_speed_mps;
        let mut world = ShardedWorld::new(config);
        let mut placer = SimRng::new(0x0AC1E);
        let mut crowd = |world: &mut ShardedWorld, count: usize| {
            for _ in 0..count {
                let i = world.node_count();
                let at = Point::new(placer.uniform_f64(0.0, side), placer.uniform_f64(0.0, side));
                let mobility = match i % 10 {
                    0 => MobilityModel::walk(at, Point::new(side - at.x, side - at.y), bound),
                    5 => MobilityModel::RandomWaypoint {
                        area: Rect::square(side),
                        start: at,
                        min_speed_mps: bound,
                        max_speed_mps: bound,
                        pause: SimDuration::from_secs(3),
                    },
                    _ => MobilityModel::stationary(at),
                };
                world.add_node(format!("n{i}"), mobility, &[RadioTech::Wlan], Box::<Sweeper>::default());
            }
        };
        crowd(&mut world, 900);
        let crashed = NodeId::from_raw(17);
        world.install_fault_plan(crashed, &FaultPlan::new().crash_at(ms(15_000)).restart_at(ms(25_000)));
        world.run_for(SimDuration::from_secs(20));
        crowd(&mut world, 50);
        world.run_for(SimDuration::from_secs(20));
        crowd(&mut world, 50);
        world.run_for(SimDuration::from_secs(20));
        let (checked, oldest) = world.shards.iter().fold((0, SimDuration::ZERO), |(n, age), s| {
            (n + s.out.checked.0, age.max(s.out.checked.1))
        });
        let hits: Vec<_> = world
            .node_ids()
            .collect::<Vec<_>>()
            .into_iter()
            .map(|node| {
                world
                    .with_agent::<Sweeper, _>(node, |s| s.hits.clone())
                    .expect("a Sweeper")
            })
            .collect();
        assert_eq!(world.fault_stats().crashes, 1);
        (checked, oldest, hits, world.window())
    };
    let (checked, oldest, hits, window) = run(1);
    // Rounds start at 10 s: 900 nodes scan in 5, the newcomers of 20 s in 3
    // and those of 40 s in 1, less the crashed node's round at 20 s.
    assert_eq!(checked, 900 * 5 + 50 * 3 + 50 - 1, "inquiries cross-checked");
    assert!(oldest > window * 3, "anchors aged only {oldest:?}");
    let walker_hits = hits
        .iter()
        .flatten()
        .flat_map(|(_, seen)| seen)
        .filter(|id| matches!(id.as_raw() % 10, 0 | 5))
        .count();
    assert!(walker_hits > 1_000, "{walker_hits} hits on walkers");
    let (checked_3, _, hits_3, _) = run(3);
    assert_eq!(checked_3, checked);
    assert_eq!(hits_3, hits);
}

/// A cluster plus outliers 10 000 km apart: both engines' cell tables stay
/// sized by the node count, answer exactly, and a query wider than the
/// table visits each node once.
#[test]
fn both_engines_keep_a_bounded_cell_table_over_a_city_with_far_outliers() {
    let mut placer = SimRng::new(0xFA7);
    let spots: Vec<Point> = (0..300)
        .map(|i| {
            if i % 30 == 0 {
                let k = (i / 30) as f64 - 5.0;
                Point::new(k * 1e7, -k * 1e7)
            } else {
                Point::new(placer.uniform_f64(0.0, 200.0), placer.uniform_f64(0.0, 200.0))
            }
        })
        .collect();
    let bounded = |slots: usize| {
        assert!(slots <= 4 * spots.len() + 64, "{slots} slots for {} nodes", spots.len());
    };
    let no_duplicates = |mut ids: Vec<NodeId>| {
        let visited = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), visited, "a wide query visits each node once");
        assert_eq!(visited, spots.len(), "and every node");
    };

    let mut sequential = crate::world::World::new(crate::world::WorldConfig::with_seed(3));
    for (i, spot) in spots.iter().enumerate() {
        let mobility = if i % 7 == 0 {
            MobilityModel::walk(*spot, spot.offset(150.0, 0.0), 1.5)
        } else {
            MobilityModel::stationary(*spot)
        };
        sequential.add_node(
            format!("n{i}"),
            mobility,
            &[RadioTech::Wlan],
            Box::new(OnWorld(Chatter::default())),
        );
    }
    sequential.run_until(ms(30_000));
    bounded(sequential.topology.grid_slots());
    for node in sequential.node_ids().collect::<Vec<_>>() {
        assert_eq!(
            sequential.neighbors_in_range(node, RadioTech::Wlan),
            sequential.neighbors_in_range_reference(node, RadioTech::Wlan)
        );
    }
    let mut wide = Vec::new();
    sequential
        .topology
        .for_each_near(Point::ORIGIN, 1e9, |entry| wide.push(entry.node()));
    wide.sort_unstable();
    no_duplicates(wide);

    let mut sharded = ideal_world(2);
    for (i, spot) in spots.iter().enumerate() {
        let mobility = if i % 7 == 0 {
            MobilityModel::walk(*spot, spot.offset(150.0, 0.0), 1.5)
        } else {
            MobilityModel::stationary(*spot)
        };
        sharded.add_node(format!("n{i}"), mobility, &[RadioTech::Wlan], Probe::scanning());
    }
    sharded.run_until(ms(30_000));
    bounded(sharded.grid.slot_count());
    assert!(sharded.shards.iter().map(|s| s.out.checked.0).sum::<u64>() > 1_000);
    no_duplicates(sharded.grid.query(Point::ORIGIN, 1e9));
}
