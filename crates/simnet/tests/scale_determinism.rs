//! Determinism at scale: a 500-node world must produce the identical event
//! trace for the same seed — with and without fault plans installed — and
//! the spatial-grid discovery path must agree with the full-scan reference
//! oracle at every sampled instant.

use simnet::agent::{Agent, Ctx};
use simnet::prelude::*;

/// FNV-1a, the digest the trace is folded into.
fn fnv(digest: u64, value: u64) -> u64 {
    let mut d = digest;
    for byte in value.to_le_bytes() {
        d ^= byte as u64;
        d = d.wrapping_mul(0x100000001b3);
    }
    d
}

const INQUIRE: TimerToken = TimerToken(1);

/// A lightweight agent that scans periodically, connects to its best hit,
/// exchanges a payload and folds everything it observes into a digest. One
/// body for both engines: `OnWorld(Pulse)` on `World`, `Pulse` on
/// `ShardedWorld`.
struct Pulse {
    interval: SimDuration,
    digest: u64,
    attached: bool,
}

impl Pulse {
    fn new(interval: SimDuration) -> Self {
        Pulse {
            interval,
            digest: 0xcbf29ce484222325,
            attached: false,
        }
    }
    fn fold(&mut self, value: u64) {
        self.digest = fnv(self.digest, value);
    }
}

impl Agent for Pulse {
    fn on_start<C: Ctx>(&mut self, ctx: &mut C) {
        // Stagger the first scan so the world is not phase-locked.
        let jitter = SimDuration::from_millis(ctx.rng().range(0..5_000u64));
        ctx.schedule(jitter, INQUIRE);
    }
    fn on_restart<C: Ctx>(&mut self, ctx: &mut C) {
        // Reborn with fresh session state; the digest survives as the
        // measurement record of both lives.
        self.attached = false;
        self.fold(0x60);
        Agent::on_start(self, ctx);
    }
    fn on_timer<C: Ctx>(&mut self, ctx: &mut C, _token: TimerToken) {
        ctx.start_inquiry(RadioTech::Bluetooth);
        ctx.schedule(self.interval, INQUIRE);
    }
    fn on_inquiry_complete<C: Ctx>(&mut self, ctx: &mut C, _tech: RadioTech, hits: Vec<InquiryHit>) {
        self.fold(ctx.now().as_micros());
        for hit in &hits {
            self.fold(hit.node.as_raw());
            self.fold(hit.quality as u64);
        }
        if !self.attached {
            if let Some(best) = hits.iter().max_by_key(|h| (h.quality, std::cmp::Reverse(h.node))) {
                ctx.connect(best.node, RadioTech::Bluetooth);
                self.attached = true;
            }
        }
    }
    fn on_incoming_connection<C: Ctx>(&mut self, _ctx: &mut C, incoming: IncomingConnection) -> bool {
        self.fold(0x10 + incoming.from.as_raw());
        true
    }
    fn on_connected<C: Ctx>(&mut self, ctx: &mut C, _attempt: AttemptId, link: LinkId, peer: NodeId, _tech: RadioTech) {
        self.fold(0x20 + peer.as_raw());
        let _ = ctx.send(link, vec![0xAB; 32].into());
    }
    fn on_connect_failed<C: Ctx>(
        &mut self,
        _ctx: &mut C,
        _attempt: AttemptId,
        peer: NodeId,
        _tech: RadioTech,
        _error: ConnectError,
    ) {
        self.fold(0x30 + peer.as_raw());
        self.attached = false;
    }
    fn on_message<C: Ctx>(&mut self, _ctx: &mut C, link: LinkId, from: NodeId, payload: Payload) {
        self.fold(0x40 + from.as_raw());
        self.fold(link.0);
        self.fold(payload.len() as u64);
    }
    fn on_disconnected<C: Ctx>(&mut self, _ctx: &mut C, link: LinkId, peer: NodeId, _reason: DisconnectReason) {
        self.fold(0x50 + peer.as_raw());
        self.fold(link.0);
        self.attached = false;
    }
}

/// Seeded placement in a 300 m square; every fourth node roams it as a
/// random-waypoint walker if `walkers`, the rest stand still.
fn placement(seed: u64, nodes: usize, walkers: bool) -> Vec<MobilityModel> {
    let area = Rect::square(300.0);
    let mut placer = SimRng::new(seed ^ 0x5EED);
    (0..nodes)
        .map(|i| {
            let start = Point::new(placer.uniform_f64(0.0, 300.0), placer.uniform_f64(0.0, 300.0));
            if walkers && i % 4 == 0 {
                MobilityModel::RandomWaypoint {
                    area,
                    start,
                    min_speed_mps: 0.5,
                    max_speed_mps: 2.0,
                    pause: SimDuration::from_secs(10),
                }
            } else {
                MobilityModel::stationary(start)
            }
        })
        .collect()
}

const SCAN_EVERY: SimDuration = SimDuration::from_secs(15);

fn build_city(seed: u64, nodes: usize, walkers: bool) -> World {
    let mut world = World::new(WorldConfig::with_seed(seed));
    for (i, mobility) in placement(seed, nodes, walkers).into_iter().enumerate() {
        world.add_node(
            format!("n{i}"),
            mobility,
            &[RadioTech::Bluetooth],
            Box::new(OnWorld(Pulse::new(SCAN_EVERY))),
        );
    }
    world
}

/// The seeded plan of node `i`: churn on every tenth node, a radio outage on
/// top on every twentieth — the fault classes both engines support.
fn churn_and_outage_plan(seed: u64, i: usize) -> Option<FaultPlan> {
    if !i.is_multiple_of(10) {
        return None;
    }
    let mut rng = SimRng::new(seed ^ 0xFA17_CAFE).derive(i as u64);
    let plan = FaultPlan::churn(
        SimTime::from_secs(60),
        SimDuration::from_secs(25),
        SimDuration::from_secs(8),
        &mut rng,
    );
    Some(if i.is_multiple_of(20) {
        plan.radio_outage(
            RadioTech::Bluetooth,
            SimTime::from_secs(10 + (i as u64 % 30)),
            SimDuration::from_secs(5),
        )
    } else {
        plan
    })
}

/// Installs [`churn_and_outage_plan`] on every node it plans for.
fn install_fault_plans(world: &mut World, seed: u64) {
    for (i, node) in world.node_ids().collect::<Vec<_>>().into_iter().enumerate() {
        if let Some(plan) = churn_and_outage_plan(seed, i) {
            world.install_fault_plan(node, plan);
        }
    }
}

/// Runs the 500-node world and returns its event-trace digest: per-node
/// digests folded with the global metric counters.
fn trace_digest_with_faults(seed: u64, check_oracle: bool, faults: bool) -> u64 {
    let mut world = build_city(seed, 500, true);
    if faults {
        install_fault_plans(&mut world, seed);
    }
    let mut digest = 0xcbf29ce484222325u64;
    for _round in 0..6 {
        world.run_for(SimDuration::from_secs(10));
        if check_oracle {
            // The grid path and the full-scan reference must agree for every
            // node, mid-run, while mobile nodes are crossing cells.
            for node in world.node_ids().collect::<Vec<_>>() {
                let grid = world.neighbors_in_range(node, RadioTech::Bluetooth);
                let reference = world.neighbors_in_range_reference(node, RadioTech::Bluetooth);
                assert_eq!(grid, reference, "grid/scan divergence for {node} at {:?}", world.now());
            }
        }
    }
    for node in world.node_ids().collect::<Vec<_>>() {
        let d = world.with_agent::<Pulse, _>(node, |p, _| p.digest).unwrap_or(0);
        digest = fnv(digest, d);
    }
    let g = world.metrics().global();
    for v in [
        g.inquiries_started,
        g.inquiry_hits,
        g.connect_attempts,
        g.connects_established,
        g.connect_failures,
        g.messages_sent,
        g.messages_delivered,
        g.messages_lost,
        g.links_broken,
    ] {
        digest = fnv(digest, v);
    }
    let f = world.fault_stats();
    for v in [f.crashes, f.restarts, f.radio_outages, f.radio_restores] {
        digest = fnv(digest, v);
    }
    for event in world.lifecycle_events() {
        digest = fnv(digest, event.at.as_micros());
        digest = fnv(digest, event.node.as_raw());
        let kind = match event.kind {
            LifecycleKind::NodeDown => 1,
            LifecycleKind::NodeUp => 2,
            LifecycleKind::RadioDown(tech) => 0x10 + tech as u64,
            LifecycleKind::RadioUp(tech) => 0x20 + tech as u64,
        };
        digest = fnv(digest, kind);
    }
    digest
}

fn trace_digest(seed: u64, check_oracle: bool) -> u64 {
    trace_digest_with_faults(seed, check_oracle, false)
}

/// Runs the 500-node churn city for 90 s with an optional partition window
/// cutting every seventh node off between t = 20 s and t = 70 s, and folds
/// the adversary counters into the trace digest alongside everything
/// `trace_digest_with_faults` already covers.
fn partitioned_churn_digest(seed: u64, partitioned: bool) -> (u64, AdversaryStats) {
    let mut world = build_city(seed, 500, true);
    install_fault_plans(&mut world, seed);
    if partitioned {
        let island: Vec<NodeId> = world
            .node_ids()
            .collect::<Vec<_>>()
            .into_iter()
            .enumerate()
            .filter_map(|(i, node)| (i % 7 == 0).then_some(node))
            .collect();
        world.install_adversary_plan(AdversaryPlan::new().partition(
            SimTime::from_secs(20),
            SimTime::from_secs(70),
            island,
        ));
    }
    // 90 s so the run spans the partition opening (20 s), the churn phase
    // (crashes begin at 60 s, inside the cut) and the heal (70 s).
    world.run_for(SimDuration::from_secs(90));
    let mut digest = 0xcbf29ce484222325u64;
    for node in world.node_ids().collect::<Vec<_>>() {
        let d = world.with_agent::<Pulse, _>(node, |p, _| p.digest).unwrap_or(0);
        digest = fnv(digest, d);
    }
    let g = world.metrics().global();
    for v in [
        g.inquiries_started,
        g.inquiry_hits,
        g.connect_attempts,
        g.connects_established,
        g.connect_failures,
        g.messages_sent,
        g.messages_delivered,
        g.messages_lost,
        g.links_broken,
    ] {
        digest = fnv(digest, v);
    }
    let f = world.fault_stats();
    for v in [f.crashes, f.restarts, f.radio_outages] {
        digest = fnv(digest, v);
    }
    let a = world.adversary_stats();
    for v in [
        a.partitions_started,
        a.partitions_healed,
        a.partition_drops,
        a.cut_links_broken,
        a.frames_tampered,
        a.frames_injected,
    ] {
        digest = fnv(digest, v);
    }
    (digest, a)
}

// ---------------------------------------------------------------------
// Full-PeerHood determinism: the real middleware stack at 1k nodes
// ---------------------------------------------------------------------

mod full_stack {
    use std::sync::Arc;

    use peerhood::application::Application;
    use peerhood::config::{DiscoveryMode, PeerHoodConfig};
    use peerhood::ids::{ConnectionId, DeviceAddress};
    use peerhood::node::{PeerHoodApi, PeerHoodNode};
    use peerhood::service::ServiceInfo;
    use simnet::prelude::*;

    /// Minimal full-stack workload: every node registers a `pulse` service,
    /// attaches to the best provider discovery finds and pings it.
    #[derive(Default)]
    pub struct PulseApp {
        current: Option<ConnectionId>,
        connecting: bool,
        pub sessions: u64,
        pub payloads: u64,
    }

    impl PulseApp {
        fn try_attach(&mut self, api: &mut PeerHoodApi<'_>) {
            if self.current.is_none() && !self.connecting {
                if let Ok(conn) = api.connect_to_service("pulse") {
                    self.current = Some(conn);
                    self.connecting = true;
                }
            }
        }
    }

    impl Application for PulseApp {
        fn on_start(&mut self, api: &mut PeerHoodApi<'_>) {
            self.current = None;
            self.connecting = false;
            let _ = api.register_service(ServiceInfo::new("pulse", "", 5));
            api.schedule_timer(SimDuration::from_secs(7), 1);
        }
        fn on_device_discovered(&mut self, api: &mut PeerHoodApi<'_>, _address: DeviceAddress) {
            self.try_attach(api);
        }
        fn on_connected(&mut self, _api: &mut PeerHoodApi<'_>, conn: ConnectionId) {
            if self.current == Some(conn) {
                self.connecting = false;
                self.sessions += 1;
            }
        }
        fn on_connect_failed(
            &mut self,
            _api: &mut PeerHoodApi<'_>,
            conn: ConnectionId,
            _error: peerhood::error::PeerHoodError,
        ) {
            if self.current == Some(conn) {
                self.current = None;
                self.connecting = false;
            }
        }
        fn on_data(&mut self, _api: &mut PeerHoodApi<'_>, _conn: ConnectionId, _payload: Vec<u8>) {
            self.payloads += 1;
        }
        fn on_disconnected(&mut self, _api: &mut PeerHoodApi<'_>, conn: ConnectionId, _graceful: bool) {
            if self.current == Some(conn) {
                self.current = None;
                self.connecting = false;
            }
        }
        fn on_timer(&mut self, api: &mut PeerHoodApi<'_>, _token: u64) {
            match self.current {
                Some(conn) if !self.connecting => {
                    let _ = api.send(conn, b"pulse".to_vec());
                }
                _ => self.try_attach(api),
            }
            api.schedule_timer(SimDuration::from_secs(7), 1);
        }
    }

    /// Shared configuration of the 1k-node full-stack city.
    pub fn config() -> Arc<PeerHoodConfig> {
        let mut cfg = PeerHoodConfig::new("pulse-dev", peerhood::device::MobilityClass::Hybrid);
        cfg.discovery.mode = DiscoveryMode::TwoHop;
        cfg.discovery.service_check_interval = SimDuration::from_secs(60);
        cfg.monitor.interval = SimDuration::from_secs(5);
        cfg.into()
    }

    /// Builds the world: 1000 Bluetooth devices, a quarter mobile, at a
    /// density that gives each a handful of neighbours.
    pub fn build(seed: u64) -> World {
        let side = 250.0;
        let mut world = World::new(WorldConfig::with_seed(seed));
        let area = Rect::square(side);
        let shared = config();
        let mut placer = SimRng::new(seed ^ 0xF011_57AC);
        for i in 0..1_000 {
            let start = Point::new(placer.uniform_f64(0.0, side), placer.uniform_f64(0.0, side));
            let mobility = if i % 4 == 0 {
                MobilityModel::RandomWaypoint {
                    area,
                    start,
                    min_speed_mps: 0.5,
                    max_speed_mps: 2.0,
                    pause: SimDuration::from_secs(10),
                }
            } else {
                MobilityModel::stationary(start)
            };
            world.add_node(
                format!("p{i}"),
                mobility,
                &[RadioTech::Bluetooth],
                Box::new(OnWorld(
                    PeerHoodNode::builder()
                        .config(Arc::clone(&shared))
                        .app(PulseApp::default())
                        .build(),
                )),
            );
        }
        world
    }

    /// Runs the full-stack city under churn and folds everything observable
    /// — app counters, storage statistics, middleware counters, world
    /// metrics, fault statistics and the lifecycle stream — into one digest.
    pub fn digest(seed: u64, fnv: impl Fn(u64, u64) -> u64) -> u64 {
        let mut world = build(seed);
        super::install_fault_plans(&mut world, seed);
        world.run_for(SimDuration::from_secs(45));
        let mut digest = 0xcbf29ce484222325u64;
        for node in world.node_ids().collect::<Vec<_>>() {
            let per_node = world
                .with_agent::<PeerHoodNode, _>(node, |n, _| {
                    let stats = n.storage_stats();
                    let app_counts = n.with_app(|a: &PulseApp| (a.sessions, a.payloads)).unwrap_or((0, 0));
                    [
                        stats.known_devices as u64,
                        stats.direct_neighbors as u64,
                        stats.known_services as u64,
                        n.handover_completions(),
                        n.connections().len() as u64,
                        app_counts.0,
                        app_counts.1,
                    ]
                })
                .unwrap_or([u64::MAX; 7]);
            for v in per_node {
                digest = fnv(digest, v);
            }
        }
        let g = world.metrics().global();
        for v in [
            g.inquiries_started,
            g.inquiry_hits,
            g.connect_attempts,
            g.connects_established,
            g.messages_sent,
            g.messages_delivered,
            g.messages_lost,
            g.links_broken,
        ] {
            digest = fnv(digest, v);
        }
        let f = world.fault_stats();
        for v in [f.crashes, f.restarts] {
            digest = fnv(digest, v);
        }
        for event in world.lifecycle_events() {
            digest = fnv(digest, event.at.as_micros());
            digest = fnv(digest, event.node.as_raw());
        }
        digest
    }
}

#[test]
fn same_seed_identical_full_peerhood_digest_at_1k_nodes() {
    // The complete middleware stack — daemon, discovery plugins, engine,
    // connection table, handover machinery, shared config, cached
    // advertisement frames, shared payloads — on 1000 nodes under churn and
    // radio outages must reproduce byte-for-byte from the seed. This pins the
    // allocation-lean data path: any hidden nondeterminism (iteration over
    // unordered state, cache-dependent behaviour, payload aliasing bugs)
    // shows up as a digest mismatch.
    let first = full_stack::digest(1008, fnv);
    let second = full_stack::digest(1008, fnv);
    assert_eq!(first, second, "same seed must reproduce the identical full-stack run");
    let other = full_stack::digest(1009, fnv);
    assert_ne!(first, other, "different seeds should not collide");
}

#[test]
fn link_table_holds_only_live_links_under_long_churn() {
    // The bounded-state claim: over a long churn run the link table holds
    // open links and closed links that still have a payload in flight, and
    // nothing else. Every node churns here (MTBF 20 s over a 400 s horizon
    // ≈ 20 crashes each), so nearly every link ever set up also breaks.
    let mut world = build_city(3001, 200, true);
    let planner = SimRng::new(0xC0FF_EE00);
    for (i, node) in world.node_ids().collect::<Vec<_>>().into_iter().enumerate() {
        let mut rng = planner.derive(i as u64);
        let plan = FaultPlan::churn(
            SimTime::from_secs(400),
            SimDuration::from_secs(20),
            SimDuration::from_secs(5),
            &mut rng,
        );
        world.install_fault_plan(node, plan);
    }
    let mut peak_active = 0usize;
    for step in 0..40 {
        world.run_for(SimDuration::from_secs(10));
        let active = world.active_link_count();
        peak_active = peak_active.max(active);
        // A closed link stays only while something sent on it is in flight,
        // so there are at most as many of those as payloads in flight.
        let g = world.metrics().global();
        let in_flight = g.messages_sent - g.messages_delivered - g.messages_lost;
        assert!(
            active as u64 <= world.open_link_count() as u64 + in_flight,
            "step {step}: {active} links in the table, {} open, {in_flight} payloads in flight",
            world.open_link_count()
        );
    }
    assert!(
        world.metrics().global().links_broken > 200,
        "the run must actually close links"
    );
    assert!(
        peak_active < 2 * 200,
        "link table must stay proportional to the population, got peak {peak_active}"
    );
    // The per-node index names exactly the links in the table.
    let mut indexed = 0;
    for node in world.node_ids() {
        for info in world.links_of(node) {
            assert_eq!(
                world.link_info(info.id),
                Some(info),
                "{node} indexes a link not in the table"
            );
            assert!(info.initiator == node || info.acceptor == node);
            indexed += 1;
        }
    }
    assert_eq!(indexed, 2 * world.active_link_count());
}

#[test]
fn same_seed_identical_trace_digest_at_500_nodes() {
    let first = trace_digest(2008, true);
    let second = trace_digest(2008, false);
    assert_eq!(first, second, "same seed must reproduce the identical event trace");
    // A different seed must give a different trace (astronomically unlikely
    // to collide if the RNG plumbing is healthy).
    let other = trace_digest(2009, false);
    assert_ne!(first, other, "different seeds should not collide");
}

#[test]
fn same_seed_and_fault_plan_identical_trace_digest_at_500_nodes() {
    // Crashes, restarts and radio outages included: the whole
    // event trace — and the lifecycle stream itself — must reproduce from
    // the seed. The oracle check runs mid-churn, so the grid's
    // eviction/reinsertion path is compared against the full scan while
    // nodes are dying and rebooting.
    let first = trace_digest_with_faults(2008, true, true);
    let second = trace_digest_with_faults(2008, false, true);
    assert_eq!(
        first, second,
        "same seed + same fault plan must reproduce the identical event trace"
    );
    // The faults must actually change the run relative to the fault-free
    // world, and a different seed must diverge.
    assert_ne!(first, trace_digest(2008, false), "the plans must have bitten");
    assert_ne!(
        first,
        trace_digest_with_faults(2009, false, true),
        "different seeds should not collide"
    );
}

#[test]
fn partitioned_churn_city_trace_is_deterministic_and_the_cut_bites() {
    // Partitions layered on top of churn and outages: the full
    // adversarial trace — including the adversary counters themselves —
    // must reproduce from the seed, and the cut must visibly change the run
    // relative to the partition-free city.
    let (first, stats) = partitioned_churn_digest(2008, true);
    let (second, _) = partitioned_churn_digest(2008, true);
    assert_eq!(
        first, second,
        "same seed + same partition window must reproduce the identical event trace"
    );
    assert_eq!(stats.partitions_started, 1, "the window must have opened");
    assert_eq!(
        stats.partitions_healed, 1,
        "the window must have healed before the run ended"
    );
    assert!(
        stats.cut_links_broken + stats.partition_drops > 0,
        "cutting a 71-node island out of a 500-node city must break links or drop payloads"
    );
    let (unpartitioned, _) = partitioned_churn_digest(2008, false);
    assert_ne!(first, unpartitioned, "the partition must have bitten");
    let (other_seed, _) = partitioned_churn_digest(2009, true);
    assert_ne!(first, other_seed, "different seeds should not collide");
}

// ---------------------------------------------------------------------
// Sharded-world determinism: shard count must be invisible in the trace
// ---------------------------------------------------------------------

mod sharded {
    use simnet::prelude::*;

    use super::Pulse;

    pub fn install_fault_plans(world: &mut ShardedWorld, seed: u64) {
        for (i, node) in world.node_ids().collect::<Vec<_>>().into_iter().enumerate() {
            if let Some(plan) = super::churn_and_outage_plan(seed, i) {
                world.install_fault_plan(node, &plan);
            }
        }
    }

    /// 480 Bluetooth nodes, a quarter mobile, with churn on every tenth
    /// node and radio outages on every twentieth — the fault classes the
    /// sharded engine supports (flapping links are sequential-world-only).
    pub fn build_city(seed: u64, shards: usize) -> ShardedWorld {
        let mut world = city(seed, shards, 480, true);
        install_fault_plans(&mut world, seed);
        world
    }

    /// `super::build_city` on the sharded engine: same seed, same radio
    /// profiles, same link-check interval, same placement, same agent.
    pub fn city(seed: u64, shards: usize, nodes: usize, walkers: bool) -> ShardedWorld {
        let mut config = ShardedConfig::new(seed, Rect::square(300.0));
        config.shards = shards;
        config.max_speed_mps = 2.0;
        let mut world = ShardedWorld::new(config);
        for (i, mobility) in super::placement(seed, nodes, walkers).into_iter().enumerate() {
            world.add_node(
                format!("n{i}"),
                mobility,
                &[RadioTech::Bluetooth],
                Box::new(Pulse::new(super::SCAN_EVERY)),
            );
        }
        world
    }

    /// The hotspot twin of `build_city`: the same churn and radio-outage
    /// plans, but 70% of the nodes mill inside a district on the right of
    /// the city — the load skew the load-balanced partition exists for.
    pub fn build_hotspot_city(seed: u64, shards: usize) -> ShardedWorld {
        let side = 300.0;
        let area = Rect::square(side);
        let district = Rect::new(0.65 * side, 0.25 * side, 0.95 * side, 0.75 * side);
        let mut config = ShardedConfig::new(seed, area);
        config.shards = shards;
        config.max_speed_mps = 2.0;
        config.window = Some(SimDuration::from_secs(1));
        let mut world = ShardedWorld::new(config);
        let mut placer = SimRng::new(seed ^ 0x5EED);
        for i in 0..480 {
            let mobility = if i % 10 < 7 {
                // The crowd: milling pedestrians inside the district.
                let start = Point::new(
                    placer.uniform_f64(district.min_x, district.max_x),
                    placer.uniform_f64(district.min_y, district.max_y),
                );
                MobilityModel::RandomWaypoint {
                    area: district,
                    start,
                    min_speed_mps: 0.5,
                    max_speed_mps: 2.0,
                    pause: SimDuration::from_secs(10),
                }
            } else {
                // Sparse stationary background across the whole city.
                let start = Point::new(placer.uniform_f64(0.0, side), placer.uniform_f64(0.0, side));
                MobilityModel::stationary(start)
            };
            world.add_node(
                format!("n{i}"),
                mobility,
                &[RadioTech::Bluetooth],
                Box::new(Pulse::new(super::SCAN_EVERY)),
            );
        }
        install_fault_plans(&mut world, seed);
        world
    }

    /// Runs the city for 60 s and folds every observable — per-agent
    /// digests, global counters, fault statistics and the lifecycle
    /// stream — into one trace digest.
    pub fn trace_digest(seed: u64, shards: usize) -> u64 {
        let mut world = build_city(seed, shards);
        world.run_for(SimDuration::from_secs(60));
        world_digest(&mut world)
    }

    /// `trace_digest` over the hotspot city, also reporting how many
    /// barrier-time rebalances fired.
    pub fn hotspot_trace_digest(seed: u64, shards: usize) -> (u64, u64) {
        let mut world = build_hotspot_city(seed, shards);
        world.run_for(SimDuration::from_secs(60));
        let rebalances = world.partition_stats().rebalances;
        (world_digest(&mut world), rebalances)
    }

    /// Folds every observable of a finished run into one trace digest.
    pub fn world_digest(world: &mut ShardedWorld) -> u64 {
        let fnv = super::fnv;
        let mut digest = 0xcbf29ce484222325u64;
        for node in world.node_ids().collect::<Vec<_>>() {
            let d = world.with_agent::<Pulse, _>(node, |p| p.digest).unwrap_or(0);
            digest = fnv(digest, d);
        }
        let g = *world.metrics().global();
        for v in [
            g.inquiries_started,
            g.inquiry_hits,
            g.connect_attempts,
            g.connects_established,
            g.connect_failures,
            g.messages_sent,
            g.messages_delivered,
            g.messages_lost,
            g.links_broken,
        ] {
            digest = fnv(digest, v);
        }
        let f = world.fault_stats();
        for v in [f.crashes, f.restarts, f.radio_outages, f.radio_restores] {
            digest = fnv(digest, v);
        }
        for event in world.lifecycle_events() {
            digest = fnv(digest, event.at.as_micros());
            digest = fnv(digest, event.node.as_raw());
            let kind = match event.kind {
                LifecycleKind::NodeDown => 1,
                LifecycleKind::NodeUp => 2,
                LifecycleKind::RadioDown(tech) => 0x10 + tech as u64,
                LifecycleKind::RadioUp(tech) => 0x20 + tech as u64,
            };
            digest = fnv(digest, kind);
        }
        digest
    }
}

/// `sharded::trace_digest` / `sharded::hotspot_trace_digest` as the commit
/// before the per-node pass computed them (any shard count, stripes re-cut
/// or not) — but for
/// hotspot seed 9022, re-blessed (from `0xe3b7_ccc5_2cdf_6e5f`) when link
/// checks stopped polling: a peer's `Broken` is no longer pre-empted by a
/// check queued for the same window start, so an agent's timer due at that
/// instant now runs before the tear-down. The other three never had the tie.
const PINNED_CITY_TRACE_4217: u64 = 0x8ac0_4796_5b22_48d7;
const PINNED_CITY_TRACE_4218: u64 = 0xe502_e298_0284_4096;
const PINNED_HOTSPOT_TRACE_9021: u64 = 0xb847_a1ec_c6a5_0a72;
const PINNED_HOTSPOT_TRACE_9022: u64 = 0x5c29_a26e_3d4f_35fd;

#[test]
fn sharded_world_trace_is_identical_at_1_2_and_8_shards() {
    // The tentpole determinism claim: shard count is pure load
    // partitioning. A 480-node Bluetooth city under churn and radio
    // outages must produce the byte-identical trace — every agent
    // callback, every counter, every lifecycle event — whether it runs on
    // one shard, two or eight. Any ordering leak (barrier merge, RNG
    // stream, migration, fault delivery) shows up as a digest mismatch.
    let one = sharded::trace_digest(4217, 1);
    let two = sharded::trace_digest(4217, 2);
    let eight = sharded::trace_digest(4217, 8);
    assert_eq!(one, two, "2-shard trace diverged from the 1-shard reference");
    assert_eq!(one, eight, "8-shard trace diverged from the 1-shard reference");
    // And the digest must actually be seed-sensitive, not a constant.
    let other = sharded::trace_digest(4218, 2);
    assert_ne!(one, other, "different seeds should not collide");
    // Equal to itself across shard counts is not enough: pinned from the
    // commit before the window loop became a per-node pass (PR 17), so an
    // engine rewrite that moves every layout the same way still fails here.
    assert_eq!(
        (one, other),
        (PINNED_CITY_TRACE_4217, PINNED_CITY_TRACE_4218),
        "the sharded engine's trace moved across commits: {one:#018x} {other:#018x}"
    );
}

#[test]
fn hotspot_city_trace_is_invariant_to_shards_and_adaptivity() {
    // The load-balancing determinism claim: the partition may move stripe
    // boundaries at any barrier, but boundaries only decide which worker
    // executes a node — never what the node observes. A hotspot city (70%
    // of nodes in one district) under churn and radio outages must produce
    // the byte-identical trace at 1, 2 and 8 shards, even though one stripe
    // never re-cuts and the others execute on a genuinely different
    // partition.
    let (reference, one_shard_rebalances) = sharded::hotspot_trace_digest(9021, 1);
    assert_eq!(one_shard_rebalances, 0);
    for shards in [2, 8] {
        let (digest, rebalances) = sharded::hotspot_trace_digest(9021, shards);
        assert_eq!(digest, reference, "trace diverged at shards={shards}");
        // The invariance must not be vacuous: the skewed city has to
        // actually trip the hysteresis gate and re-cut the partition.
        assert!(
            rebalances > 0,
            "the hotspot must trigger a rebalance at shards={shards}"
        );
    }
    // And the digest must be seed-sensitive, not a constant.
    let (other, _) = sharded::hotspot_trace_digest(9022, 2);
    assert_ne!(reference, other, "different seeds should not collide");
    assert_eq!(
        (reference, other),
        (PINNED_HOTSPOT_TRACE_9021, PINNED_HOTSPOT_TRACE_9022),
        "the sharded engine's hotspot trace moved across commits: {reference:#018x} {other:#018x}"
    );
}

#[test]
fn full_peerhood_city_actually_runs_the_middleware() {
    let mut world = full_stack::build(77);
    world.run_for(SimDuration::from_secs(45));
    let g = *world.metrics().global();
    eprintln!(
        "inquiries={} hits={} connects={} delivered={}",
        g.inquiries_started, g.inquiry_hits, g.connects_established, g.messages_delivered
    );
    assert!(g.inquiries_started >= 1_000, "every node must scan");
    assert!(g.inquiry_hits > 0, "devices must hear each other");
    assert!(g.connects_established > 0, "daemon fetches/sessions must connect");
    assert!(g.messages_delivered > 0, "frames must flow");
}

// ---------------------------------------------------------------------
// The differential oracle: one agent, one seeded city, both engines
// ---------------------------------------------------------------------

mod differential {
    use simnet::prelude::*;

    /// A field the engines are known to count differently:
    /// `(field, on World, on shards, cause)`.
    pub type Gap = (&'static str, u64, u64, &'static str);

    pub const STALE: &str = "window-stale snapshot: a neighbour that crashed, went dark or began its own Bluetooth \
        scan inside the window still answers until the next window start";
    pub const HANDSHAKE: &str = "the handshake crosses up to two barriers: World resolves an attempt in one event, \
        shards judge the peer's radio on the snapshot and accept up to a window later, so a crash, outage or walk \
        in between falls on the other side of the connect";
    pub const FOLLOWS: &str = "follows the rows above: who dials, sends and breaks is decided by the hits heard \
        and the connects made";
    pub const IN_FLIGHT: &str = "follows messages_sent, less what was sent in the last window: delivery is no \
        earlier than the next window start";
    pub const REBOOT_JITTER: &str = "a rebooted node jitters its first scan from its own stream, which the draws \
        behind the rows below have already moved";

    /// Everything both engines count, under one name per field.
    fn observe(g: &Counters, f: FaultStats, lifecycle: &[LifecycleEvent]) -> Vec<(&'static str, u64)> {
        let lifecycle = ("lifecycle_events", lifecycle.len() as u64);
        g.fields().chain(f.fields()).chain([lifecycle]).collect()
    }

    /// Runs the 400-node city for 60 s on `World` and on a one-shard
    /// `ShardedWorld` — same seed, radio profiles, link-check interval,
    /// placement, plans and agent — and holds the two against each other
    /// field by field. A field outside `gaps` must be equal; a field inside
    /// must read exactly its two pinned values, and they must differ (a gap
    /// that closed leaves the table). Fails with the whole table, so the
    /// failure *is* the gap list.
    pub fn compare(seed: u64, moving_and_failing: bool, gaps: &[Gap]) {
        let mut world = super::build_city(seed, 400, moving_and_failing);
        let mut shards = super::sharded::city(seed, 1, 400, moving_and_failing);
        if moving_and_failing {
            super::install_fault_plans(&mut world, seed);
            super::sharded::install_fault_plans(&mut shards, seed);
        }
        world.run_for(SimDuration::from_secs(60));
        shards.run_for(SimDuration::from_secs(60));

        // Compiled fault plans: the same transitions at the same instants.
        assert_eq!(world.lifecycle_events(), shards.lifecycle_events());

        let on_world = observe(world.metrics().global(), world.fault_stats(), world.lifecycle_events());
        let on_shards = observe(
            shards.metrics().global(),
            shards.fault_stats(),
            shards.lifecycle_events(),
        );
        let mut table = format!("{:<21} {:>6} {:>6}  verdict\n", "field", "World", "shards");
        let mut wrong = gaps
            .iter()
            .filter(|gap| on_world.iter().all(|(field, _)| *field != gap.0))
            .count();
        for (&(field, w), &(_, s)) in on_world.iter().zip(&on_shards) {
            let verdict = match gaps.iter().find(|gap| gap.0 == field) {
                None if w == s => "equal".to_string(),
                None => {
                    wrong += 1;
                    "DIVERGED, and no row in the table says why".to_string()
                }
                Some(&(_, pinned_w, pinned_s, cause)) if (w, s) == (pinned_w, pinned_s) && w != s => {
                    format!("gap: {cause}")
                }
                Some(&(_, pinned_w, pinned_s, _)) => {
                    wrong += 1;
                    format!("GAP MOVED: the table pins {pinned_w} / {pinned_s}")
                }
            };
            table += &format!("{field:<21} {w:>6} {s:>6}  {verdict}\n");
        }
        assert!(
            wrong == 0,
            "the engines disagree outside the table (seed {seed}):\n{table}"
        );
    }
}

/// Where `World` and `ShardedWorld` disagree on a city that walks, crashes
/// and loses radios (ROADMAP item 4's gap list). `Pulse` samples no link
/// quality and closes no link, so the two gaps behind those calls are pinned
/// by `world::shard::tests::the_ctx_contract_holds_on_both_engines` instead.
const GAPS: &[differential::Gap] = &[
    ("inquiries_started", 1606, 1605, differential::REBOOT_JITTER),
    ("inquiry_hits", 957, 959, differential::STALE),
    ("connect_attempts", 355, 353, differential::FOLLOWS),
    ("connect_failures", 100, 104, differential::HANDSHAKE),
    ("connects_established", 205, 202, differential::HANDSHAKE),
    ("messages_sent", 205, 202, differential::FOLLOWS),
    ("bytes_sent", 6560, 6464, differential::FOLLOWS),
    ("messages_delivered", 205, 201, differential::IN_FLIGHT),
    ("links_broken", 172, 167, differential::FOLLOWS),
];

/// The same city with nobody walking and nothing failing: what is left is
/// the one thing a snapshot can be stale about in a world that never
/// changes — who is mid-scan — and what follows from hearing two more hits.
/// (At seed 4217 no scan happens to begin in the half second before a
/// neighbour's ends, and this table is empty.)
const GAPS_STILL: &[differential::Gap] = &[
    ("inquiry_hits", 943, 945, differential::STALE),
    ("connect_attempts", 217, 218, differential::FOLLOWS),
    ("connects_established", 171, 172, differential::FOLLOWS),
    ("messages_sent", 171, 172, differential::FOLLOWS),
    ("bytes_sent", 5472, 5504, differential::FOLLOWS),
    ("messages_delivered", 171, 172, differential::FOLLOWS),
];

#[test]
fn engines_differ_only_where_the_table_says() {
    differential::compare(4217, true, GAPS);
}

#[test]
fn a_still_fault_free_city_differs_only_in_who_is_mid_scan() {
    differential::compare(4218, false, GAPS_STILL);
}
