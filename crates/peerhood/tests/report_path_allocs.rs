//! The neighbour-report path's properties, pinned where tier-1 sees them: a
//! report that teaches the storage nothing — or only better routes — allocates
//! nothing, what a report does teach is stored once per fleet, not once per
//! entry, and a new row costs table growth, not an allocation of its own — nor
//! more than a cache line and a half of live heap, which the table gives back
//! when it empties.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use peerhood::application::Application;
use peerhood::config::{DiscoveryMode, PeerHoodConfig, SecurityConfig};
use peerhood::device::{DeviceInfo, MobilityClass};
use peerhood::ids::{ConnectionId, DeviceAddress};
use peerhood::node::{PeerHoodApi, PeerHoodNode};
use peerhood::proto::{Message, NeighborRecord};
use peerhood::service::ServiceInfo;
use peerhood::storage::{DeviceStorage, StoredDevice};
use peerhood::wire;
use simnet::agent::Agent;
use simnet::{
    AttemptId, ConnectError, Ctx, DisconnectReason, IncomingConnection, InquiryHit, LinkId, MobilityModel, NodeId,
    OnWorld, Payload, Point, RadioTech, SimDuration, SimTime, TimerToken, World, WorldConfig,
};

thread_local! {
    /// Allocations made by this thread (`cargo test` runs tests in parallel,
    /// so a process-wide count would see the neighbours' work).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed, counted the same way
    /// (what another thread frees is not seen: the tests that read it keep
    /// their storage on one thread).
    static LIVE_BYTES: Cell<usize> = const { Cell::new(0) };
}

fn live_bytes_moved(freed: usize, allocated: usize) {
    LIVE_BYTES.with(|n| n.set(n.get().wrapping_sub(freed).wrapping_add(allocated)));
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the only addition is
// arithmetic on const-initialised, destructor-free thread-local `Cell`s, which
// neither allocates nor can be observed by the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        live_bytes_moved(0, layout.size());
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_bytes_moved(layout.size(), 0);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        live_bytes_moved(layout.size(), new_size);
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// Bytes the calling thread holds on the heap now, beyond `baseline`.
fn live_bytes_since(baseline: usize) -> usize {
    LIVE_BYTES.with(Cell::get).wrapping_sub(baseline)
}

/// A device of one fleet: every node advertises the same name, technology
/// list and services, as the benchmark's cities do.
fn fleet_device(n: u64) -> DeviceInfo {
    DeviceInfo::new(NodeId::from_raw(n), "metro", MobilityClass::Dynamic, &[RadioTech::Wlan])
}

fn fleet_services() -> Vec<ServiceInfo> {
    vec![ServiceInfo::new("metro.echo", "v1", 7)]
}

/// The frame responder 1 sends: itself plus `devices` devices from 100 up at
/// 0–2 jumps, every hop at `quality`.
fn fleet_report(devices: u64, quality: u8) -> Vec<u8> {
    fleet_report_from(100, devices, quality)
}

/// [`fleet_report`] about the devices from `first` up.
fn fleet_report_from(first: u64, devices: u64, quality: u8) -> Vec<u8> {
    let neighbors = (0..devices)
        .map(|i| NeighborRecord {
            info: fleet_device(first + i),
            jumps: (i % 3) as u8,
            hop_qualities: vec![quality; (i % 3) as usize + 1],
            services: fleet_services().into(),
        })
        .collect();
    wire::encode(&Message::InquiryResponse {
        device: fleet_device(1),
        services: fleet_services(),
        neighbors,
        bridge_load_percent: 0,
    })
}

/// Device 0's storage, as a node built from the fleet's configuration holds
/// it.
fn storage() -> DeviceStorage {
    let config = PeerHoodConfig::new("metro", MobilityClass::Dynamic);
    DeviceStorage::new(fleet_device(0).address, config.monitor.quality_threshold)
}

/// Lands `report` the way the node does, from a responder heard at 235.
fn land(d: &mut DeviceStorage, report: &wire::InquiryResponseView<'_>, now: SimTime) -> Vec<DeviceAddress> {
    let mut learned = Vec::new();
    d.integrate_report_into(report, true, 235, DiscoveryMode::Dynamic, now, &mut learned);
    learned
}

#[test]
fn a_report_of_known_devices_allocates_nothing_in_the_storage() {
    let frame = fleet_report(25, 240);
    let report = wire::view_inquiry_response(&frame).unwrap();
    let mut d = storage();
    let learned = land(&mut d, &report, SimTime::ZERO);
    assert_eq!(learned.len(), 26, "the responder and its 25 records");

    // The same report again, one inquiry cycle later: the responder still
    // describes itself as stored, every device is known and no route is
    // beaten. Reading the frame and folding it into the storage — the
    // responder's own row and its records — must not touch the heap.
    let (allocations, learned) = allocations_in(|| {
        let report = wire::view_inquiry_response(&frame).unwrap();
        land(&mut d, &report, SimTime::from_secs(10))
    });
    assert!(learned.is_empty());
    assert_eq!(allocations, 0, "the steady-state report path allocated");
    assert_eq!(
        d.get(fleet_device(124).address).unwrap().last_seen,
        SimTime::from_secs(10),
        "the records were still read"
    );
}

#[test]
fn a_report_that_only_replaces_routes_allocates_nothing() {
    let mut d = storage();
    let frame = fleet_report(25, 240);
    let report = wire::view_inquiry_response(&frame).unwrap();
    land(&mut d, &report, SimTime::ZERO);

    // The responder has moved closer and so have its neighbours: the same 25
    // devices, every hop better. Each stored route loses to the reported one
    // and is rewritten inside its row.
    let frame = fleet_report(25, 250);
    let (allocations, learned) = allocations_in(|| {
        let report = wire::view_inquiry_response(&frame).unwrap();
        d.integrate_neighbor_views(
            report.device.address,
            245,
            report.device.mobility,
            report.neighbors.clone(),
            DiscoveryMode::Dynamic,
            SimTime::from_secs(10),
        )
    });
    assert!(learned.is_empty());
    assert_eq!(allocations, 0, "replacing a route allocated");
    for n in 100..125 {
        let route = &d.get(fleet_device(n).address).unwrap().route;
        assert_eq!(route.hop_qualities[0], 245, "route to {n} was not replaced");
        assert!(route.hop_qualities[1..].iter().all(|&q| q == 250));
    }
}

#[test]
fn new_rows_cost_table_growth_not_an_allocation_each() {
    const NEW: u64 = 200;
    let mut d = storage();
    d.upsert_direct(fleet_device(1), 235, fleet_services(), SimTime::ZERO);
    let frame = fleet_report(NEW, 240);
    let (allocations, learned) = allocations_in(|| {
        let report = wire::view_inquiry_response(&frame).unwrap();
        d.integrate_neighbor_views(
            report.device.address,
            235,
            report.device.mobility,
            report.neighbors.clone(),
            DiscoveryMode::Dynamic,
            SimTime::ZERO,
        )
    });
    assert_eq!(learned.len() as u64, NEW);
    // Same fleet: descriptions are the responder's, hop lists live in the
    // rows. What is left is the growth of five vectors: the rows, the
    // index's two columns and the responder's reported list once for the
    // whole report (the list then trimmed to the direct records it took),
    // the returned addresses by doubling.
    assert!(allocations < NEW / 4, "{allocations} allocations for {NEW} new rows");
    assert!(
        std::mem::size_of::<StoredDevice>() <= 128,
        "the value the storage hands out (its row is pinned in-crate) outgrew two cache lines"
    );
}

#[test]
fn entries_learned_from_a_same_fleet_report_share_the_responders_description() {
    let frame = fleet_report(25, 240);
    let report = wire::view_inquiry_response(&frame).unwrap();
    let mut d = storage();
    land(&mut d, &report, SimTime::ZERO);

    let responder = d.get(fleet_device(1).address).unwrap();
    for n in 100..125 {
        let entry = d.get(fleet_device(n).address).unwrap();
        assert_eq!(entry.info, fleet_device(n));
        assert!(Arc::ptr_eq(&entry.info.name, &responder.info.name), "name of {n}");
        assert!(Arc::ptr_eq(&entry.info.techs, &responder.info.techs), "techs of {n}");
        assert!(Arc::ptr_eq(&entry.services, &responder.services), "services of {n}");
        // One pointer in the row, not three that happen to agree.
        let shared = d.shares_description(fleet_device(n).address, fleet_device(1).address);
        assert!(shared, "description of {n}");
    }

    // A record that differs is stored as sent, not as the responder's.
    let stranger = NeighborRecord {
        info: DeviceInfo::new(
            NodeId::from_raw(900),
            "kiosk",
            MobilityClass::Static,
            &[RadioTech::Bluetooth],
        ),
        jumps: 0,
        hop_qualities: vec![250],
        services: vec![ServiceInfo::new("print", "", 3)].into(),
    };
    let frame = wire::encode(&Message::InquiryResponse {
        device: fleet_device(1),
        services: fleet_services(),
        neighbors: vec![stranger.clone()],
        bridge_load_percent: 0,
    });
    let report = wire::view_inquiry_response(&frame).unwrap();
    land(&mut d, &report, SimTime::ZERO);
    let entry = d.get(stranger.info.address).unwrap();
    assert_eq!(entry.info, stranger.info);
    assert_eq!(entry.services, stranger.services);
    assert!(!d.shares_description(stranger.info.address, fleet_device(1).address));
}

/// Responder 1's report about `devices` devices from `first` up, folded into
/// `d` the way the node does it.
fn hear_fleet_report(d: &mut DeviceStorage, first: u64, devices: u64, now: SimTime) -> Vec<DeviceAddress> {
    let frame = fleet_report_from(first, devices, 240);
    let report = wire::view_inquiry_response(&frame).unwrap();
    land(d, &report, now)
}

#[test]
fn a_known_device_weighs_a_cache_line_and_a_half() {
    const KNOWN: usize = 500;
    let baseline = live_bytes_since(0);
    let mut d = storage();
    let empty = live_bytes_since(baseline);
    // The table of a walker in a dense district: built up report by report,
    // every record of the responder's own fleet.
    for batch in 0..20 {
        hear_fleet_report(&mut d, 100 + batch * 25, 25, SimTime::ZERO);
    }
    assert_eq!(d.stats().known_devices, KNOWN + 1, "500 devices and their reporter");
    let per_device = (live_bytes_since(baseline) - empty) / KNOWN;
    // A 64-byte row and 12 bytes of index, the vectors' room to grow (at
    // most a quarter of what they hold), a third of the devices claimed as
    // direct neighbours at 8 bytes, and one description for all of them.
    assert!(per_device <= 96, "{per_device} bytes of live heap per known device");
}

#[test]
fn a_table_gives_memory_back_when_it_empties() {
    let baseline = live_bytes_since(0);
    let mut d = storage();
    // 999 devices through one reporter; 950 of them are never heard of
    // again, 49 are re-announced a minute later.
    for batch in 0..37 {
        hear_fleet_report(&mut d, 100 + batch * 27, 27, SimTime::ZERO);
    }
    assert_eq!(d.stats().known_devices, 1000);
    let at_peak = live_bytes_since(baseline);
    let survivors = hear_fleet_report(&mut d, 500, 49, SimTime::from_secs(60));
    assert!(survivors.is_empty(), "all known already");

    let generation = d.generation();
    {
        let mut removed = d.age_cycle(
            &mut [fleet_device(1).address],
            SimTime::from_secs(90),
            3,
            SimDuration::from_secs(60),
        );
        removed.sort_unstable();
        let gone = |n: &u64| !(500..549).contains(n);
        let expected: Vec<DeviceAddress> = (100..1099).filter(gone).map(|n| fleet_device(n).address).collect();
        assert_eq!(removed, expected);
    }
    let after = live_bytes_since(baseline);
    assert!(
        after * 4 <= at_peak,
        "{after} bytes held for 50 devices after {at_peak} for 1 000"
    );

    // Nothing but the memory moved: one aging step, the same 50 rows in
    // address order, and the table takes the next report as any other would.
    assert_eq!(d.generation(), generation + 1);
    let known: Vec<DeviceAddress> = d.devices().map(|e| e.info.address).collect();
    let kept = std::iter::once(1).chain(500..549).map(|n| fleet_device(n).address);
    assert_eq!(known, kept.collect::<Vec<_>>());
    let learned = hear_fleet_report(&mut d, 540, 20, SimTime::from_secs(100));
    let new: Vec<DeviceAddress> = (549..560).map(|n| fleet_device(n).address).collect();
    assert_eq!(learned, new);
    assert_eq!(d.stats().known_devices, 61);
    let route = d.get(fleet_device(545).address).unwrap().route;
    assert_eq!(route.bridge, Some(fleet_device(1).address));
}

// ---------------------------------------------------------------------
// A steady-state session, frame by frame
// ---------------------------------------------------------------------

/// What one node's middleware allocated for each frame it received:
/// `(tag, allocations, served from the cached inquiry response)`.
type FrameLog = Rc<RefCell<Vec<(u8, u64, bool)>>>;

/// A node whose every received frame is counted: the frame's tag (its
/// second byte, with or without an auth trailer behind it) and what the
/// whole `on_message` — middleware, event dispatch, application — allocated.
struct Counted {
    node: PeerHoodNode,
    frames: FrameLog,
}

impl Agent for Counted {
    fn on_start<C: Ctx>(&mut self, ctx: &mut C) {
        self.node.on_start(ctx)
    }
    fn on_restart<C: Ctx>(&mut self, ctx: &mut C) {
        self.node.on_restart(ctx)
    }
    fn on_timer<C: Ctx>(&mut self, ctx: &mut C, token: TimerToken) {
        self.node.on_timer(ctx, token)
    }
    fn on_inquiry_complete<C: Ctx>(&mut self, ctx: &mut C, tech: RadioTech, hits: Vec<InquiryHit>) {
        self.node.on_inquiry_complete(ctx, tech, hits)
    }
    fn on_incoming_connection<C: Ctx>(&mut self, ctx: &mut C, incoming: IncomingConnection) -> bool {
        self.node.on_incoming_connection(ctx, incoming)
    }
    fn on_connected<C: Ctx>(&mut self, ctx: &mut C, attempt: AttemptId, link: LinkId, peer: NodeId, tech: RadioTech) {
        self.node.on_connected(ctx, attempt, link, peer, tech)
    }
    fn on_connect_failed<C: Ctx>(
        &mut self,
        ctx: &mut C,
        attempt: AttemptId,
        peer: NodeId,
        tech: RadioTech,
        error: ConnectError,
    ) {
        self.node.on_connect_failed(ctx, attempt, peer, tech, error)
    }
    fn on_message<C: Ctx>(&mut self, ctx: &mut C, link: LinkId, from: NodeId, payload: Payload) {
        let tag = payload.as_slice()[1];
        let cached = self.node.resilience_stats().inquiries_cached;
        let (allocations, ()) = allocations_in(|| self.node.on_message(ctx, link, from, payload));
        let from_cache = self.node.resilience_stats().inquiries_cached > cached;
        self.frames.borrow_mut().push((tag, allocations, from_cache));
    }
    fn on_disconnected<C: Ctx>(&mut self, ctx: &mut C, link: LinkId, peer: NodeId, reason: DisconnectReason) {
        self.node.on_disconnected(ctx, link, peer, reason)
    }
}

/// The client's application: counts the bytes it is sent and keeps none.
#[derive(Default)]
struct Sink {
    received: usize,
}

impl Application for Sink {
    fn on_data(&mut self, _api: &mut PeerHoodApi<'_>, _conn: ConnectionId, payload: Vec<u8>) {
        self.received += payload.len();
    }
}

/// The server's application: answers every payload with one of its own.
struct Echo;

impl Application for Echo {
    fn on_start(&mut self, api: &mut PeerHoodApi<'_>) {
        api.register_service(ServiceInfo::new("echo", "v1", 7)).unwrap();
    }
    fn on_data(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, payload: Vec<u8>) {
        let _ = api.send(conn, payload);
    }
}

/// The frames a session received, per node.
struct Session {
    client: Vec<(u8, u64, bool)>,
    server: Vec<(u8, u64, bool)>,
    bridge: Vec<(u8, u64, bool)>,
    /// Payload bytes the client's application was handed.
    echoed: usize,
}

/// A client connects straight to a server and exchanges `rounds` data
/// frames each way; then its link decays, the session is handed over to a
/// route through a bridge and `rounds` more go each way through it; then
/// the client hangs up.
fn session(frame_auth: bool, rounds: usize) -> Session {
    let mut radio = WorldConfig::ideal(47);
    radio.radio.bluetooth.setup_min_s = 2.0;
    radio.radio.bluetooth.setup_max_s = 2.0;
    let mut world = World::new(radio);
    let config = |name: &str, mobility| {
        let mut config = PeerHoodConfig::new(name, mobility);
        config.discovery.inquiry_interval = SimDuration::from_secs(3);
        if frame_auth {
            config.security = SecurityConfig::auth();
        }
        config
    };
    let mut add = |name, at: Point, node: PeerHoodNode| {
        let frames = FrameLog::default();
        let counted = Counted {
            node,
            frames: frames.clone(),
        };
        let id = world.add_node(
            name,
            MobilityModel::stationary(at),
            &[RadioTech::Bluetooth],
            Box::new(OnWorld(counted)),
        );
        (id, frames)
    };
    let client_node = PeerHoodNode::builder()
        .config(config("client", MobilityClass::Dynamic))
        .app(Sink::default())
        .build();
    let server_node = PeerHoodNode::builder()
        .config(config("server", MobilityClass::Static))
        .app(Echo)
        .build();
    let (client, client_frames) = add("client", Point::new(0.0, 0.0), client_node);
    let (server, server_frames) = add("server", Point::new(5.0, 0.0), server_node);
    let bridge_node = PeerHoodNode::relay(config("bridge", MobilityClass::Static));
    let (bridge, bridge_frames) = add("bridge", Point::new(2.5, 3.5), bridge_node);
    world.run_for(SimDuration::from_secs(120));

    let server_address = DeviceAddress::from_node(server);
    let on_client = |world: &mut World, act: &mut dyn FnMut(&mut PeerHoodApi<'_>)| {
        world
            .with_agent::<Counted, _>(client, |c, ctx| c.node.with_api(ctx, |api| act(api)))
            .expect("the client runs");
    };
    let mut conn = None;
    on_client(&mut world, &mut |api| {
        conn = Some(api.connect_to(server_address, "echo").unwrap())
    });
    let conn = conn.unwrap();
    world.run_for(SimDuration::from_secs(10));
    let exchange = |world: &mut World| {
        for round in 0..rounds {
            world
                .with_agent::<Counted, _>(client, |c, ctx| {
                    c.node
                        .with_api(ctx, |api| api.send(conn, vec![round as u8; 32]).unwrap())
                })
                .unwrap();
            world.run_for(SimDuration::from_millis(500));
        }
    };
    exchange(&mut world);

    let link = world
        .with_agent::<Counted, _>(client, |c, _| c.node.connection_link(conn))
        .unwrap()
        .expect("the direct route is up");
    world.set_link_quality_override(link, 240.0, 20.0);
    world.run_for(SimDuration::from_secs(30));
    let handed_over = world
        .with_agent::<Counted, _>(client, |c, _| c.node.handover_completions())
        .unwrap();
    assert_eq!(handed_over, 1, "the decaying link is handed over once");
    exchange(&mut world);
    assert!(
        world
            .with_agent::<Counted, _>(bridge, |c, _| c.node.bridge_stats().1)
            .unwrap()
            >= 2 * rounds as u64,
        "the bridge relays the session"
    );
    on_client(&mut world, &mut |api| api.close(conn));
    world.run_for(SimDuration::from_secs(5));
    let echoed = world
        .with_agent::<Counted, _>(client, |c, _| c.node.app::<Sink>().unwrap().received)
        .unwrap();
    let take = |frames: FrameLog| std::mem::take(&mut *frames.borrow_mut());
    Session {
        client: take(client_frames),
        server: take(server_frames),
        bridge: take(bridge_frames),
        echoed,
    }
}

/// The allocation counts of the frames in `frames` carrying `tag`, and of
/// inquiry requests only those answered from the cached response.
fn counts(frames: &[(u8, u64, bool)], tag: u8) -> Vec<u64> {
    let answered = |cached: bool| tag != wire::TAG_INQUIRY_REQUEST || cached;
    frames
        .iter()
        .filter(|(t, _, cached)| *t == tag && answered(*cached))
        .map(|(_, n, _)| *n)
        .collect()
}

#[test]
fn a_session_allocates_what_each_frame_keeps() {
    const ROUNDS: usize = 12;
    for frame_auth in [false, true] {
        let s = session(frame_auth, ROUNDS);
        assert_eq!(s.echoed, 2 * ROUNDS * 32, "every payload came back");
        // A data frame handed to the application allocates only the payload
        // the application receives, with or without frame authentication.
        assert_eq!(counts(&s.client, wire::TAG_DATA), [1; 2 * ROUNDS], "auth {frame_auth}");
        if frame_auth {
            continue;
        }
        // Every node answered inquiries from its cached response, and
        // building nothing to do so.
        for (who, frames) in [("client", &s.client), ("server", &s.server), ("bridge", &s.bridge)] {
            let answered = counts(frames, wire::TAG_INQUIRY_REQUEST);
            assert!(
                !answered.is_empty() && answered.iter().all(|&n| n == 0),
                "{who}: {answered:?}"
            );
        }
        // The client's two Accepts, the direct route's and the handover's.
        assert_eq!(counts(&s.client, wire::TAG_ACCEPT), [0, 0]);
        // The server closes the session in place; the bridge tells the
        // server, which is the one frame it encodes.
        assert_eq!(counts(&s.server, wire::TAG_DISCONNECT), [0]);
        assert_eq!(counts(&s.bridge, wire::TAG_DISCONNECT), [1]);
        // A relayed data frame travels on as it came; the one allocation is
        // its decoded payload, which the relay reads the connection id
        // beside.
        assert_eq!(counts(&s.bridge, wire::TAG_DATA), [1; 2 * ROUNDS]);
    }
}
