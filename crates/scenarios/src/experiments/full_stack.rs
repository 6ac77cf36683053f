//! Full-stack city machinery: the **real PeerHood middleware** — not the
//! light [`CityProbe`](crate::experiments::probe::CityProbe) the E12–E14,
//! E17 and E18 cities run — on every node of a city: E15's metropolis and
//! the ledger's full-stack workloads (E16 and E19 build on its WLAN city
//! configuration).
//!
//! After the zero-copy frame / shared-payload / allocation-lean-storage
//! refactor the real [`PeerHoodNode`] host is cheap enough to populate
//! thousand-node cities. Every node hosts a full middleware stack (daemon,
//! discovery plugins, engine, connection table, handover machinery) plus a
//! small [`MetroApp`] that registers a `"metro"` service, attaches to the
//! best provider dynamic discovery finds, and keeps the session alive with
//! periodic pings.
//!
//! [`FullStackHost`] wraps the [`PeerHoodNode`] so experiments can still
//! classify *why* a session's route broke (crash vs. range — information the
//! application-level callbacks deliberately do not expose) by observing the
//! radio-level disconnect reasons under the app's current session link.

use std::any::Any;
use std::cell::RefCell;
use std::rc::{Rc, Weak};
use std::sync::Arc;

use peerhood::application::Application;
use peerhood::config::{DiscoveryMode, PeerHoodConfig};
use peerhood::error::PeerHoodError;
use peerhood::ids::{ConnectionId, DeviceAddress};
use peerhood::node::{PeerHoodApi, PeerHoodNode};
use peerhood::service::ServiceInfo;
use peerhood::session::{ServiceSession, SessionUp, Via};
use simnet::agent::Agent;
use simnet::prelude::*;

/// Name of the service every metropolis node registers and consumes.
pub const METRO_SERVICE: &str = "metro";

const PING_TIMER: u64 = 0x3E70;

/// The two shared node configurations of a full-stack city — one for
/// stationary terminals, one for pedestrians — differing only in the
/// advertised [`MobilityClass`](peerhood::device::MobilityClass). Truthful
/// classes matter at scale: the §3.4.3 route ranking prefers static
/// providers, so sessions anchor on terminals that stay put instead of
/// churning through passing pedestrians. Build once per world and hand the
/// matching `Rc` to every [`FullStackHost::new`].
pub fn metro_configs(inquiry_interval: SimDuration) -> (Rc<PeerHoodConfig>, Rc<PeerHoodConfig>) {
    let fixed = wlan_city_config("metro", inquiry_interval);
    let mut mobile = fixed.clone();
    mobile.mobility = peerhood::device::MobilityClass::Dynamic;
    (Rc::new(fixed), Rc::new(mobile))
}

/// The stationary node of a dense WLAN city, fleet `name`: the tuning the
/// full-stack cities share (E15 as is; E16 and E19 set what they change).
pub(crate) fn wlan_city_config(name: &str, inquiry_interval: SimDuration) -> PeerHoodConfig {
    let mut cfg = PeerHoodConfig::new(name, peerhood::device::MobilityClass::Static);
    cfg.techs = vec![RadioTech::Wlan];
    cfg.discovery.mode = DiscoveryMode::TwoHop;
    cfg.discovery.inquiry_interval = inquiry_interval;
    cfg.discovery.service_check_interval = SimDuration::from_secs(300);
    // Pedestrians drift in and out of each other's 50 m disc on a ~minute
    // timescale; the default 5-loop retention (~50 s) would age a neighbour
    // out just in time to pay a full information fetch on re-encounter.
    // Twelve loops (~2 min) keep the storage warm across those excursions,
    // so re-meeting a known device costs a `note_inquiry_hit`, not a fetch.
    cfg.discovery.max_missed_loops = 12;
    // Export only the direct neighbourhood (the classic §3.1 fetch): at
    // metropolis density a node's two-hop vision covers dozens of devices,
    // and re-shipping the whole storage in every fetch response is what the
    // original per-node cost drowned in. Zero-jump exports still carry the
    // responder's ~15 direct neighbours — the requester learns them as
    // 1-jump routes and handover candidates populate exactly as before —
    // but responses shrink ~4x.
    cfg.discovery.max_export_jumps = 0;
    cfg.monitor.interval = SimDuration::from_secs(10);
    // The thesis' 230 "signal low" threshold is calibrated to its Bluetooth
    // quality curve; on the WLAN profile (plateau to 15 m, 180 at the 50 m
    // edge) 230 already trips at ~35 m and every mid-range session hands
    // over forever, growing bridge chains. 190 means "approaching the
    // coverage edge" on this curve (~46 m), which restores the intended
    // semantics: hand over when the link is about to die.
    cfg.monitor.quality_threshold = 190;
    // One routing attempt. If it fails, the middleware proposes a switch
    // to another provider of the service (§5.2.2), which `MetroApp`
    // accepts: it dials the best-ranked candidate still in storage. A
    // faulted dial is re-dialled once. A dial refused because the hop is
    // gone (out of range, its link cut, its stack down) is re-aimed, with
    // the app's approval, at a provider a fresh inquiry hears, dialled
    // directly; every node here offers `metro`, so any stored hit will do.
    // Only when those fail too does the app re-attach on its next ping
    // tick. In a uniform city a direct re-route to a nearer peer beats
    // growing a relay chain: every avoided bridge is one less pair of links
    // to check, relay through and eventually break.
    cfg.handover.max_routing_attempts = 1;
    cfg
}

/// Adds a stationary WLAN node at `at` running the middleware under a clone
/// of `config` and `app` (the hand-placed cities of E16 and E19).
pub(crate) fn add_stack(
    world: &mut World,
    name: impl Into<String>,
    at: Point,
    config: &Arc<PeerHoodConfig>,
    app: impl Application,
) -> NodeId {
    let node = PeerHoodNode::builder().config(Arc::clone(config)).app(app).build();
    world.add_node(
        name,
        MobilityModel::stationary(at),
        &[RadioTech::Wlan],
        Box::new(OnWorld(node)),
    )
}

/// The application of a full-stack city node: every device both offers and
/// consumes the [`METRO_SERVICE`], mirroring the lightweight probes'
/// attach-to-best-neighbour behaviour through the real middleware API. A
/// broken session is recovered the thesis' way (Fig. 5.5): the middleware
/// tries a routing handover, then switches to another provider, which the
/// app accepts — and accepts again when a switch refused because its hop is
/// gone (out of range, link down, stack down) is re-aimed at a provider a
/// fresh inquiry heard, which the middleware dials directly. Only when the
/// switch fails does the app dial again itself, on its next ping tick.
#[derive(Default)]
pub struct MetroApp {
    /// The client session this node drives. Its down window survives
    /// restarts (the app is the measurement instrument).
    session: ServiceSession,
    /// What the app counts; [`FullStackHost::stats`] adds the route breaks
    /// and the handover completions.
    pub counts: MetroCounts,
}

impl MetroApp {
    fn try_attach(&mut self, api: &mut PeerHoodApi<'_>) {
        if !self.session.may_dial() {
            return;
        }
        if let Ok(conn) = api.connect_to_service(METRO_SERVICE) {
            self.session.dialled(conn);
        }
    }

    /// True while the node holds an established client session. A session
    /// stays up while the middleware repairs its broken route after the
    /// break (a routing handover the app is not told of until it completes),
    /// so that window counts as attached and `sim_reconnect_s` does not see
    /// it — a known gap in the measurement.
    pub fn attached(&self) -> bool {
        self.session.up().is_some()
    }

    /// The client session this app currently drives, if any.
    pub fn current_conn(&self) -> Option<ConnectionId> {
        self.session.conn()
    }

    /// Counts a session that came up, and the reconnect sample it closed,
    /// by how it ended.
    fn count_up(&mut self, up: Option<SessionUp>) {
        let Some(up) = up else {
            return;
        };
        self.counts.sessions_established += 1;
        let Some(down_for) = up.down_for else {
            return;
        };
        self.counts.reconnect_secs_total += down_for.as_secs_f64();
        self.counts.reconnects += 1;
        match up.via {
            Via::Dial => self.counts.redialled += 1,
            Via::Switch => self.counts.switched_first_dial += 1,
            Via::SwitchRescued => self.counts.switched_second_chance += 1,
        }
    }
}

impl Application for MetroApp {
    fn on_start(&mut self, api: &mut PeerHoodApi<'_>) {
        // A restart reaches here too (the reborn daemon re-runs app
        // start-up): the connection is gone with the old core.
        self.session.restarted();
        let _ = api.register_service(ServiceInfo::new(METRO_SERVICE, "v1", 7));
        api.schedule_timer(SimDuration::from_secs(10), PING_TIMER);
    }

    fn on_device_discovered(&mut self, api: &mut PeerHoodApi<'_>, _address: DeviceAddress) {
        self.try_attach(api);
    }

    fn on_connected(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId) {
        let up = self.session.connected(api, conn);
        self.count_up(up);
    }

    fn on_connect_failed(&mut self, _api: &mut PeerHoodApi<'_>, conn: ConnectionId, _error: PeerHoodError) {
        self.session.connect_failed(conn);
    }

    fn on_data(&mut self, _api: &mut PeerHoodApi<'_>, _conn: ConnectionId, _payload: Vec<u8>) {
        self.counts.payloads_received += 1;
    }

    fn on_disconnected(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, _graceful: bool) {
        self.session.disconnected(api.now(), conn);
    }

    fn on_connection_changed(&mut self, _api: &mut PeerHoodApi<'_>, conn: ConnectionId) {
        if self.session.drives(conn) {
            self.counts.route_changes += 1;
        }
    }

    fn on_reconnect_required(
        &mut self,
        api: &mut PeerHoodApi<'_>,
        conn: ConnectionId,
        _provider: DeviceAddress,
    ) -> bool {
        // The routing handover failed: the session is down from here until
        // the switch completes or, if it fails, until the app's own dial on
        // a later ping tick succeeds. A switch re-aimed by its fresh search
        // asks again, already switching.
        self.session.switching(api.now(), conn);
        true
    }

    fn on_service_reconnected(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, provider: DeviceAddress) {
        let up = self.session.switched(api, conn, provider);
        self.count_up(up);
    }

    fn on_timer(&mut self, api: &mut PeerHoodApi<'_>, token: u64) {
        if token != PING_TIMER {
            return;
        }
        match self.session.up() {
            Some(conn) => {
                if api.send(conn, b"metro-ping".to_vec()).is_ok() {
                    self.counts.pings_sent += 1;
                }
            }
            None => self.try_attach(api),
        }
        api.schedule_timer(SimDuration::from_secs(10), PING_TIMER);
    }
}

simnet::counter_table! {
    /// What a [`MetroApp`] counts: sessions established (first connects,
    /// provider switches and the app's re-attachments after loss), route
    /// changes on the live session, pings sent, payloads received (pings
    /// served plus echoes) and reconnection latency, each sample counted by
    /// how it ended.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct MetroCounts {
        /// Client sessions established.
        pub sessions_established: u64,
        /// Route changes observed by the application.
        pub route_changes: u64,
        /// Total reconnection latency, from the middleware's first report
        /// of the session down.
        pub reconnect_secs_total: f64,
        /// Number of latency samples in `reconnect_secs_total`.
        pub reconnects: u64,
        /// Samples a provider switch (§5.2.2) ended on its first dial.
        pub switched_first_dial: u64,
        /// Samples a provider switch ended after a second chance.
        pub switched_second_chance: u64,
        /// Samples the app's own dial ended.
        pub redialled: u64,
        /// Pings sent.
        pub pings_sent: u64,
        /// Payloads received.
        pub payloads_received: u64,
    }
}

simnet::counter_table! {
    /// Per-node counters of a city node: read off the middleware by
    /// [`FullStackHost`], counted by the light
    /// [`CityProbe`](crate::experiments::probe::CityProbe) itself.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct FullStats {
        /// Client sessions established.
        pub sessions_established: u64,
        /// Session routes broken because the peer's stack died.
        pub broken_by_crash: u64,
        /// Session routes broken by coverage/radio loss.
        pub broken_by_range: u64,
        /// Completed routing handovers (middleware counter).
        pub handover_completions: u64,
        /// Of those, the ones the quality monitor started while the old route
        /// was still up (Fig. 5.5's make-before-break switch); the rest repaired
        /// a route after it broke.
        pub proactive_handover_completions: u64,
        /// Route changes observed by the application.
        pub route_changes: u64,
        /// Total reconnection latency and sample count.
        pub reconnect_secs_total: f64,
        /// Number of latency samples in `reconnect_secs_total`.
        pub reconnects: u64,
        /// Samples a provider switch (§5.2.2) ended on its first dial.
        pub switched_first_dial: u64,
        /// Samples a provider switch ended after a second chance: its
        /// re-dial of a faulted set-up or its re-aim by a fresh search.
        pub switched_second_chance: u64,
        /// Samples the app's own dial ended, after the middleware gave the
        /// session up.
        pub redialled: u64,
        /// Pings sent / payloads received by the app.
        pub pings_sent: u64,
        /// Payloads the app received.
        pub payloads_received: u64,
    }
}

impl FullStats {
    /// Route breaks of either kind — what E12, E17 and E18 report as
    /// "coverage drops".
    pub fn route_breaks(&self) -> u64 {
        self.broken_by_crash + self.broken_by_range
    }

    /// Sums per-node stats and counts the attached nodes: each node gives
    /// its stats and whether it holds an established session.
    pub fn tally(nodes: impl IntoIterator<Item = (FullStats, bool)>) -> (FullStats, usize) {
        let mut total = FullStats::default();
        let mut attached = 0;
        for (node, is_attached) in nodes {
            total.absorb(&node);
            attached += usize::from(is_attached);
        }
        (total, attached)
    }
}

/// A city node running the full middleware: delegates every radio event to
/// the inner [`PeerHoodNode`] and, around the delegation, classifies session
/// route breaks by their radio-level [`DisconnectReason`] — the one piece of
/// information the application callbacks do not carry.
pub struct FullStackHost {
    node: PeerHoodNode,
    /// Session route breaks: the peer's stack died.
    pub broken_by_crash: u64,
    /// Session route breaks: coverage or radio loss.
    pub broken_by_range: u64,
}

thread_local! {
    /// The `Arc` each live `Rc` configuration was converted to, keyed by a
    /// `Weak` so an entry dies with its configuration.
    static SHARED_CONFIGS: RefCell<Vec<(Weak<PeerHoodConfig>, Arc<PeerHoodConfig>)>> =
        const { RefCell::new(Vec::new()) };
}

/// The `Arc` a stack shares for `config`: every host built from one `Rc`
/// holds one `Arc`, so N hosts from k live configurations cost k copies.
/// Entries whose `Rc` has died are pruned first; a `Weak` keeps its
/// allocation, so a live entry's address is never a rebuilt configuration's.
fn shared_config(config: Rc<PeerHoodConfig>) -> Arc<PeerHoodConfig> {
    SHARED_CONFIGS.with_borrow_mut(|table| {
        table.retain(|(weak, _)| weak.strong_count() > 0);
        if let Some((_, shared)) = table.iter().find(|(weak, _)| weak.as_ptr() == Rc::as_ptr(&config)) {
            return Arc::clone(shared);
        }
        let shared = Arc::new(PeerHoodConfig::clone(&config));
        table.push((Rc::downgrade(&config), Arc::clone(&shared)));
        shared
    })
}

/// Both engines can run the full stack: the middleware node is a
/// [`ShardAgent`] and the host that wraps it is `Send`.
const _: () = {
    const fn shard_agent<T: ShardAgent>() {}
    const fn send<T: Send>() {}
    shard_agent::<PeerHoodNode>();
    send::<FullStackHost>();
};

impl FullStackHost {
    /// Builds a city node sharing `config` with the rest of the fleet. The
    /// stack holds an `Arc`: the `Rc` is converted once per configuration
    /// and thread (see [`metro_configs`]).
    pub fn new(config: Rc<PeerHoodConfig>) -> Self {
        FullStackHost {
            node: PeerHoodNode::builder()
                .config(shared_config(config))
                .app(MetroApp::default())
                .build(),
            broken_by_crash: 0,
            broken_by_range: 0,
        }
    }

    /// The wrapped middleware node.
    pub fn node(&self) -> &PeerHoodNode {
        &self.node
    }

    /// The radio link currently carrying the app's session, if any.
    fn session_link(&self) -> Option<LinkId> {
        let conn = self.node.with_app(|a: &MetroApp| a.current_conn()).flatten()?;
        self.node.connection(conn)?.link()
    }

    /// True if the node's app holds an established session (see
    /// [`MetroApp::attached`]).
    pub fn attached(&self) -> bool {
        self.node.with_app(MetroApp::attached).unwrap_or(false)
    }

    /// Aggregated counters for experiment reports.
    pub fn stats(&self) -> FullStats {
        let app = self.node.with_app(|a: &MetroApp| a.counts).unwrap_or_default();
        FullStats {
            sessions_established: app.sessions_established,
            broken_by_crash: self.broken_by_crash,
            broken_by_range: self.broken_by_range,
            handover_completions: self.node.handover_completions(),
            proactive_handover_completions: self.node.proactive_handover_completions(),
            route_changes: app.route_changes,
            reconnect_secs_total: app.reconnect_secs_total,
            reconnects: app.reconnects,
            switched_first_dial: app.switched_first_dial,
            switched_second_chance: app.switched_second_chance,
            redialled: app.redialled,
            pings_sent: app.pings_sent,
            payloads_received: app.payloads_received,
        }
    }
}

/// Calls the node's [`Agent`] callbacks by path: `FullStackHost` itself stays
/// a [`NodeAgent`], whose callbacks callers reach by method syntax.
impl NodeAgent for FullStackHost {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        Agent::on_start(&mut self.node, ctx);
    }
    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        Agent::on_restart(&mut self.node, ctx);
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: TimerToken) {
        Agent::on_timer(&mut self.node, ctx, timer);
    }
    fn on_inquiry_complete(&mut self, ctx: &mut NodeCtx<'_>, tech: RadioTech, hits: Vec<InquiryHit>) {
        Agent::on_inquiry_complete(&mut self.node, ctx, tech, hits);
    }
    fn on_incoming_connection(&mut self, ctx: &mut NodeCtx<'_>, incoming: IncomingConnection) -> bool {
        Agent::on_incoming_connection(&mut self.node, ctx, incoming)
    }
    fn on_connected(&mut self, ctx: &mut NodeCtx<'_>, attempt: AttemptId, link: LinkId, peer: NodeId, tech: RadioTech) {
        Agent::on_connected(&mut self.node, ctx, attempt, link, peer, tech);
    }
    fn on_connect_failed(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        attempt: AttemptId,
        peer: NodeId,
        tech: RadioTech,
        error: ConnectError,
    ) {
        Agent::on_connect_failed(&mut self.node, ctx, attempt, peer, tech, error);
    }
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, from: NodeId, payload: Payload) {
        Agent::on_message(&mut self.node, ctx, link, from, payload);
    }
    fn on_disconnected(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, peer: NodeId, reason: DisconnectReason) {
        // Classify before delegating: the middleware is about to start its
        // recovery machinery, after which the session-to-link mapping is
        // gone. A break counted here may still be healed by a handover —
        // the counters measure route breaks, exactly like the lightweight
        // probes' per-link accounting.
        if self.session_link() == Some(link) {
            match reason {
                DisconnectReason::PeerFailed => self.broken_by_crash += 1,
                DisconnectReason::OutOfRange => self.broken_by_range += 1,
                DisconnectReason::PeerClosed | DisconnectReason::LocalClosed => {}
            }
        }
        Agent::on_disconnected(&mut self.node, ctx, link, peer, reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live_entries() -> usize {
        SHARED_CONFIGS.with_borrow(Vec::len)
    }

    #[test]
    fn hosts_built_from_one_rc_share_one_arc_and_two_rcs_give_two() {
        let (fixed, mobile) = metro_configs(SimDuration::from_secs(10));
        let hosts: Vec<FullStackHost> = (0..4).map(|_| FullStackHost::new(Rc::clone(&fixed))).collect();
        let shared = shared_config(Rc::clone(&fixed));
        // The table's entry, the four hosts and `shared` itself.
        assert_eq!(Arc::strong_count(&shared), 6, "four hosts from one Rc hold one Arc");
        let walker = FullStackHost::new(Rc::clone(&mobile));
        let other = shared_config(Rc::clone(&mobile));
        assert!(!Arc::ptr_eq(&shared, &other), "two live Rcs give two Arcs");
        assert_eq!(Arc::strong_count(&other), 3);
        assert_eq!(*other, *mobile);
        assert_eq!(live_entries(), 2);
        drop((hosts, walker));
        assert_eq!(Arc::strong_count(&shared), 2, "a dropped host releases its clone");
    }

    #[test]
    fn a_config_dropped_and_rebuilt_gets_its_own_contents() {
        let first = Rc::new(PeerHoodConfig::static_device("first"));
        let host = FullStackHost::new(Rc::clone(&first));
        let held = shared_config(first);
        // The only `Rc` is gone; the host still holds the converted `Arc`.
        for round in 0..8 {
            let name = format!("rebuilt-{round}");
            let rebuilt = Rc::new(PeerHoodConfig::static_device(name.as_str()));
            let converted = shared_config(Rc::clone(&rebuilt));
            assert_eq!(converted.device_name, name, "round {round}: a stale Arc was handed out");
            assert!(!Arc::ptr_eq(&converted, &held));
            assert_eq!(live_entries(), 1, "round {round}: dead entries are pruned");
        }
        assert_eq!(held.device_name, "first");
        drop(host);
        assert_eq!(Arc::strong_count(&held), 1, "the table dropped the dead config's Arc");
    }
}
