//! The multi-application node host.
//!
//! A [`PeerHoodNode`] hosts any number of
//! [`Application`]s on one middleware stack
//! — exactly like several programs using the PeerHood library on one device.
//! Nodes are assembled with the fluent [`PeerHoodNodeBuilder`]
//! (configuration → applications); whether the node relays for others is
//! the configuration's `bridge.enabled`:
//!
//! ```
//! use peerhood::prelude::*;
//!
//! let mut node = PeerHoodNode::builder()
//!     .config(PeerHoodConfig::static_device("pc"))
//!     .app(IdleApplication)
//!     .build();
//! node.subscribe_event_trace();
//! assert_eq!(node.app_ids().len(), 1);
//! ```
//!
//! Callbacks are routed per application: the app that registered a service
//! receives its incoming connections, the app that opened a connection
//! receives its data and handover callbacks, and discovery events fan out to
//! every app. The same typed [`PeerHoodEvent`] stream can be recorded for
//! scenario drivers through [`PeerHoodNode::subscribe_event_trace`], the one
//! way to turn the trace on.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use simnet::agent::Agent;
use simnet::{
    AttemptId, ConnectError, Ctx, DisconnectReason, IncomingConnection, InquiryHit, LinkId, NodeId, Payload, RadioTech,
    TimerToken,
};

use crate::application::Application;
use crate::config::PeerHoodConfig;
use crate::connection::ConnectionSnapshot;
use crate::device::DeviceInfo;
use crate::ids::{ConnectionId, DeviceAddress};
use crate::storage::{StorageStats, StoredDevice};

use super::pending::LinkRole;
use super::{AppId, Core, PeerHoodApi, PeerHoodEvent};

/// Maximum number of events the trace retains between drains; when full the
/// oldest events are dropped so a subscribed-but-never-drained trace cannot
/// grow without bound (Data events clone their payloads into the trace).
pub const EVENT_TRACE_CAP: usize = 65_536;

/// A complete PeerHood device: middleware plus its hosted applications.
/// Everything it holds is `Send`, so the `Agent` impl makes it a
/// [`ShardAgent`](simnet::ShardAgent) as well as an `OnWorld` agent.
pub struct PeerHoodNode {
    /// Shared configuration — clone the `Arc` across a fleet of nodes
    /// (builder [`config`](PeerHoodNodeBuilder::config)) and thousands of
    /// devices reference one allocation.
    config: Arc<PeerHoodConfig>,
    core: Option<Core>,
    apps: BTreeMap<AppId, Box<dyn Application>>,
    /// When `Some`, every dispatched [`PeerHoodEvent`] is also recorded here
    /// for scenario drivers (see [`PeerHoodNode::subscribe_event_trace`]).
    /// Bounded to [`EVENT_TRACE_CAP`] entries (oldest dropped first).
    trace: Option<VecDeque<PeerHoodEvent>>,
}

/// Fluent constructor for [`PeerHoodNode`]: configuration → applications.
pub struct PeerHoodNodeBuilder {
    config: Arc<PeerHoodConfig>,
    apps: Vec<Box<dyn Application>>,
}

impl PeerHoodNodeBuilder {
    /// Replaces the node configuration (defaults to
    /// [`PeerHoodConfig::default`]), given as a value or as an already-shared
    /// `Arc`. Scenario drivers building large fleets pass clones of one `Arc`,
    /// so the configuration (device names aside, see
    /// [`PeerHoodConfig::device_name`]) is stored once for the whole world.
    pub fn config(mut self, config: impl Into<Arc<PeerHoodConfig>>) -> Self {
        self.config = config.into();
        self
    }

    /// Adds an application to the node. Applications receive increasing
    /// [`AppId`]s in the order they are added, starting at zero.
    pub fn app<A: Application>(self, app: A) -> Self {
        self.app_boxed(Box::new(app))
    }

    /// Adds an already-boxed application (for callers that assemble nodes
    /// from `Box<dyn Application>` values).
    pub fn app_boxed(mut self, app: Box<dyn Application>) -> Self {
        self.apps.push(app);
        self
    }

    /// Builds the node.
    pub fn build(self) -> PeerHoodNode {
        let apps = self
            .apps
            .into_iter()
            .enumerate()
            .map(|(i, app)| (AppId(i as u32), app))
            .collect();
        PeerHoodNode {
            config: self.config,
            core: None,
            apps,
            trace: None,
        }
    }
}

impl PeerHoodNode {
    /// Starts building a node (configuration → applications).
    pub fn builder() -> PeerHoodNodeBuilder {
        PeerHoodNodeBuilder {
            config: Arc::new(PeerHoodConfig::default()),
            apps: Vec::new(),
        }
    }

    /// Creates a node that only runs the middleware (daemon, discovery and
    /// the hidden bridge service) without applications — a pure relay.
    /// Shorthand for `PeerHoodNode::builder().config(config).build()`.
    pub fn relay(config: PeerHoodConfig) -> Self {
        PeerHoodNode::builder().config(config).build()
    }

    /// This device's address (available after the node has started).
    pub fn device_address(&self) -> Option<DeviceAddress> {
        self.core.as_ref().map(|c| c.info.address)
    }

    /// Statistics of the device storage.
    pub fn storage_stats(&self) -> StorageStats {
        self.core.as_ref().map(|c| c.storage.stats()).unwrap_or_default()
    }

    /// Snapshot of every known remote device.
    pub fn known_devices(&self) -> Vec<StoredDevice> {
        self.core
            .as_ref()
            .map(|c| c.storage.devices().collect())
            .unwrap_or_default()
    }

    /// Snapshot of one connection.
    pub fn connection(&self, conn: ConnectionId) -> Option<ConnectionSnapshot> {
        self.core
            .as_ref()
            .and_then(|c| c.connections.get(&conn))
            .map(ConnectionSnapshot::from)
    }

    /// Snapshots of every connection.
    pub fn connections(&self) -> Vec<ConnectionSnapshot> {
        self.core
            .as_ref()
            .map(|c| c.connections.values().map(ConnectionSnapshot::from).collect())
            .unwrap_or_default()
    }

    /// The radio link currently carrying a connection, if any. Scenario
    /// drivers use this to install the §5.2.1 artificial quality decay on the
    /// link under a live connection.
    pub fn connection_link(&self, conn: ConnectionId) -> Option<LinkId> {
        self.core
            .as_ref()
            .and_then(|c| c.connections.get(&conn))
            .and_then(|c| c.link)
    }

    /// The application owning a connection, if any.
    pub fn connection_owner(&self, conn: ConnectionId) -> Option<AppId> {
        self.core.as_ref().and_then(|c| c.owner_of(conn))
    }

    /// Number of connection pairs currently relayed by this node's bridge
    /// service, plus the totals it has relayed.
    pub fn bridge_stats(&self) -> (usize, u64, u64) {
        self.core
            .as_ref()
            .map(|c| {
                (
                    c.bridge.len(),
                    c.bridge.total_relayed_messages(),
                    c.bridge.total_relayed_bytes(),
                )
            })
            .unwrap_or((0, 0, 0))
    }

    /// Snapshot of the resilience pipeline's per-layer counters and breaker
    /// population.
    pub fn resilience_stats(&self) -> crate::resilience::ResilienceStats {
        let core = self.core.as_ref();
        core.map(|c| c.resilience.stats(&c.security.peers)).unwrap_or_default()
    }

    /// Snapshot of the protocol-hardening counters (frame auth, replay
    /// windows, sanity checks and reporter reputation).
    pub fn security_stats(&self) -> crate::security::SecurityStats {
        self.core.as_ref().map(|c| c.security.stats()).unwrap_or_default()
    }

    /// Number of routing handovers successfully completed by this node,
    /// before or after the old route broke.
    pub fn handover_completions(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.handovers_before_break + c.handovers_after_break)
    }

    /// The routing handovers of [`PeerHoodNode::handover_completions`] that
    /// the quality monitor started while the old route was still up — the
    /// thesis' make-before-break switch (Fig. 5.5, state 1 → 2) — rather
    /// than as a repair after the break.
    pub fn proactive_handover_completions(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.handovers_before_break)
    }

    /// Number of server-initiated reply reconnections completed (result
    /// routing, §5.3).
    pub fn reply_reconnections(&self) -> u64 {
        self.core.as_ref().map(|c| c.reply_reconnections).unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Application registry access
    // ------------------------------------------------------------------

    /// Ids of all hosted applications, in registration order.
    pub fn app_ids(&self) -> Vec<AppId> {
        self.apps.keys().copied().collect()
    }

    /// Typed access to the first hosted application of type `T`.
    pub fn app<T: Application>(&self) -> Option<&T> {
        self.apps.values().find_map(|a| downcast(a.as_ref()))
    }

    /// Typed access to a specific application by id.
    pub fn app_by_id<T: Application>(&self, id: AppId) -> Option<&T> {
        self.apps.get(&id).and_then(|a| downcast(a.as_ref()))
    }

    /// Runs a closure against the first hosted application of type `T` —
    /// the typed inspection hook scenario drivers use instead of chaining
    /// `app::<T>().unwrap()`.
    pub fn with_app<T: Application, R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.app::<T>().map(f)
    }

    // ------------------------------------------------------------------
    // Event trace
    // ------------------------------------------------------------------

    /// Starts recording every dispatched [`PeerHoodEvent`] so scenario
    /// drivers can assert on middleware behaviour without downcasting to
    /// concrete application types. Already-recorded events are kept.
    pub fn subscribe_event_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(VecDeque::new());
        }
    }

    /// Drains and returns the recorded events (empty when the trace is not
    /// subscribed). At most [`EVENT_TRACE_CAP`] events are retained between
    /// drains — drain periodically in long scenarios, or the oldest events
    /// (including their cloned `Data` payloads) are dropped.
    pub fn take_event_trace(&mut self) -> Vec<PeerHoodEvent> {
        self.trace.as_mut().map(|t| t.drain(..).collect()).unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Driver-side API access and event dispatch
    // ------------------------------------------------------------------

    /// Runs a closure with the [`PeerHoodApi`], letting scenario drivers
    /// invoke application-level operations directly ("now connect to that
    /// service"). Operations act on behalf of the first hosted application
    /// (so the resulting callbacks are routed to it); on a node without
    /// applications they are unowned. Pending application callbacks are
    /// delivered afterwards.
    ///
    /// Returns `None` if the node has not started yet.
    pub fn with_api<R>(&mut self, ctx: &mut dyn Ctx, f: impl FnOnce(&mut PeerHoodApi<'_>) -> R) -> Option<R> {
        let app = self.apps.keys().next().copied();
        self.with_api_for(app, ctx, f)
    }

    /// Like [`PeerHoodNode::with_api`], but acting on behalf of a specific
    /// hosted application.
    pub fn with_api_for<R>(
        &mut self,
        app: Option<AppId>,
        ctx: &mut dyn Ctx,
        f: impl FnOnce(&mut PeerHoodApi<'_>) -> R,
    ) -> Option<R> {
        let result = {
            let core = self.core.as_mut()?;
            let mut api = PeerHoodApi { core, ctx, app };
            Some(f(&mut api))
        };
        self.drain_events(ctx);
        result
    }

    /// White-box access to the middleware state for protocol regression
    /// tests (e.g. interfering with the handover machinery mid-switch).
    #[cfg(test)]
    pub(crate) fn core_mut(&mut self) -> Option<&mut Core> {
        self.core.as_mut()
    }

    fn drain_events(&mut self, ctx: &mut dyn Ctx) {
        while let Some(event) = self.core.as_mut().and_then(|c| c.events.pop_front()) {
            if let Some(trace) = self.trace.as_mut() {
                if trace.len() == EVENT_TRACE_CAP {
                    trace.pop_front();
                }
                trace.push_back(event.clone());
            }
            let core = match self.core.as_mut() {
                Some(c) => c,
                None => break,
            };
            let apps = &mut self.apps;
            match event {
                PeerHoodEvent::Started { app } => {
                    Self::deliver(apps, core, ctx, Some(app), |a, api| a.on_start(api));
                }
                PeerHoodEvent::DeviceDiscovered { address } => {
                    Self::fan_out(apps, core, ctx, |a, api| a.on_device_discovered(api, address));
                }
                PeerHoodEvent::DeviceLost { address } => {
                    Self::fan_out(apps, core, ctx, |a, api| a.on_device_lost(api, address));
                }
                PeerHoodEvent::PeerConnected {
                    app,
                    conn,
                    client,
                    service,
                } => {
                    Self::deliver(apps, core, ctx, app, |a, api| {
                        a.on_peer_connected(api, conn, client, &service)
                    });
                }
                PeerHoodEvent::Connected { app, conn } => {
                    Self::deliver(apps, core, ctx, app, |a, api| a.on_connected(api, conn));
                }
                PeerHoodEvent::ConnectFailed { app, conn, error } => {
                    Self::deliver(apps, core, ctx, app, |a, api| a.on_connect_failed(api, conn, error));
                }
                PeerHoodEvent::Data { app, conn, payload } => {
                    Self::deliver(apps, core, ctx, app, |a, api| a.on_data(api, conn, payload));
                }
                PeerHoodEvent::Disconnected { app, conn, graceful } => {
                    Self::deliver(apps, core, ctx, app, |a, api| a.on_disconnected(api, conn, graceful));
                }
                PeerHoodEvent::ConnectionChanged { app, conn } => {
                    Self::deliver(apps, core, ctx, app, |a, api| a.on_connection_changed(api, conn));
                }
                PeerHoodEvent::ServiceReconnected { app, conn, provider } => {
                    Self::deliver(apps, core, ctx, app, |a, api| {
                        a.on_service_reconnected(api, conn, provider)
                    });
                }
                PeerHoodEvent::ReconnectRequired { app, conn, provider } => {
                    let mut asked = false;
                    Self::deliver(apps, core, ctx, app, |a, api| {
                        asked = true;
                        if a.on_reconnect_required(api, conn, provider) {
                            api.core.start_service_reconnection(api.ctx, conn, provider);
                        } else {
                            api.core.abandon_connection(conn);
                        }
                    });
                    if !asked {
                        // No application can approve the restart: the
                        // connection is abandoned.
                        core.abandon_connection(conn);
                    }
                }
                PeerHoodEvent::Shed {
                    app,
                    conn,
                    dropped_bytes,
                } => {
                    Self::deliver(apps, core, ctx, app, |a, api| a.on_shed(api, conn, dropped_bytes));
                }
                PeerHoodEvent::Timer { app, token } => {
                    Self::deliver(apps, core, ctx, app, |a, api| a.on_timer(api, token));
                }
            }
        }
    }

    /// Invokes one callback on every hosted application, in `AppId` order,
    /// walking the table in place: a callback's [`PeerHoodApi`] cannot reach
    /// it.
    fn fan_out(
        apps: &mut BTreeMap<AppId, Box<dyn Application>>,
        core: &mut Core,
        ctx: &mut dyn Ctx,
        f: impl Fn(&mut dyn Application, &mut PeerHoodApi<'_>),
    ) {
        for (&id, a) in apps.iter_mut() {
            let mut api = PeerHoodApi {
                core,
                ctx,
                app: Some(id),
            };
            f(a.as_mut(), &mut api);
        }
    }

    /// Resolves an event's target application and invokes one callback on it
    /// with a correctly-scoped [`PeerHoodApi`]. Does nothing when the event
    /// has no (living) target.
    fn deliver(
        apps: &mut BTreeMap<AppId, Box<dyn Application>>,
        core: &mut Core,
        ctx: &mut dyn Ctx,
        app: Option<AppId>,
        f: impl FnOnce(&mut dyn Application, &mut PeerHoodApi<'_>),
    ) {
        let id = match app {
            Some(id) => id,
            None => return,
        };
        if let Some(a) = apps.get_mut(&id) {
            let mut api = PeerHoodApi {
                core,
                ctx,
                app: Some(id),
            };
            f(a.as_mut(), &mut api);
        }
    }
}

/// Downcasts a hosted application. The `&dyn Application` is upcast, not its
/// `Box`: `&Box<dyn Application>` upcasts too, but to the box's own type, and
/// every downcast of that returns `None`.
fn downcast<T: Application>(app: &dyn Application) -> Option<&T> {
    (app as &dyn Any).downcast_ref()
}

/// Each callback turns `ctx` into a `&mut dyn Ctx` once: the middleware below
/// is written against the trait object, because a [`PeerHoodApi`] handed to a
/// `Box<dyn Application>` cannot be generic over the context.
impl Agent for PeerHoodNode {
    fn on_start<C: Ctx>(&mut self, ctx: &mut C) {
        let ctx: &mut dyn Ctx = ctx;
        let info = DeviceInfo::new(
            ctx.node_id(),
            self.config.device_name.clone(),
            self.config.mobility,
            &self.config.techs,
        );
        let mut core = Core::new(info, Arc::clone(&self.config));
        core.start(ctx);
        for id in self.apps.keys() {
            core.events.push_back(PeerHoodEvent::Started { app: *id });
        }
        self.core = Some(core);
        self.drain_events(ctx);
    }

    fn on_restart<C: Ctx>(&mut self, ctx: &mut C) {
        // A crash wipes the middleware state — daemon storage, connection
        // table, bridge pairs, pending attempts — exactly like killing and
        // relaunching the real daemon. The reborn daemon starts its
        // discovery cycles from scratch and re-advertises its services;
        // hosted applications receive `on_start` again.
        self.core = None;
        self.on_start(ctx);
    }

    fn on_timer<C: Ctx>(&mut self, ctx: &mut C, timer: TimerToken) {
        let ctx: &mut dyn Ctx = ctx;
        if let Some(core) = self.core.as_mut() {
            core.handle_timer(ctx, timer);
        }
        self.drain_events(ctx);
    }

    fn on_inquiry_complete<C: Ctx>(&mut self, ctx: &mut C, tech: RadioTech, hits: Vec<InquiryHit>) {
        let ctx: &mut dyn Ctx = ctx;
        if let Some(core) = self.core.as_mut() {
            core.handle_inquiry_complete(ctx, tech, hits);
        }
        self.drain_events(ctx);
    }

    fn on_incoming_connection<C: Ctx>(&mut self, ctx: &mut C, incoming: IncomingConnection) -> bool {
        match self.core.as_mut() {
            Some(core) => {
                // Admission control runs before any middleware state is
                // allocated: a rejected dialer sees `ConnectError::Rejected`
                // straight from the radio layer — the cheapest possible
                // answer, no protocol exchange, no link role. Accepted links
                // whose first command has not arrived yet count towards the
                // session cap, so a flood of half-open connections cannot
                // sneak past it.
                let peer = DeviceAddress::from_node(incoming.from);
                let (roles, connections) = (&core.roles, &core.connections);
                let active = || {
                    let half_open = roles.values().filter(|r| r.0 == LinkRole::IncomingUnidentified);
                    let served = connections.values().filter(|c| !c.is_outgoing() && c.is_established());
                    half_open.count() + served.count()
                };
                let peers = &mut core.security.peers;
                if !core.resilience.admit(peers, peer, ctx.now(), active) {
                    return false;
                }
                core.roles
                    .insert(incoming.link, (LinkRole::IncomingUnidentified, incoming.tech));
                true
            }
            None => false,
        }
    }

    fn on_connected<C: Ctx>(&mut self, ctx: &mut C, attempt: AttemptId, link: LinkId, peer: NodeId, tech: RadioTech) {
        let ctx: &mut dyn Ctx = ctx;
        if let Some(core) = self.core.as_mut() {
            core.handle_connected(ctx, attempt, link, peer, tech);
        }
        self.drain_events(ctx);
    }

    fn on_connect_failed<C: Ctx>(
        &mut self,
        ctx: &mut C,
        attempt: AttemptId,
        peer: NodeId,
        tech: RadioTech,
        error: ConnectError,
    ) {
        let ctx: &mut dyn Ctx = ctx;
        if let Some(core) = self.core.as_mut() {
            core.handle_connect_failed(ctx, attempt, peer, tech, error);
        }
        self.drain_events(ctx);
    }

    fn on_message<C: Ctx>(&mut self, ctx: &mut C, link: LinkId, from: NodeId, payload: Payload) {
        let ctx: &mut dyn Ctx = ctx;
        if let Some(core) = self.core.as_mut() {
            core.handle_message(ctx, link, from, payload);
        }
        self.drain_events(ctx);
    }

    fn on_disconnected<C: Ctx>(&mut self, ctx: &mut C, link: LinkId, peer: NodeId, reason: DisconnectReason) {
        let ctx: &mut dyn Ctx = ctx;
        if let Some(core) = self.core.as_mut() {
            core.handle_disconnected(ctx, link, peer, reason);
        }
        self.drain_events(ctx);
    }
}
