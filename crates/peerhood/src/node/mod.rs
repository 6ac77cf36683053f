//! The PeerHood node: glue between the middleware and the simulated radio.
//!
//! [`PeerHoodNode`] implements [`simnet::agent::Agent`] and owns the whole
//! middleware stack of one device — the daemon's device storage, service
//! registry and discovery plugins (Fig. 2.3), the role of every radio link
//! (the engine of §4.1), one record per logical connection (the
//! `iThreadList`), one per relayed bridge pair, the timers the middleware
//! owns and the handover machinery — plus the registry of
//! [`Application`](crate::application::Application)s running on top of it.
//! Applications act on the middleware through [`PeerHoodApi`] and receive
//! their callbacks through the typed [`PeerHoodEvent`] dispatch layer.
//!
//! The module is split by responsibility:
//!
//! * [`host`] — the node itself: application registry, fluent
//!   [`PeerHoodNodeBuilder`], event dispatch and the
//!   [`simnet::agent::Agent`] implementation,
//! * [`api`] — the [`PeerHoodApi`] handle applications and scenario drivers
//!   use to act on the middleware,
//! * [`events`] — the [`PeerHoodEvent`] vocabulary and [`AppId`],
//! * [`pending`] — the one way to open a link (`Core::dial`), the link
//!   roles and the physical connection-attempt ledger (the link role each
//!   radio connect will take, and what to do when it succeeds or fails),
//! * [`protocol`] — wire-message handling, discovery cycles and the
//!   inquiry response, bridge relaying, quality monitoring and handover.
//!
//! The original implementation runs these pieces as threads (inquiry thread,
//! advertisement thread, roaming/handover threads, the bridge main loop);
//! here every thread becomes a timer or a radio event handled on the
//! simulator's event loop, which keeps the protocol behaviour identical but
//! deterministic.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use simnet::table::IdTable;
use simnet::{AttemptId, Ctx, LinkId, RadioTech, SimDuration, TimerToken};

use crate::bridge::BridgeService;
use crate::config::PeerHoodConfig;
use crate::connection::{AppConnection, ConnectionIds};
use crate::device::DeviceInfo;
use crate::error::ErrorCode;
use crate::ids::{ConnectionId, DeviceAddress};
use crate::plugin::PluginState;
use crate::proto::Message;
use crate::service::{ServiceInfo, ServiceRegistry, BRIDGE_SERVICE_NAME};
use crate::storage::DeviceStorage;

use pending::LinkRole;

pub mod api;
pub mod events;
pub mod host;
pub mod pending;
pub mod protocol;

#[cfg(test)]
mod fuzz_tests;
#[cfg(test)]
mod tests;

pub use api::PeerHoodApi;
pub use events::{AppId, PeerHoodEvent};
pub use host::{PeerHoodNode, PeerHoodNodeBuilder};

const KIND_SHIFT: u64 = 56;
const KIND_INQUIRY: u64 = 1;
const KIND_MONITOR: u64 = 2;
/// The payload is a key of `Core::timers`.
const KIND_TABLE: u64 = 3;
const PAYLOAD_MASK: u64 = (1 << KIND_SHIFT) - 1;

fn token(kind: u64, payload: u64) -> TimerToken {
    TimerToken((kind << KIND_SHIFT) | (payload & PAYLOAD_MASK))
}

/// A one-shot timer the core keeps in its table until it fires.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Timer {
    /// An application timer: the scheduling app and its full 64-bit token.
    App(Option<AppId>, u64),
    /// The next result-routing reconnect of a server's connection (§5.3).
    ReplyRetry(ConnectionId),
}

/// Everything the node owns once started: the middleware state shared by the
/// protocol, pending-attempt and API layers.
pub(crate) struct Core {
    /// Shared with the host (and, via [`PeerHoodNodeBuilder::config`],
    /// potentially with thousands of sibling nodes): one configuration
    /// allocation per fleet, not per node.
    pub(crate) config: Arc<PeerHoodConfig>,
    /// The local device description advertised to the network.
    pub(crate) info: DeviceInfo,
    pub(crate) storage: DeviceStorage,
    pub(crate) registry: ServiceRegistry,
    /// One discovery plugin per configured radio, in `config.techs` order.
    pub(crate) plugins: Vec<PluginState>,
    /// What each live radio link is used for, so its payloads and its
    /// disconnect reach the right flow, and the radio it came up on.
    pub(crate) roles: IdTable<LinkId, (LinkRole, RadioTech)>,
    /// Every logical connection, owner included (the `iThreadList`).
    pub(crate) connections: IdTable<ConnectionId, AppConnection>,
    /// Hands out the ids of the connections this node opens.
    pub(crate) connection_ids: ConnectionIds,
    /// The relayed pairs, one per bridged connection.
    pub(crate) bridge: BridgeService,
    /// Radio connects in flight, each with the role its link takes once up.
    pub(crate) pending: IdTable<AttemptId, LinkRole>,
    /// One-shot timers in flight, keyed by the sequential payload of their
    /// simulator token, which cannot carry an app's full 64-bit token.
    pub(crate) timers: IdTable<u64, Timer>,
    pub(crate) next_timer: u64,
    /// Typed events queued during protocol processing and dispatched by the
    /// host once the middleware state is consistent.
    pub(crate) events: VecDeque<PeerHoodEvent>,
    /// Which application registered each local service (incoming connections
    /// to that service are routed to it).
    pub(crate) service_owner: BTreeMap<String, AppId>,
    /// Routing handovers completed that the monitor started while the old
    /// link was up (Fig. 5.5, state 1 → 2).
    pub(crate) handovers_before_break: u64,
    /// Routing handovers completed that repaired a route after it broke.
    pub(crate) handovers_after_break: u64,
    pub(crate) reply_reconnections: u64,
    /// Cached encoded inquiry-response frame, keyed by (storage generation,
    /// registry generation, bridge load). While nothing changes — the common
    /// case between discovery cycles — every inquiry served on any link
    /// reuses the same allocation instead of re-exporting and re-encoding
    /// the whole neighbourhood per neighbour. Exact-sized: like every
    /// outgoing frame it is encoded in the thread's encode buffer and copied
    /// out once, so the node holds no encode buffer of its own.
    pub(crate) inquiry_frame: Option<((u64, u64, u8), crate::wire::Frame)>,
    /// The resilience pipeline's gates on the frame path (`allow_*` and
    /// `admit`): each counts its own sheds; off, the default, all allow.
    pub(crate) resilience: crate::resilience::Resilience,
    /// The hardening layer's verdicts on the frame path: `open` and `seal`,
    /// the sanity checks and `admits_report`. Each checks its own tier, counts
    /// its own reason and charges its own penalty; off, the default, it
    /// passes everything. It owns the peer table the breakers live in too.
    pub(crate) security: crate::security::Security,
}

impl Core {
    pub(crate) fn new(info: DeviceInfo, config: Arc<PeerHoodConfig>) -> Self {
        let mut registry = ServiceRegistry::new();
        if config.bridge.enabled {
            // The hidden bridge service is part of every PeerHood package and
            // is started with the daemon (§4).
            registry
                .register(ServiceInfo::new(BRIDGE_SERVICE_NAME, "hidden", 1))
                .expect("bridge service registers into an empty registry");
        }
        Core {
            storage: DeviceStorage::new(info.address, config.monitor.quality_threshold)
                .with_owner_mobility(info.mobility),
            registry,
            plugins: config.techs.iter().map(|&tech| PluginState::new(tech)).collect(),
            info,
            roles: IdTable::default(),
            connections: IdTable::default(),
            connection_ids: ConnectionIds::default(),
            bridge: BridgeService::new(config.bridge.max_connections),
            pending: IdTable::default(),
            timers: IdTable::default(),
            next_timer: 0,
            events: VecDeque::new(),
            service_owner: BTreeMap::new(),
            handovers_before_break: 0,
            handovers_after_break: 0,
            reply_reconnections: 0,
            inquiry_frame: None,
            resilience: crate::resilience::Resilience::new(config.resilience),
            security: crate::security::Security::new(config.security.clone()),
            config,
        }
    }

    pub(crate) fn my_address(&self) -> DeviceAddress {
        self.info.address
    }

    pub(crate) fn my_info(&self) -> DeviceInfo {
        self.info.clone()
    }

    /// The discovery plugin driving `tech`, if that radio is configured.
    pub(crate) fn plugin_mut(&mut self, tech: RadioTech) -> Option<&mut PluginState> {
        self.plugins.iter_mut().find(|p| p.tech == tech)
    }

    /// The application owning a connection, if any.
    pub(crate) fn owner_of(&self, conn: ConnectionId) -> Option<AppId> {
        self.connections.get(&conn).and_then(|c| c.owner)
    }

    /// Has `timer` fire `after` from now.
    pub(crate) fn schedule(&mut self, ctx: &mut dyn Ctx, after: SimDuration, timer: Timer) {
        let key = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(key, timer);
        ctx.schedule(after, token(KIND_TABLE, key));
    }

    /// Radio technology to use towards a device (first configured technology
    /// the target also supports, falling back to our primary one).
    pub(crate) fn tech_for(&self, target: Option<&DeviceInfo>) -> RadioTech {
        let primary = self.config.techs.first().copied().unwrap_or(RadioTech::Bluetooth);
        match target {
            Some(info) => self
                .config
                .techs
                .iter()
                .copied()
                .find(|t| info.supports(*t))
                .unwrap_or(primary),
            None => primary,
        }
    }

    /// [`Core::tech_for`] a device by address: as the storage describes it,
    /// or our primary technology when it is not known.
    pub(crate) fn tech_towards(&self, hop: DeviceAddress) -> RadioTech {
        self.tech_for(self.storage.get(hop).map(|d| d.info).as_ref())
    }

    /// Re-classifies a live link; it keeps the radio it came up on.
    pub(crate) fn set_role(&mut self, link: LinkId, role: LinkRole) {
        if let Some(entry) = self.roles.get_mut(&link) {
            entry.0 = role;
        }
    }

    /// Closes a link and forgets its role: the one way the node drops a link.
    pub(crate) fn drop_link(&mut self, ctx: &mut dyn Ctx, link: LinkId) {
        ctx.close(link);
        self.roles.remove(&link);
    }

    /// Answers a request on `link` with an `Error` frame, then drops the link.
    pub(crate) fn refuse(
        &mut self,
        ctx: &mut dyn Ctx,
        link: LinkId,
        conn_id: ConnectionId,
        code: ErrorCode,
        detail: String,
    ) {
        self.send_frame(ctx, link, &Message::Error { conn_id, code, detail });
        self.drop_link(ctx, link);
    }

    /// Tells the far end of `link` that `conn` is over, then drops the link.
    pub(crate) fn hang_up(&mut self, ctx: &mut dyn Ctx, link: LinkId, conn: ConnectionId) {
        self.send_frame(ctx, link, &Message::Disconnect { conn_id: conn });
        self.drop_link(ctx, link);
    }
}
