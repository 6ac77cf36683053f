//! The handle applications (and scenario drivers) use to act on the
//! middleware.
//!
//! A [`PeerHoodApi`] is passed into every
//! [`Application`](crate::application::Application) callback and can also be
//! borrowed by scenario drivers through
//! [`PeerHoodNode::with_api`](super::PeerHoodNode::with_api). It carries the
//! identity of the application it acts for, so services registered and
//! connections opened through it are owned by — and their callbacks routed
//! to — that application.

use simnet::{Ctx, SimDuration, SimTime};

use crate::connection::{AppConnection, ConnKind, ConnectionSnapshot};
use crate::error::PeerHoodError;
use crate::handover::HandoverMonitor;
use crate::ids::{ConnectionId, DeviceAddress};
use crate::proto::Message;
use crate::service::ServiceInfo;
use crate::storage::{StorageStats, StoredDevice};

use super::pending::LinkRole;
use super::{AppId, Core, Timer};

/// Handle applications (and scenario drivers) use to act on the middleware.
///
/// The handle's application identity determines where callbacks are routed
/// (services registered and connections opened through it belong to that
/// application). It is **routing, not sandboxing**: applications on one
/// device are mutually trusted, as in the original library where they share
/// one daemon, so mutating operations (`send`, `close`, `set_sending`)
/// accept any connection on the node.
pub struct PeerHoodApi<'a> {
    pub(crate) core: &'a mut Core,
    pub(crate) ctx: &'a mut dyn Ctx,
    /// The application this handle acts for; `None` for driver-side use on a
    /// node without applications.
    pub(crate) app: Option<AppId>,
}

impl PeerHoodApi<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// The application this handle acts for (`None` when borrowed by a
    /// scenario driver on a node without applications).
    pub fn app_id(&self) -> Option<AppId> {
        self.app
    }

    /// This device's address.
    pub fn my_address(&self) -> DeviceAddress {
        self.core.my_address()
    }

    /// This device's full advertised description.
    pub fn my_info(&self) -> crate::device::DeviceInfo {
        self.core.my_info()
    }

    /// Registers an application service with the daemon, making it
    /// discoverable by the whole PeerHood network. Incoming connections to
    /// the service are routed to the registering application.
    ///
    /// # Errors
    ///
    /// Fails if a service with the same name is already registered.
    pub fn register_service(&mut self, service: ServiceInfo) -> Result<(), PeerHoodError> {
        let name = service.name.clone();
        self.core.registry.register(service)?;
        if let Some(app) = self.app {
            self.core.service_owner.insert(name, app);
        }
        Ok(())
    }

    /// `GetDeviceList`: every remote device currently in the storage.
    ///
    /// Returns owned snapshots, as
    /// [`DeviceStorage::devices`](crate::storage::DeviceStorage::devices)
    /// builds them.
    pub fn device_list(&self) -> Vec<StoredDevice> {
        self.core.storage.devices().collect()
    }

    /// `GetServiceList`: every `(device, service)` pair currently known.
    pub fn service_list(&self) -> Vec<(DeviceAddress, ServiceInfo)> {
        let mut list = Vec::new();
        for d in self.core.storage.devices() {
            list.extend(d.services.iter().map(|s| (d.info.address, s.clone())));
        }
        list
    }

    /// Storage statistics.
    pub fn storage_stats(&self) -> StorageStats {
        self.core.storage.stats()
    }

    /// Connects to a named service on a specific device. Returns the
    /// connection id immediately; establishment is reported through
    /// [`Application::on_connected`](crate::application::Application::on_connected)
    /// on the owning application.
    ///
    /// # Errors
    ///
    /// Fails if the device is unknown or no route to it exists.
    pub fn connect_to(&mut self, target: DeviceAddress, service: &str) -> Result<ConnectionId, PeerHoodError> {
        self.core.op_connect_to(self.ctx, self.app, target, service)
    }

    /// Connects to the best-known provider of a named service.
    ///
    /// # Errors
    ///
    /// Fails if no known device offers the service.
    pub fn connect_to_service(&mut self, service: &str) -> Result<ConnectionId, PeerHoodError> {
        self.core.op_connect_to_service(self.ctx, self.app, service)
    }

    /// Writes application data on a connection. On a server-side connection
    /// whose client has disconnected, the payload is queued and delivered
    /// through result routing once the client is reachable again (§5.3).
    ///
    /// # Errors
    ///
    /// Fails if the connection is unknown or if an outgoing connection is
    /// not currently established.
    pub fn send(&mut self, conn: ConnectionId, payload: Vec<u8>) -> Result<(), PeerHoodError> {
        self.core.op_send(self.ctx, conn, payload)
    }

    /// Sets the §5.3 "sending" flag: while `false`, the handover machinery
    /// leaves a broken connection alone and waits for the server to return
    /// results.
    ///
    /// # Errors
    ///
    /// Fails if the connection is unknown.
    pub fn set_sending(&mut self, conn: ConnectionId, sending: bool) -> Result<(), PeerHoodError> {
        self.core.op_set_sending(conn, sending)
    }

    /// Closes a connection and forgets it. Closing an unknown (e.g. already
    /// closed) connection is a no-op.
    pub fn close(&mut self, conn: ConnectionId) {
        self.core.op_close(self.ctx, conn);
    }

    /// Snapshot of one connection.
    pub fn connection(&self, conn: ConnectionId) -> Option<ConnectionSnapshot> {
        self.core.connections.get(&conn).map(ConnectionSnapshot::from)
    }

    /// Snapshots of all connections.
    pub fn connections(&self) -> Vec<ConnectionSnapshot> {
        self.core.connections.values().map(ConnectionSnapshot::from).collect()
    }

    /// Schedules an application timer delivered through
    /// [`Application::on_timer`](crate::application::Application::on_timer)
    /// to the scheduling application.
    pub fn schedule_timer(&mut self, after: SimDuration, token: u64) {
        self.core.schedule(self.ctx, after, Timer::App(self.app, token));
    }
}

// ---------------------------------------------------------------------
// Operations invoked through the PeerHoodApi
// ---------------------------------------------------------------------

impl Core {
    pub(crate) fn op_connect_to(
        &mut self,
        ctx: &mut dyn Ctx,
        owner: Option<AppId>,
        target: DeviceAddress,
        service: &str,
    ) -> Result<ConnectionId, PeerHoodError> {
        let route = self.storage.get(target).map(|entry| entry.route);
        let route = route.ok_or(PeerHoodError::UnknownDevice(target))?;
        // The circuit breaker gates the dial towards the first physical hop
        // before any connection state is allocated: a refused dial costs
        // nothing — no id, no table entry, no radio attempt. So this is the
        // one dial that asks the breaker itself and then takes `dial`'s
        // ungated half.
        let first_hop = route.first_hop(target);
        let peers = &mut self.security.peers;
        if !self.resilience.allow_dial(peers, first_hop, ctx.now()) {
            return Err(PeerHoodError::CircuitOpen(first_hop));
        }
        let conn = self.connection_ids.allocate(self.my_address());
        let kind = ConnKind::outgoing(route.bridge);
        let mut connection = AppConnection::outgoing(conn, target, service, kind, owner);
        if self.config.handover.enabled {
            connection.monitor = Some(HandoverMonitor::new(self.config.monitor.quality_threshold));
        }
        self.connections.insert(conn, connection);
        self.connect_hop(ctx, first_hop, LinkRole::AppConnection(conn));
        Ok(conn)
    }

    pub(crate) fn op_connect_to_service(
        &mut self,
        ctx: &mut dyn Ctx,
        owner: Option<AppId>,
        service: &str,
    ) -> Result<ConnectionId, PeerHoodError> {
        let provider = self
            .storage
            .best_service_provider(service, None)
            .map(|(provider, _)| provider)
            .ok_or_else(|| PeerHoodError::ServiceNotFound(service.to_string()))?;
        self.op_connect_to(ctx, owner, provider, service)
    }

    pub(crate) fn op_send(
        &mut self,
        ctx: &mut dyn Ctx,
        conn: ConnectionId,
        payload: Vec<u8>,
    ) -> Result<(), PeerHoodError> {
        let (established, outgoing, link) = match self.connections.get(&conn) {
            Some(c) => (c.is_established(), c.is_outgoing(), c.link),
            None => return Err(PeerHoodError::UnknownConnection(conn)),
        };
        // Backpressure: the per-app outbound bucket sheds sends that exceed
        // the rate, with an explicit error the caller can react to.
        let owner = self.owner_of(conn);
        if !self.resilience.allow_outbound(owner, ctx.now()) {
            return Err(PeerHoodError::Overloaded(conn));
        }
        if established {
            if let Some(link) = link {
                self.send_frame(ctx, link, &Message::Data { conn_id: conn, payload });
                return Ok(());
            }
        }
        if !outgoing {
            // Server side with a broken connection: queue the result and
            // start result routing (§5.3 / Fig. 5.10). The outbox cap bounds
            // how much a dead client's results may occupy; shed results are
            // reported to the owning application instead of queued silently.
            let queued = self.connections.get(&conn).map_or(0, |c| c.outbox.len());
            if !self.resilience.allow_queued(queued) {
                self.events.push_back(super::PeerHoodEvent::Shed {
                    app: owner,
                    conn,
                    dropped_bytes: payload.len(),
                });
                return Err(PeerHoodError::Overloaded(conn));
            }
            if let Some(c) = self.connections.get_mut(&conn) {
                c.outbox.push(payload);
            }
            self.try_reply_reconnect(ctx, conn);
            return Ok(());
        }
        Err(PeerHoodError::InvalidConnectionState(conn))
    }

    pub(crate) fn op_close(&mut self, ctx: &mut dyn Ctx, conn: ConnectionId) {
        if let Some(c) = self.connections.remove(&conn) {
            if let Some(link) = c.link {
                self.hang_up(ctx, link, conn);
            }
            // A routing handover in flight ends with the session, on either
            // end: the old route a server left and the new one a client is
            // building.
            self.drop_left_routes(ctx, conn);
            self.drop_replacement_routes(ctx, conn);
        }
    }

    pub(crate) fn op_set_sending(&mut self, conn: ConnectionId, sending: bool) -> Result<(), PeerHoodError> {
        match self.connections.get_mut(&conn) {
            Some(c) => {
                c.sending = sending;
                Ok(())
            }
            None => Err(PeerHoodError::UnknownConnection(conn)),
        }
    }
}
