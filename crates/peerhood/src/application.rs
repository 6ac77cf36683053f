//! The application callback interface.
//!
//! PeerHood applications sit on top of the library and are driven entirely by
//! callbacks (the original uses an application callback class registered with
//! the Engine, §4.1). An application implements [`Application`] and interacts
//! with the middleware through the [`PeerHoodApi`] handle it receives in
//! every callback: registering services, listing the environment, opening
//! connections, writing data, and controlling the §5.3 "sending" flag.

use std::any::Any;

use crate::device::DeviceInfo;
use crate::error::PeerHoodError;
use crate::ids::{ConnectionId, DeviceAddress};
use crate::node::PeerHoodApi;

/// Behaviour of a PeerHood application running on one device.
///
/// All methods have empty default implementations so applications only
/// implement the callbacks they care about. Scenario drivers and tests reach
/// the concrete type by upcasting a `&dyn Application` to `&dyn Any` and
/// downcasting that (what [`PeerHoodNode::app`](crate::node::PeerHoodNode::app)
/// does). Applications are `Send`, so the node hosting them is one too and
/// runs on either engine.
pub trait Application: Any + Send {
    /// Called once when the PeerHood node starts. Typical applications
    /// register their services here.
    fn on_start(&mut self, api: &mut PeerHoodApi<'_>) {
        let _ = api;
    }

    /// A remote client connected to one of this application's registered
    /// services.
    fn on_peer_connected(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, client: DeviceInfo, service: &str) {
        let _ = (api, conn, client, service);
    }

    /// An outgoing connection initiated with [`PeerHoodApi::connect_to`]
    /// received its end-to-end acknowledgement and is ready for data.
    fn on_connected(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId) {
        let _ = (api, conn);
    }

    /// An outgoing connection could not be established.
    fn on_connect_failed(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, error: PeerHoodError) {
        let _ = (api, conn, error);
    }

    /// Application data arrived on a connection.
    fn on_data(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, payload: Vec<u8>) {
        let _ = (api, conn, payload);
    }

    /// A connection went down and the middleware is not (or no longer)
    /// trying to recover it. `graceful` is true when the peer closed the
    /// connection deliberately.
    fn on_disconnected(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, graceful: bool) {
        let _ = (api, conn, graceful);
    }

    /// The underlying route of a connection was replaced while preserving the
    /// session — a completed routing handover, a server reply-channel
    /// re-establishment or a client re-attachment (the `ChangeConnection`
    /// callback of Fig. 5.5).
    fn on_connection_changed(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId) {
        let _ = (api, conn);
    }

    /// Routing handover is impossible and the middleware proposes to
    /// reconnect to `provider`, the best-ranked other provider of the same
    /// service (§5.2.2 notes the user should be asked for permission because
    /// the task restarts). Return `true` to allow the reconnection; an app
    /// that keeps a [`ServiceSession`](crate::session::ServiceSession) marks
    /// it switching first.
    fn on_reconnect_required(
        &mut self,
        api: &mut PeerHoodApi<'_>,
        conn: ConnectionId,
        provider: DeviceAddress,
    ) -> bool {
        let _ = (api, conn, provider);
        true
    }

    /// A service reconnection to `provider` completed on the same connection
    /// id. Whether the task restarts is
    /// [`ServiceSession`](crate::session::ServiceSession)'s rule: it does when
    /// `provider` is not the one the task began on.
    fn on_service_reconnected(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, provider: DeviceAddress) {
        let _ = (api, conn, provider);
    }

    /// The resilience pipeline shed load belonging to this application: an
    /// inbound payload was dropped by the rate limit or a queued result by
    /// the outbox cap. The connection itself stays up; the application can
    /// slow down, resynchronise or close it.
    fn on_shed(&mut self, api: &mut PeerHoodApi<'_>, conn: ConnectionId, dropped_bytes: usize) {
        let _ = (api, conn, dropped_bytes);
    }

    /// An application timer scheduled with [`PeerHoodApi::schedule_timer`]
    /// fired.
    fn on_timer(&mut self, api: &mut PeerHoodApi<'_>, token: u64) {
        let _ = (api, token);
    }

    /// Dynamic discovery learned about a new remote device. Fanned out to
    /// every application hosted on the node.
    fn on_device_discovered(&mut self, api: &mut PeerHoodApi<'_>, address: DeviceAddress) {
        let _ = (api, address);
    }

    /// A known remote device aged out of the storage. Fanned out to every
    /// application hosted on the node.
    fn on_device_lost(&mut self, api: &mut PeerHoodApi<'_>, address: DeviceAddress) {
        let _ = (api, address);
    }
}

/// A no-op application, useful for pure bridge/relay devices that only run
/// the daemon and the hidden bridge service.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdleApplication;

impl Application for IdleApplication {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_application_downcasts() {
        let app: Box<dyn Application> = Box::new(IdleApplication);
        let inner: &dyn Any = app.as_ref();
        assert!(inner.downcast_ref::<IdleApplication>().is_some());
        // Upcasting the box instead reads the box's own type: the trap
        // `PeerHoodNode::app` steps around.
        let boxed: &dyn Any = &app;
        assert!(boxed.downcast_ref::<IdleApplication>().is_none());
    }
}
