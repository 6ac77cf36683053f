//! The typed middleware→application event vocabulary.
//!
//! Every callback an [`Application`](crate::application::Application)
//! receives is described by a [`PeerHoodEvent`] first: the protocol layer
//! pushes events onto the host's queue while the middleware state is being
//! updated, and the host delivers them to the owning application once the
//! state is consistent again. Scenario drivers can subscribe to the same
//! stream (see [`PeerHoodNode::subscribe_event_trace`]) and assert on it
//! directly, without downcasting to concrete application types.
//!
//! [`PeerHoodNode::subscribe_event_trace`]: crate::node::PeerHoodNode::subscribe_event_trace

use std::fmt;

use crate::device::DeviceInfo;
use crate::error::PeerHoodError;
use crate::ids::{ConnectionId, DeviceAddress};

/// Identity of one application hosted on a [`PeerHoodNode`].
///
/// Ids are assigned in registration order by the
/// [builder](crate::node::PeerHoodNodeBuilder), starting at zero, and are
/// stable for the lifetime of the node.
///
/// [`PeerHoodNode`]: crate::node::PeerHoodNode
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u32);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// A middleware event, routed to the owning application (or fanned out to
/// every application for node-wide events).
///
/// The `app` field identifies the application the event is delivered to;
/// `None` means no application owns the subject (for example a connection a
/// scenario driver opened through
/// [`PeerHoodNode::with_api`](crate::node::PeerHoodNode::with_api) on a
/// relay node) — such events still appear in the event trace but trigger no
/// callback.
#[derive(Debug, Clone, PartialEq)]
pub enum PeerHoodEvent {
    /// The node started; delivered to `app` as
    /// [`on_start`](crate::application::Application::on_start).
    Started {
        /// The application being started.
        app: AppId,
    },
    /// A remote client connected to one of `app`'s registered services.
    PeerConnected {
        /// The service-owning application.
        app: Option<AppId>,
        /// The new incoming connection.
        conn: ConnectionId,
        /// The connecting client's advertised device description.
        client: DeviceInfo,
        /// Name of the contacted service.
        service: String,
    },
    /// An outgoing connection completed its end-to-end establishment.
    Connected {
        /// The connection-owning application.
        app: Option<AppId>,
        /// The established connection.
        conn: ConnectionId,
    },
    /// An outgoing connection could not be established.
    ConnectFailed {
        /// The connection-owning application.
        app: Option<AppId>,
        /// The failed connection.
        conn: ConnectionId,
        /// Why establishment failed.
        error: PeerHoodError,
    },
    /// Application data arrived on a connection.
    Data {
        /// The connection-owning application.
        app: Option<AppId>,
        /// The carrying connection.
        conn: ConnectionId,
        /// The received payload.
        payload: Vec<u8>,
    },
    /// A connection went down for good.
    Disconnected {
        /// The connection-owning application.
        app: Option<AppId>,
        /// The lost connection.
        conn: ConnectionId,
        /// True when the peer closed deliberately.
        graceful: bool,
    },
    /// The route under a live connection was replaced (routing handover,
    /// reply-channel re-establishment or client re-attachment).
    ConnectionChanged {
        /// The connection-owning application.
        app: Option<AppId>,
        /// The re-routed connection.
        conn: ConnectionId,
    },
    /// A service reconnection to a different provider completed; the task
    /// must restart.
    ServiceReconnected {
        /// The connection-owning application.
        app: Option<AppId>,
        /// The surviving logical connection.
        conn: ConnectionId,
        /// The new provider.
        provider: DeviceAddress,
    },
    /// Routing handover is impossible; the middleware asks the owning
    /// application for permission to reconnect to another provider.
    ReconnectRequired {
        /// The connection-owning application (asked for permission).
        app: Option<AppId>,
        /// The broken connection.
        conn: ConnectionId,
        /// The best-ranked other provider of the same service, the one the
        /// switch dials if the application allows it.
        provider: DeviceAddress,
    },
    /// The resilience pipeline shed load on a connection (an inbound payload
    /// dropped by the rate limit or a queued result dropped by the outbox
    /// cap). Surfaced so overload is always explicit, never silent.
    Shed {
        /// The connection-owning application.
        app: Option<AppId>,
        /// The connection the shed work belonged to.
        conn: ConnectionId,
        /// Size of the dropped payload.
        dropped_bytes: usize,
    },
    /// An application timer fired.
    Timer {
        /// The application that scheduled the timer.
        app: Option<AppId>,
        /// The token passed to
        /// [`schedule_timer`](crate::node::PeerHoodApi::schedule_timer).
        token: u64,
    },
    /// Dynamic discovery learned about a new remote device; fanned out to
    /// every application on the node.
    DeviceDiscovered {
        /// The newly known device.
        address: DeviceAddress,
    },
    /// A known device aged out of the storage; fanned out to every
    /// application on the node.
    DeviceLost {
        /// The removed device.
        address: DeviceAddress,
    },
}

impl PeerHoodEvent {
    /// The application the event targets, if it targets exactly one.
    pub fn app(&self) -> Option<AppId> {
        match self {
            PeerHoodEvent::Started { app } => Some(*app),
            PeerHoodEvent::PeerConnected { app, .. }
            | PeerHoodEvent::Connected { app, .. }
            | PeerHoodEvent::ConnectFailed { app, .. }
            | PeerHoodEvent::Data { app, .. }
            | PeerHoodEvent::Disconnected { app, .. }
            | PeerHoodEvent::ConnectionChanged { app, .. }
            | PeerHoodEvent::ServiceReconnected { app, .. }
            | PeerHoodEvent::ReconnectRequired { app, .. }
            | PeerHoodEvent::Shed { app, .. }
            | PeerHoodEvent::Timer { app, .. } => *app,
            PeerHoodEvent::DeviceDiscovered { .. } | PeerHoodEvent::DeviceLost { .. } => None,
        }
    }
}
