//! Application-level connections.
//!
//! The original library keeps an `iThreadList` of `ThreadInfo` records, one
//! per virtual connection (Fig. 2.5). Here that list is the node core's
//! `connections` table: every logical PeerHood connection — direct or
//! bridged, outgoing or incoming — is one [`AppConnection`] record, owner
//! included, that survives handovers, link breaks and re-establishments,
//! because it is keyed by the end-to-end [`ConnectionId`] rather than by the
//! underlying radio link.

use serde::{Deserialize, Serialize};
use simnet::{ConnectError, LinkId, RadioTech};

use crate::device::DeviceInfo;
use crate::handover::HandoverMonitor;
use crate::ids::{ConnectionId, DeviceAddress};
use crate::node::AppId;

/// Establishment state of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConnState {
    /// A physical link towards the peer (or bridge) is being set up.
    Connecting,
    /// The link exists and the PH_CONNECT / PH_BRIDGE command has been sent;
    /// waiting for the end-to-end PH_OK.
    AwaitingAccept,
    /// The end-to-end acknowledgement arrived; data can flow.
    Established,
    /// The connection is down (link broke or the peer closed). The entry is
    /// kept so that result routing or reconnection can revive it.
    Closed,
    /// Establishment failed and will not be retried.
    Failed,
}

/// Direction and shape of a connection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConnKind {
    /// We initiated the connection and reach the peer directly.
    OutgoingDirect,
    /// We initiated the connection and reach the peer through a bridge node.
    OutgoingBridged {
        /// The first bridge we connect to.
        bridge: DeviceAddress,
    },
    /// The peer initiated the connection to one of our registered services.
    Incoming {
        /// The full parameters the client sent at connection start (used for
        /// result routing, §5.3 option 2).
        client: DeviceInfo,
    },
}

impl ConnKind {
    /// An outgoing connection through `bridge`, or direct without one.
    pub fn outgoing(bridge: Option<DeviceAddress>) -> Self {
        bridge.map_or(ConnKind::OutgoingDirect, |bridge| ConnKind::OutgoingBridged { bridge })
    }

    /// True for connections we initiated.
    pub fn is_outgoing(&self) -> bool {
        !matches!(self, ConnKind::Incoming { .. })
    }

    /// The device we physically connect to first (the bridge for bridged
    /// connections, the peer itself otherwise). `None` for incoming
    /// connections.
    pub fn first_hop(&self, remote: DeviceAddress) -> Option<DeviceAddress> {
        match self {
            ConnKind::OutgoingDirect => Some(remote),
            ConnKind::OutgoingBridged { bridge } => Some(*bridge),
            ConnKind::Incoming { .. } => None,
        }
    }
}

/// A §5.2.2 provider switch on an outgoing connection, and which of its two
/// second chances it has spent. When the switch's dial fails, a set-up fault
/// re-dials the same first hop once, and a refusal that says the hop cannot
/// be reached (out of range, its link down, its stack down) runs one fresh
/// inquiry; the switch is re-aimed at the best provider it heard, dialled
/// directly. After that the app hears the failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProviderSwitch {
    /// The provider the session lost: the fresh search never proposes it.
    pub lost: DeviceAddress,
    /// The re-dial after a set-up fault is spent.
    pub retried: bool,
    /// The fresh search is spent.
    pub searched: bool,
    /// While the fresh search runs, the radio whose next completed inquiry
    /// serves it, and the refusal that started it: the app hears that
    /// refusal if the search finds no provider.
    pub searching: Option<(RadioTech, ConnectError)>,
    /// The provider the fresh search heard and re-aimed the switch at. The
    /// radio has just heard it, so it is dialled directly, whatever route
    /// storage holds for it.
    pub heard: Option<DeviceAddress>,
}

impl ProviderSwitch {
    /// A switch away from `lost` with both second chances left.
    pub fn away_from(lost: DeviceAddress) -> Self {
        ProviderSwitch {
            lost,
            retried: false,
            searched: false,
            searching: None,
            heard: None,
        }
    }

    /// True once the switch has spent a second chance.
    pub fn rescued(&self) -> bool {
        self.retried || self.searched
    }
}

/// One logical PeerHood connection.
#[derive(Debug, Clone)]
pub struct AppConnection {
    /// End-to-end identity.
    pub id: ConnectionId,
    /// The remote application device (server for outgoing, client for
    /// incoming connections).
    pub remote: DeviceAddress,
    /// The service the connection targets.
    pub service: String,
    /// Direction / shape.
    pub kind: ConnKind,
    /// Establishment state.
    pub state: ConnState,
    /// The radio link currently carrying the connection, if any.
    pub link: Option<LinkId>,
    /// The §5.3 "sending" flag: while `true` the client still needs the
    /// connection and the handover machinery keeps it alive; when the
    /// application clears it, a broken connection is left for the server to
    /// re-establish (result routing).
    pub sending: bool,
    /// Handover monitoring state (outgoing, monitored connections only).
    pub monitor: Option<HandoverMonitor>,
    /// Payloads queued while the connection is down, flushed on
    /// re-establishment (used by the server to return results after a
    /// disconnect, Fig. 5.10).
    pub outbox: Vec<Vec<u8>>,
    /// Number of reconnect attempts made to flush the outbox.
    pub reconnect_attempts: u32,
    /// True while a service-reconnection (to a *different* provider) is in
    /// progress, so that establishment fires the right callback.
    pub reconnecting: bool,
    /// The current service-reconnection, or the last one once it is over.
    pub switch: Option<ProviderSwitch>,
    /// The application every callback about the connection is routed to:
    /// the one that opened it, or the one that registered its service.
    pub owner: Option<AppId>,
}

impl AppConnection {
    /// Creates a new outgoing connection entry in the `Connecting` state.
    pub fn outgoing(
        id: ConnectionId,
        remote: DeviceAddress,
        service: impl Into<String>,
        kind: ConnKind,
        owner: Option<AppId>,
    ) -> Self {
        AppConnection {
            id,
            remote,
            service: service.into(),
            kind,
            state: ConnState::Connecting,
            link: None,
            sending: true,
            monitor: None,
            outbox: Vec::new(),
            reconnect_attempts: 0,
            reconnecting: false,
            switch: None,
            owner,
        }
    }

    /// Creates an established incoming connection entry.
    pub fn incoming(
        id: ConnectionId,
        client: DeviceInfo,
        service: impl Into<String>,
        link: LinkId,
        owner: Option<AppId>,
    ) -> Self {
        AppConnection {
            id,
            remote: client.address,
            service: service.into(),
            kind: ConnKind::Incoming { client },
            state: ConnState::Established,
            link: Some(link),
            sending: true,
            monitor: None,
            outbox: Vec::new(),
            reconnect_attempts: 0,
            reconnecting: false,
            switch: None,
            owner,
        }
    }

    /// True if data can currently be written.
    pub fn is_established(&self) -> bool {
        self.state == ConnState::Established && self.link.is_some()
    }

    /// True for connections we initiated.
    pub fn is_outgoing(&self) -> bool {
        self.kind.is_outgoing()
    }

    /// Marks the connection established over `link`.
    pub fn establish(&mut self, link: LinkId) {
        self.link = Some(link);
        self.state = ConnState::Established;
    }

    /// Marks the connection down, detaching the link.
    pub fn mark_closed(&mut self) {
        self.link = None;
        if self.state != ConnState::Failed {
            self.state = ConnState::Closed;
        }
    }
}

/// Read-only snapshot handed to applications.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectionSnapshot {
    /// End-to-end identity.
    pub id: ConnectionId,
    /// Remote application device.
    pub remote: DeviceAddress,
    /// Target service name.
    pub service: String,
    /// Establishment state.
    pub state: ConnState,
    /// Whether a bridge is involved on our first hop.
    pub bridged: bool,
    /// The device the route physically connects to first: the bridge for
    /// bridged connections, the remote itself for direct ones, `None` for
    /// incoming connections. Tracks handovers, so tests can assert which
    /// bridge actually carries the session.
    pub first_hop: Option<DeviceAddress>,
    /// Current value of the "sending" flag.
    pub sending: bool,
    /// The current or last service-reconnection spent a second chance (see
    /// [`ProviderSwitch`]): it did not land on its first dial, if it landed.
    pub switch_rescued: bool,
}

impl From<&AppConnection> for ConnectionSnapshot {
    fn from(c: &AppConnection) -> Self {
        ConnectionSnapshot {
            id: c.id,
            remote: c.remote,
            service: c.service.clone(),
            state: c.state,
            bridged: matches!(c.kind, ConnKind::OutgoingBridged { .. }),
            first_hop: c.kind.first_hop(c.remote),
            sending: c.sending,
            switch_rescued: c.switch.is_some_and(|s| s.rescued()),
        }
    }
}

/// A node's connection-id allocator: ids it hands out are unique on the
/// node and embed the initiating device.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnectionIds(u32);

impl ConnectionIds {
    /// The next id of a connection `initiator` opens.
    pub fn allocate(&mut self, initiator: DeviceAddress) -> ConnectionId {
        let id = ConnectionId::new(initiator, self.0);
        self.0 += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MobilityClass;
    use simnet::{NodeId, RadioTech};

    fn addr(n: u64) -> DeviceAddress {
        DeviceAddress::from_node_raw(n)
    }

    fn client_info(n: u64) -> DeviceInfo {
        DeviceInfo::new(
            NodeId::from_raw(n),
            "client",
            MobilityClass::Dynamic,
            &[RadioTech::Bluetooth],
        )
    }

    #[test]
    fn id_allocation_is_unique_and_embeds_initiator() {
        let mut ids = ConnectionIds::default();
        let a = ids.allocate(addr(7));
        let b = ids.allocate(addr(7));
        assert_ne!(a, b);
        assert_eq!(a.initiator(), addr(7));
    }

    #[test]
    fn outgoing_lifecycle() {
        let mut conn = AppConnection::outgoing(
            ConnectionId::new(addr(1), 0),
            addr(9),
            "echo",
            ConnKind::OutgoingBridged { bridge: addr(5) },
            None,
        );
        assert!(conn.is_outgoing());
        assert!(!conn.is_established());
        assert_eq!(conn.kind.first_hop(conn.remote), Some(addr(5)));
        conn.establish(LinkId(3));
        assert!(conn.is_established());
        conn.mark_closed();
        assert_eq!(conn.state, ConnState::Closed);
        assert!(conn.link.is_none());
    }

    #[test]
    fn failed_state_is_sticky_across_mark_closed() {
        let mut conn = AppConnection::outgoing(
            ConnectionId::new(addr(1), 0),
            addr(9),
            "echo",
            ConnKind::OutgoingDirect,
            None,
        );
        conn.state = ConnState::Failed;
        conn.mark_closed();
        assert_eq!(conn.state, ConnState::Failed);
    }

    #[test]
    fn incoming_connection_records_client_parameters() {
        let conn = AppConnection::incoming(
            ConnectionId::new(addr(2), 0),
            client_info(2),
            "picture-analysis",
            LinkId(1),
            None,
        );
        assert!(!conn.is_outgoing());
        assert!(conn.is_established());
        assert_eq!(conn.remote, addr(2));
        match &conn.kind {
            ConnKind::Incoming { client } => assert_eq!(client.address, addr(2)),
            other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(conn.kind.first_hop(conn.remote), None);
    }

    #[test]
    fn snapshot_reflects_connection() {
        let mut conn = AppConnection::outgoing(
            ConnectionId::new(addr(1), 3),
            addr(9),
            "echo",
            ConnKind::OutgoingBridged { bridge: addr(4) },
            None,
        );
        conn.sending = false;
        let snap = ConnectionSnapshot::from(&conn);
        assert!(snap.bridged);
        assert!(!snap.sending);
        assert_eq!(snap.state, ConnState::Connecting);
        assert_eq!(snap.service, "echo");
    }
}
