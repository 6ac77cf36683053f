//! The engine: classification of radio links by their current role.
//!
//! The original `Engine` is the singleton that listens for incoming
//! connections on every technology, identifies their intention from the
//! first command (new connection, bridge connection or re-establishment) and
//! notifies the right component via callbacks (§4.1). In the reproduction it
//! keeps the mapping from live radio links to the middleware entity using
//! them, so that incoming payloads and disconnect notifications can be routed
//! to the daemon, the connection table or the bridge service.

use simnet::table::IdTable;
use simnet::{LinkId, RadioTech};

use crate::ids::{ConnectionId, DeviceAddress};

/// What a radio link is currently used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkRole {
    /// An accepted incoming link whose first command has not arrived yet.
    IncomingUnidentified,
    /// A short daemon connection we opened to fetch device information.
    DaemonFetch {
        /// The device being interrogated.
        peer: DeviceAddress,
        /// The radio the inquiry that found the device ran on (the plugin
        /// whose fetch accounting this link belongs to).
        tech: RadioTech,
        /// Quality sampled during the inquiry that found the device.
        quality: u8,
    },
    /// A short daemon connection we are serving (we answered an inquiry).
    DaemonServe,
    /// The link carries an application connection (ours or a peer's).
    AppConnection(ConnectionId),
    /// The link is a replacement route being established by the handover
    /// machinery for the given connection; it becomes `AppConnection` once
    /// the end-to-end acknowledgement arrives.
    HandoverPending {
        /// The connection being re-routed.
        conn: ConnectionId,
        /// The device this replacement link physically connects to — the
        /// bridge the new route goes through, or the destination itself for
        /// a direct re-route. Recorded here (not recovered from the
        /// handover monitor) so the connection's `ConnKind` reflects the
        /// route actually built even when the monitor's candidate has been
        /// refreshed while the switch was in flight.
        via: DeviceAddress,
    },
    /// Upstream leg (towards the requester) of a relayed bridge pair.
    BridgeUpstream(ConnectionId),
    /// Downstream leg (towards the destination) of a relayed bridge pair.
    BridgeDownstream(ConnectionId),
}

impl LinkRole {
    /// The connection this role is tied to, if any.
    pub fn connection(&self) -> Option<ConnectionId> {
        match self {
            LinkRole::AppConnection(c) | LinkRole::BridgeUpstream(c) | LinkRole::BridgeDownstream(c) => Some(*c),
            LinkRole::HandoverPending { conn, .. } => Some(*conn),
            _ => None,
        }
    }
}

/// The link-role registry.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    roles: IdTable<LinkId, LinkRole>,
}

impl Engine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Records or replaces the role of a link.
    pub fn set_role(&mut self, link: LinkId, role: LinkRole) {
        self.roles.insert(link, role);
    }

    /// The current role of a link.
    pub fn role(&self, link: LinkId) -> Option<LinkRole> {
        self.roles.get(&link).copied()
    }

    /// Forgets a link.
    pub fn remove(&mut self, link: LinkId) -> Option<LinkRole> {
        self.roles.remove(&link)
    }

    /// Number of tracked links.
    pub fn len(&self) -> usize {
        self.roles.len()
    }

    /// True if no link is tracked.
    pub fn is_empty(&self) -> bool {
        self.roles.is_empty()
    }

    /// Number of accepted incoming links whose first command has not arrived
    /// yet. Counted by the admission layer towards the concurrent-session
    /// cap, so a flood of half-open connections cannot sneak past it.
    pub fn incoming_unidentified(&self) -> usize {
        self.roles
            .values()
            .filter(|role| matches!(role, LinkRole::IncomingUnidentified))
            .count()
    }

    /// All links currently serving the given connection (at most one app
    /// link plus possibly one pending handover link).
    pub fn links_for_connection(&self, conn: ConnectionId) -> Vec<LinkId> {
        self.roles
            .iter()
            .filter(|(_, role)| role.connection() == Some(conn))
            .map(|(link, _)| link)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn(c: u32) -> ConnectionId {
        ConnectionId::new(DeviceAddress::from_node_raw(1), c)
    }

    #[test]
    fn set_get_remove() {
        let mut e = Engine::new();
        assert!(e.is_empty());
        e.set_role(LinkId(1), LinkRole::IncomingUnidentified);
        e.set_role(LinkId(2), LinkRole::AppConnection(conn(0)));
        assert_eq!(e.len(), 2);
        assert_eq!(e.role(LinkId(1)), Some(LinkRole::IncomingUnidentified));
        assert_eq!(e.role(LinkId(3)), None);
        // Identification replaces the role in place.
        e.set_role(LinkId(1), LinkRole::BridgeUpstream(conn(5)));
        assert_eq!(e.role(LinkId(1)), Some(LinkRole::BridgeUpstream(conn(5))));
        assert_eq!(e.remove(LinkId(1)), Some(LinkRole::BridgeUpstream(conn(5))));
        assert_eq!(e.remove(LinkId(1)), None);
    }

    #[test]
    fn connection_extraction() {
        assert_eq!(LinkRole::AppConnection(conn(1)).connection(), Some(conn(1)));
        assert_eq!(
            LinkRole::HandoverPending {
                conn: conn(2),
                via: DeviceAddress::from_node_raw(7)
            }
            .connection(),
            Some(conn(2))
        );
        assert_eq!(LinkRole::BridgeDownstream(conn(3)).connection(), Some(conn(3)));
        assert_eq!(LinkRole::IncomingUnidentified.connection(), None);
        assert_eq!(
            LinkRole::DaemonFetch {
                peer: DeviceAddress::from_node_raw(4),
                tech: RadioTech::Bluetooth,
                quality: 200
            }
            .connection(),
            None
        );
        assert_eq!(LinkRole::DaemonServe.connection(), None);
    }

    #[test]
    fn links_for_connection_finds_both_current_and_pending() {
        let mut e = Engine::new();
        e.set_role(LinkId(1), LinkRole::AppConnection(conn(7)));
        e.set_role(
            LinkId(2),
            LinkRole::HandoverPending {
                conn: conn(7),
                via: DeviceAddress::from_node_raw(9),
            },
        );
        e.set_role(LinkId(3), LinkRole::AppConnection(conn(8)));
        let mut links = e.links_for_connection(conn(7));
        links.sort();
        assert_eq!(links, vec![LinkId(1), LinkId(2)]);
        assert!(e.links_for_connection(conn(99)).is_empty());
    }
}
