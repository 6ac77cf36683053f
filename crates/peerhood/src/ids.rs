//! Identifiers used by the PeerHood middleware.
//!
//! The thesis identifies devices by the MAC address of their network
//! interface (plus a checksum equal to the daemon's process id, §2.3),
//! services by `(name, attribute, port)` and live connections by a
//! connection id that is also used to substitute connections during roaming
//! and handover.
//!
//! In the simulated substrate a [`DeviceAddress`] deterministically embeds
//! the underlying simulator [`NodeId`], which plays the role
//! of "the radio that owns this MAC": converting between the two is a pure
//! function, exactly as resolving a Bluetooth address resolves to a physical
//! radio.

use std::fmt;

use serde::{Deserialize, Serialize};
use simnet::NodeId;

/// A 48-bit device address (MAC-style), the unique identity of a PeerHood
/// device.
///
/// ```
/// use peerhood::ids::DeviceAddress;
/// use simnet::NodeId;
///
/// let addr = DeviceAddress::from_node(NodeId::from_raw(7));
/// assert_eq!(addr.node_id(), NodeId::from_raw(7));
/// assert_eq!(addr.to_string(), "02:50:00:00:00:07");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DeviceAddress([u8; 6]);

impl DeviceAddress {
    /// PeerHood's locally administered OUI prefix used for simulated radios.
    const PREFIX: [u8; 2] = [0x02, 0x50];

    /// Builds the address of the device whose radio is the given simulator
    /// node.
    pub fn from_node(node: NodeId) -> Self {
        Self::from_node_raw(node.as_raw())
    }

    /// Builds an address from a raw node number.
    pub fn from_node_raw(raw: u64) -> Self {
        let b = (raw as u32).to_be_bytes();
        DeviceAddress([Self::PREFIX[0], Self::PREFIX[1], b[0], b[1], b[2], b[3]])
    }

    /// The simulator node that owns this address.
    pub fn node_id(self) -> NodeId {
        let raw = u32::from_be_bytes([self.0[2], self.0[3], self.0[4], self.0[5]]);
        NodeId::from_raw(raw as u64)
    }

    /// The raw six bytes of the address.
    pub fn octets(self) -> [u8; 6] {
        self.0
    }

    /// Rebuilds an address from its six bytes.
    pub fn from_octets(octets: [u8; 6]) -> Self {
        DeviceAddress(octets)
    }
}

impl fmt::Display for DeviceAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// The checksum parameter a PeerHood device advertises. The thesis sets it to
/// the daemon's process id and notes it is "currently not used" beyond
/// identification; it is carried for protocol fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Checksum(pub u32);

impl fmt::Display for Checksum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// The port a registered service listens on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct ServicePort(pub u16);

impl fmt::Display for ServicePort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ":{}", self.0)
    }
}

/// Identity of an application-level PeerHood connection.
///
/// The initiating device allocates the id; it is carried end-to-end in every
/// protocol message so that bridges can pair their two legs and so that a
/// substituted (handed-over or re-established) connection can be recognised
/// as the same logical session (§2.3 "Connection ID is used to identify the
/// connection to substitute").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ConnectionId(u64);

impl ConnectionId {
    /// Builds a globally unique connection id from the initiator's address
    /// and a locally increasing counter.
    pub fn new(initiator: DeviceAddress, counter: u32) -> Self {
        let node = initiator.node_id().as_raw();
        ConnectionId((node << 32) | counter as u64)
    }

    /// The raw 64-bit value (used on the wire).
    pub fn as_raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a connection id from its raw wire value.
    pub fn from_raw(raw: u64) -> Self {
        ConnectionId(raw)
    }

    /// The device that allocated this connection id.
    pub fn initiator(self) -> DeviceAddress {
        DeviceAddress::from_node_raw(self.0 >> 32)
    }
}

impl fmt::Display for ConnectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn{:x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_roundtrips_node_id() {
        for raw in [0u64, 1, 42, 65_535, 1_000_000] {
            let addr = DeviceAddress::from_node_raw(raw);
            assert_eq!(addr.node_id().as_raw(), raw);
            assert_eq!(DeviceAddress::from_octets(addr.octets()), addr);
        }
    }

    #[test]
    fn address_display_looks_like_mac() {
        let addr = DeviceAddress::from_node_raw(0x0102_0304);
        assert_eq!(addr.to_string(), "02:50:01:02:03:04");
    }

    #[test]
    fn addresses_are_unique_per_node() {
        let a = DeviceAddress::from_node_raw(1);
        let b = DeviceAddress::from_node_raw(2);
        assert_ne!(a, b);
    }

    #[test]
    fn connection_id_embeds_initiator_and_counter() {
        let addr = DeviceAddress::from_node_raw(9);
        let c1 = ConnectionId::new(addr, 0);
        let c2 = ConnectionId::new(addr, 1);
        assert_ne!(c1, c2);
        assert_eq!(c1.initiator(), addr);
        assert_eq!(c2.initiator(), addr);
        assert_eq!(ConnectionId::from_raw(c1.as_raw()), c1);
    }

    #[test]
    fn connection_ids_from_different_devices_never_collide() {
        let a = ConnectionId::new(DeviceAddress::from_node_raw(1), 7);
        let b = ConnectionId::new(DeviceAddress::from_node_raw(2), 7);
        assert_ne!(a, b);
    }

    #[test]
    fn displays() {
        assert_eq!(Checksum(12).to_string(), "pid12");
        assert_eq!(ServicePort(8080).to_string(), ":8080");
        let c = ConnectionId::new(DeviceAddress::from_node_raw(1), 2);
        assert!(c.to_string().starts_with("conn"));
    }
}
