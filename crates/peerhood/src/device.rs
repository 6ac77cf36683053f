//! Device descriptions and the static/hybrid/dynamic mobility classes.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use simnet::{NodeId, RadioTech};

use crate::ids::{Checksum, DeviceAddress};

/// The mobility classification of §3.4.3.
///
/// Static terminals (mains-powered PCs) are preferred as bridge nodes; hybrid
/// devices are low-mobility or resource-conscious devices; dynamic devices
/// are battery-powered phones whose links can break at any moment. The
/// numeric values `{0, 1, 3}` are exactly the comparison values the thesis
/// configures in the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MobilityClass {
    /// Fixed, mains-powered device (value 0).
    Static,
    /// Low-mobility or resource-limiting device (value 1).
    Hybrid,
    /// Fully mobile battery-powered device (value 3).
    Dynamic,
}

impl MobilityClass {
    /// The comparison value used during route selection ({static, hybrid,
    /// dynamic} = {0, 1, 3}).
    pub fn value(self) -> u8 {
        match self {
            MobilityClass::Static => 0,
            MobilityClass::Hybrid => 1,
            MobilityClass::Dynamic => 3,
        }
    }

    /// Decodes a wire value back into a class.
    pub fn from_value(value: u8) -> Option<MobilityClass> {
        Some(match value {
            0 => MobilityClass::Static,
            1 => MobilityClass::Hybrid,
            3 => MobilityClass::Dynamic,
            _ => return None,
        })
    }
}

impl fmt::Display for MobilityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MobilityClass::Static => "static",
            MobilityClass::Hybrid => "hybrid",
            MobilityClass::Dynamic => "dynamic",
        };
        f.write_str(s)
    }
}

/// Everything a PeerHood device advertises about itself during discovery:
/// address, human-readable name, mobility class, checksum (daemon pid) and
/// the radio technologies it supports.
///
/// The name and technology list are interned behind `Arc`s: a device
/// description is cloned on every protocol hop (connect requests, neighbour
/// exports, storage upserts), and at metropolis scale those clones must be
/// reference-count bumps, not string copies. The count is atomic so a whole
/// stack is `Send` and may run on the sharded engine's worker threads. Both equality and the wire
/// encoding compare/serialise the *contents*, so the sharing is invisible.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceInfo {
    /// Unique device address.
    pub address: DeviceAddress,
    /// Human-readable device name.
    pub name: Arc<str>,
    /// Mobility classification configured in the daemon.
    pub mobility: MobilityClass,
    /// Daemon process-id checksum.
    pub checksum: Checksum,
    /// Radio technologies the device's plugins cover.
    pub techs: Arc<[RadioTech]>,
}

impl DeviceInfo {
    /// Builds a device description for the device whose radio is `node`.
    pub fn new(node: NodeId, name: impl Into<String>, mobility: MobilityClass, techs: &[RadioTech]) -> Self {
        DeviceInfo {
            address: DeviceAddress::from_node(node),
            name: name.into().into(),
            mobility,
            checksum: Checksum(1000 + node.as_raw() as u32),
            techs: techs.into(),
        }
    }

    /// The simulator node that owns this device.
    pub fn node_id(&self) -> NodeId {
        self.address.node_id()
    }

    /// True if the device has a plugin for the given technology.
    pub fn supports(&self, tech: RadioTech) -> bool {
        self.techs.contains(&tech)
    }
}

impl fmt::Display for DeviceInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] ({})", self.name, self.address, self.mobility)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mobility_values_match_the_paper() {
        assert_eq!(MobilityClass::Static.value(), 0);
        assert_eq!(MobilityClass::Hybrid.value(), 1);
        assert_eq!(MobilityClass::Dynamic.value(), 3);
    }

    #[test]
    fn mobility_roundtrip_and_ordering() {
        for class in [MobilityClass::Static, MobilityClass::Hybrid, MobilityClass::Dynamic] {
            assert_eq!(MobilityClass::from_value(class.value()), Some(class));
        }
        assert_eq!(MobilityClass::from_value(2), None);
        assert!(MobilityClass::Static < MobilityClass::Hybrid);
        assert!(MobilityClass::Hybrid < MobilityClass::Dynamic);
    }

    #[test]
    fn device_info_basics() {
        let info = DeviceInfo::new(
            NodeId::from_raw(3),
            "laptop",
            MobilityClass::Hybrid,
            &[RadioTech::Bluetooth, RadioTech::Wlan],
        );
        assert_eq!(info.node_id(), NodeId::from_raw(3));
        assert!(info.supports(RadioTech::Bluetooth));
        assert!(!info.supports(RadioTech::Gprs));
        assert!(info.to_string().contains("laptop"));
        assert_eq!(info.checksum, Checksum(1003));
    }
}
