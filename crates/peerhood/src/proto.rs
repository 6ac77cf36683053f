//! The PeerHood wire protocol messages.
//!
//! These are the commands exchanged between daemons and libraries in the
//! original implementation (PH_BRIDGE, PH_OK, the inquiry information
//! fetches of Fig. 3.7, data packets and disconnects), extended with the
//! fields the thesis adds for dynamic discovery (neighbour lists with jump
//! counts and qualities) and for result routing (client parameters carried
//! at connection start, §5.3 option 2).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::device::DeviceInfo;
use crate::error::ErrorCode;
use crate::ids::{ConnectionId, DeviceAddress};
use crate::service::ServiceInfo;

/// One entry of a device's storage as exported in an inquiry response: the
/// neighbourhood information fetch of §3.1/Fig. 3.5.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NeighborRecord {
    /// The advertised device.
    pub info: DeviceInfo,
    /// Jump count as seen from the responding device (0 = its direct
    /// neighbour).
    pub jumps: u8,
    /// Per-hop qualities along the responder's route to this device, nearest
    /// hop first.
    pub hop_qualities: Vec<u8>,
    /// Services the device offers. Interned behind an `Arc` slice so the same
    /// list flows from decode through the device storage and back out of
    /// `export_neighbors` without per-record deep clones.
    pub services: Arc<[ServiceInfo]>,
}

/// A protocol message carried as one payload on a simulated link.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Message {
    /// Daemon-level request for device / service / prototype / neighbourhood
    /// information (the four short fetch connections of Fig. 3.7, unified
    /// into one exchange as the thesis suggests in §3.4.1).
    InquiryRequest {
        /// The requesting device's own description.
        requester: DeviceInfo,
    },
    /// Daemon-level response to an [`Message::InquiryRequest`].
    InquiryResponse {
        /// The responding device's description.
        device: DeviceInfo,
        /// Services registered on the responding device.
        services: Vec<ServiceInfo>,
        /// The responder's exported device storage (neighbourhood
        /// information), which the requester feeds to
        /// `AnalyzeNeighbourhoodDevices`.
        neighbors: Vec<NeighborRecord>,
        /// Bridge load as a percentage of the configured maximum relayed
        /// connections; used to de-rate the advertised link quality and avoid
        /// the "bottle neck" situation described in §4.
        bridge_load_percent: u8,
    },
    /// Application connection request to a named service on the receiving
    /// device (the normal `Connect` path of Fig. 2.5).
    ConnectRequest {
        /// End-to-end connection identity allocated by the initiator.
        conn_id: ConnectionId,
        /// Name of the target service.
        service: String,
        /// The connecting client's parameters (address, name, mobility,
        /// checksum). Carried so the server can later re-establish a
        /// connection to the client for result routing (§5.3, option 2).
        client: DeviceInfo,
        /// When set, this connection is the server's reply channel for the
        /// given original connection (result routing): the receiving client
        /// should attach it to the waiting session instead of a service.
        reply_context: Option<ConnectionId>,
    },
    /// PH_BRIDGE: ask the receiving device's bridge service to relay the
    /// connection onwards to `destination` (§4.1/Fig. 4.3).
    BridgeRequest {
        /// End-to-end connection identity allocated by the initiator.
        conn_id: ConnectionId,
        /// Final destination device.
        destination: DeviceAddress,
        /// Name of the target service on the destination.
        service: String,
        /// The original client's parameters, forwarded unchanged.
        client: DeviceInfo,
        /// Reply-channel context, forwarded unchanged (see
        /// [`Message::ConnectRequest::reply_context`]).
        reply_context: Option<ConnectionId>,
    },
    /// PH_OK: end-to-end acknowledgement that the connection (direct or
    /// bridged) reached the destination service.
    Accept {
        /// The acknowledged connection.
        conn_id: ConnectionId,
    },
    /// Protocol-level failure notification, propagated back along the
    /// connection chain.
    Error {
        /// The affected connection.
        conn_id: ConnectionId,
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Application payload on an established connection.
    Data {
        /// The connection the payload belongs to.
        conn_id: ConnectionId,
        /// Raw application bytes.
        payload: Vec<u8>,
    },
    /// Graceful end of a connection; bridges forward it and drop the pair.
    Disconnect {
        /// The connection being closed.
        conn_id: ConnectionId,
    },
}

impl Message {
    /// The connection this message belongs to, if any (inquiry traffic is
    /// daemon-level and carries no connection id).
    pub fn connection_id(&self) -> Option<ConnectionId> {
        match self {
            Message::InquiryRequest { .. } | Message::InquiryResponse { .. } => None,
            Message::ConnectRequest { conn_id, .. }
            | Message::BridgeRequest { conn_id, .. }
            | Message::Accept { conn_id }
            | Message::Error { conn_id, .. }
            | Message::Data { conn_id, .. }
            | Message::Disconnect { conn_id } => Some(*conn_id),
        }
    }

    /// Short command name, mirroring the original protocol constants.
    pub fn command_name(&self) -> &'static str {
        match self {
            Message::InquiryRequest { .. } => "PH_INQUIRY",
            Message::InquiryResponse { .. } => "PH_INQUIRY_RESP",
            Message::ConnectRequest { .. } => "PH_CONNECT",
            Message::BridgeRequest { .. } => "PH_BRIDGE",
            Message::Accept { .. } => "PH_OK",
            Message::Error { .. } => "PH_ERROR",
            Message::Data { .. } => "PH_DATA",
            Message::Disconnect { .. } => "PH_DISCONNECT",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MobilityClass;
    use simnet::{NodeId, RadioTech};

    fn client() -> DeviceInfo {
        DeviceInfo::new(
            NodeId::from_raw(1),
            "client",
            MobilityClass::Dynamic,
            &[RadioTech::Bluetooth],
        )
    }

    #[test]
    fn connection_id_extraction() {
        let conn = ConnectionId::new(DeviceAddress::from_node_raw(1), 5);
        let msgs = vec![
            Message::ConnectRequest {
                conn_id: conn,
                service: "echo".into(),
                client: client(),
                reply_context: None,
            },
            Message::Accept { conn_id: conn },
            Message::Data {
                conn_id: conn,
                payload: vec![1, 2, 3],
            },
            Message::Disconnect { conn_id: conn },
        ];
        for m in &msgs {
            assert_eq!(m.connection_id(), Some(conn));
        }
        let inquiry = Message::InquiryRequest { requester: client() };
        assert_eq!(inquiry.connection_id(), None);
    }

    #[test]
    fn command_names_follow_original_protocol() {
        let conn = ConnectionId::new(DeviceAddress::from_node_raw(1), 0);
        assert_eq!(
            Message::BridgeRequest {
                conn_id: conn,
                destination: DeviceAddress::from_node_raw(9),
                service: "s".into(),
                client: client(),
                reply_context: None,
            }
            .command_name(),
            "PH_BRIDGE"
        );
        assert_eq!(Message::Accept { conn_id: conn }.command_name(), "PH_OK");
        assert_eq!(
            Message::InquiryRequest { requester: client() }.command_name(),
            "PH_INQUIRY"
        );
    }
}
