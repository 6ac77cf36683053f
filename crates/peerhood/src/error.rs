//! Error types of the PeerHood middleware.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::{ConnectionId, DeviceAddress};

/// Errors surfaced by the PeerHood library API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerHoodError {
    /// The requested device is not present in the device storage.
    UnknownDevice(DeviceAddress),
    /// No device in the storage offers the requested service.
    ServiceNotFound(String),
    /// The referenced connection does not exist (or has been closed).
    UnknownConnection(ConnectionId),
    /// The connection exists but is not in a state that allows the operation
    /// (for example writing before the end-to-end acknowledgement arrived).
    InvalidConnectionState(ConnectionId),
    /// A service with the same name is already registered locally.
    ServiceAlreadyRegistered(String),
    /// The bridge service refused the connection because it reached its
    /// configured maximum number of relayed connections.
    BridgeBusy,
    /// The remote end answered with a protocol error.
    Remote(String),
    /// The resilience pipeline shed the operation: the per-app rate limit or
    /// a queue cap refused to take more work for this connection.
    Overloaded(ConnectionId),
    /// The per-peer circuit breaker towards the first physical hop is open;
    /// the dial was refused locally without touching the radio.
    CircuitOpen(DeviceAddress),
}

impl fmt::Display for PeerHoodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeerHoodError::UnknownDevice(addr) => write!(f, "unknown device {addr}"),
            PeerHoodError::ServiceNotFound(name) => write!(f, "service not found: {name}"),
            PeerHoodError::UnknownConnection(id) => write!(f, "unknown connection {id}"),
            PeerHoodError::InvalidConnectionState(id) => {
                write!(f, "connection {id} is not in a valid state for this operation")
            }
            PeerHoodError::ServiceAlreadyRegistered(name) => {
                write!(f, "service already registered: {name}")
            }
            PeerHoodError::BridgeBusy => write!(f, "bridge connection limit reached"),
            PeerHoodError::Remote(reason) => write!(f, "remote error: {reason}"),
            PeerHoodError::Overloaded(id) => {
                write!(f, "connection {id} shed by the resilience pipeline")
            }
            PeerHoodError::CircuitOpen(addr) => {
                write!(f, "circuit breaker open towards {addr}")
            }
        }
    }
}

impl std::error::Error for PeerHoodError {}

/// Protocol-level error codes carried in [`crate::proto::Message::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The requested service is not registered on the target device.
    ServiceUnavailable,
    /// The bridge could not find a route to the requested destination.
    NoRouteToDestination,
    /// The bridge has reached its connection limit ("bottle neck", §4).
    BridgeBusy,
    /// A downstream leg of a bridged connection failed.
    DownstreamFailed,
    /// The peer does not recognise the referenced connection.
    UnknownConnection,
    /// Catch-all protocol violation.
    Protocol,
}

impl ErrorCode {
    /// Stable numeric encoding used on the wire.
    pub fn code(self) -> u8 {
        match self {
            ErrorCode::ServiceUnavailable => 1,
            ErrorCode::NoRouteToDestination => 2,
            ErrorCode::BridgeBusy => 3,
            ErrorCode::DownstreamFailed => 4,
            ErrorCode::UnknownConnection => 5,
            ErrorCode::Protocol => 6,
        }
    }

    /// Decodes a wire value back into an error code.
    pub fn from_code(code: u8) -> Option<ErrorCode> {
        Some(match code {
            1 => ErrorCode::ServiceUnavailable,
            2 => ErrorCode::NoRouteToDestination,
            3 => ErrorCode::BridgeBusy,
            4 => ErrorCode::DownstreamFailed,
            5 => ErrorCode::UnknownConnection,
            6 => ErrorCode::Protocol,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::ServiceUnavailable => "service unavailable",
            ErrorCode::NoRouteToDestination => "no route to destination",
            ErrorCode::BridgeBusy => "bridge busy",
            ErrorCode::DownstreamFailed => "downstream connection failed",
            ErrorCode::UnknownConnection => "unknown connection",
            ErrorCode::Protocol => "protocol error",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::ServiceUnavailable,
            ErrorCode::NoRouteToDestination,
            ErrorCode::BridgeBusy,
            ErrorCode::DownstreamFailed,
            ErrorCode::UnknownConnection,
            ErrorCode::Protocol,
        ] {
            assert_eq!(ErrorCode::from_code(code.code()), Some(code));
        }
        assert_eq!(ErrorCode::from_code(0), None);
        assert_eq!(ErrorCode::from_code(200), None);
    }

    #[test]
    fn errors_display() {
        let addr = DeviceAddress::from_node_raw(3);
        assert!(PeerHoodError::UnknownDevice(addr)
            .to_string()
            .contains("unknown device"));
        assert!(PeerHoodError::ServiceNotFound("x".into()).to_string().contains('x'));
        assert!(ErrorCode::BridgeBusy.to_string().contains("busy"));
    }
}
