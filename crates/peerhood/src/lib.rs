//! # peerhood — mobile peer-to-peer middleware
//!
//! A Rust reproduction of the PeerHood middleware as extended by the thesis
//! *"Addressing mobility issues in mobile environment"* (2008): an
//! unstructured peer-to-peer neighbourhood for mixed fixed/mobile devices
//! with
//!
//! * **dynamic device discovery** (Ch. 3) — the per-device storage becomes an
//!   ad-hoc routing table (bridge + jump count) propagated hop by hop, giving
//!   every node total environment awareness at the cost of one
//!   request/response per neighbour per cycle,
//! * **interconnection** (Ch. 4) — a hidden bridge service on every node
//!   relays connections between devices that are not in direct radio range,
//! * **task-migration support under mobility** (Ch. 5) — per-connection
//!   quality monitoring, routing handover, service reconnection and result
//!   routing.
//!
//! The middleware runs on top of the [`simnet`] substrate: a
//! [`node::PeerHoodNode`] is a [`simnet::agent::Agent`], acting through a
//! `&mut dyn` [`simnet::Ctx`], and hosts any
//! number of [`application::Application`]s — one middleware stack shared by
//! several programs on the same device, exactly as the thesis describes.
//! Nodes are assembled with the fluent builder (configuration →
//! applications) and callbacks are routed per application through the typed
//! [`node::PeerHoodEvent`] dispatch layer.
//!
//! The thesis' daemon — [`storage::DeviceStorage`], [`service::ServiceRegistry`]
//! and one [`plugin::PluginState`] per radio (Fig. 2.3) — and its engine,
//! which classifies every radio link by its role (§4.1), are not separate
//! components here: they are state the node holds, and the [`node`]
//! module's protocol code works on it directly.
//!
//! ## Quick start
//!
//! ```
//! use peerhood::prelude::*;
//! use simnet::prelude::*;
//!
//! // Two devices four metres apart: a mobile client and a fixed server.
//! // Each node is built with the fluent builder; `IdleApplication` stands
//! // in for real applications here (see the `migration` crate for real
//! // workloads, and add several `.app(...)` calls to host more than one).
//! let mut world = World::new(WorldConfig::ideal(7));
//! let client = world.add_node(
//!     "client",
//!     MobilityModel::stationary(Point::new(0.0, 0.0)),
//!     &[RadioTech::Bluetooth],
//!     Box::new(OnWorld(
//!         PeerHoodNode::builder()
//!             .config(PeerHoodConfig::mobile_device("client"))
//!             .app(IdleApplication)
//!             .build(),
//!     )),
//! );
//! world.add_node(
//!     "server",
//!     MobilityModel::stationary(Point::new(4.0, 0.0)),
//!     &[RadioTech::Bluetooth],
//!     // A pure relay: middleware only, no applications.
//!     Box::new(OnWorld(PeerHoodNode::relay(PeerHoodConfig::static_device("server")))),
//! );
//! // Run a minute of simulated time: the daemons discover each other.
//! // `OnWorld` answers `with_agent` for the node it wraps.
//! world.run_for(SimDuration::from_secs(60));
//! let known = world
//!     .with_agent::<PeerHoodNode, _>(client, |node, _| node.storage_stats().known_devices)
//!     .unwrap();
//! assert_eq!(known, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod application;
pub mod bridge;
pub mod config;
pub mod connection;
pub mod device;
pub mod error;
pub mod gnutella;
pub mod handover;
pub mod hostile;
pub mod ids;
pub mod node;
pub mod plugin;
pub mod proto;
pub mod quality;
pub mod resilience;
pub mod route;
pub mod security;
pub mod service;
pub mod session;
pub mod storage;
pub mod wire;

/// Re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::application::{Application, IdleApplication};
    pub use crate::config::{DiscoveryMode, PeerHoodConfig, SecurityConfig};
    pub use crate::connection::{AppConnection, ConnState};
    pub use crate::device::{DeviceInfo, MobilityClass};
    pub use crate::error::PeerHoodError;
    pub use crate::handover::HandoverTarget;
    pub use crate::hostile::{ProtocolForge, HOSTILE_BASE};
    pub use crate::ids::{ConnectionId, DeviceAddress};
    pub use crate::node::{AppId, PeerHoodApi, PeerHoodEvent, PeerHoodNode, PeerHoodNodeBuilder};
    pub use crate::resilience::{BreakerState, ResilienceConfig, ResilienceStats};
    pub use crate::security::{SecurityStats, AUTH_TRAILER_LEN};
    pub use crate::service::ServiceInfo;
    pub use crate::storage::{StorageStats, StoredDevice};
}

pub use prelude::*;
