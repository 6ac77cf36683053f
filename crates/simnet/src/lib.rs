//! # simnet — deterministic wireless-world substrate
//!
//! The PeerHood thesis ("Addressing mobility issues in mobile environment",
//! 2008) evaluates its middleware on real Bluetooth hardware carried between
//! offices. This crate replaces that testbed with a **deterministic
//! discrete-event simulator** so that the middleware, the handover logic and
//! every experiment in the thesis can be reproduced on a laptop from a seed.
//!
//! The simulator models:
//!
//! * **virtual time** ([`time`]) and a deterministic event loop ([`world`]),
//!   whose hot paths run against a uniform spatial grid index keyed by
//!   mobility-aware cell residency so worlds scale to thousands of nodes,
//! * **radio technologies** ([`radio`]) — Bluetooth, WLAN and GPRS profiles
//!   with coverage range, bit-rate, inquiry behaviour (including the
//!   Bluetooth inquiry asymmetry of §3.4.2), connection-setup latency and
//!   fault probability calibrated to the thesis' measurements, and a 0–255
//!   link-quality model with the 230 "signal low" threshold,
//! * **mobility** ([`mobility`]) — stationary devices, straight-line and
//!   waypoint walks, and random-waypoint roaming,
//! * **links and transmissions** ([`link`], [`world`]) — multi-second
//!   connection setup, in-flight messages that are lost when coverage breaks,
//!   periodic link checks and the artificial quality-decay mode the thesis
//!   uses in its own handover simulation (§5.2.1),
//! * **faults and churn** ([`faults`]) — seeded per-node schedules of node
//!   crashes & restarts, per-technology radio outages and flapping link
//!   pairs, with a typed lifecycle-event stream; a world
//!   with no fault plans installed behaves byte-identically to one built
//!   without the subsystem,
//! * **adversaries** ([`adversary`]) — seeded network-partition windows
//!   (split-brain cuts that break links, suppress discovery and lose
//!   in-flight frames across the cut) and Byzantine compromised nodes that
//!   tamper with, sniff and inject syntactically valid hostile frames via a
//!   pluggable [`adversary::FrameForge`]; all adversarial randomness lives
//!   on its own labelled RNG stream, so adversary-free worlds are
//!   byte-identical to a build without the module.
//!
//! Behaviour is written once as an [`agent::Agent`] over the [`agent::Ctx`]
//! calls and runs on both engines: directly on a [`ShardedWorld`], wrapped in
//! [`OnWorld`] on a [`World`]. The `peerhood` crate's full middleware stack
//! is such an agent too; it acts through a `&mut dyn Ctx`.
//!
//! ## Example
//!
//! ```
//! use simnet::agent::Agent; // not in the prelude: see the `agent` module docs
//! use simnet::prelude::*;
//!
//! // A trivial agent that scans for neighbours once at start-up.
//! #[derive(Default)]
//! struct Scanner {
//!     found: usize,
//! }
//!
//! impl Agent for Scanner {
//!     fn on_start<C: Ctx>(&mut self, ctx: &mut C) {
//!         ctx.start_inquiry(RadioTech::Bluetooth);
//!     }
//!     fn on_inquiry_complete<C: Ctx>(&mut self, _ctx: &mut C, _tech: RadioTech, hits: Vec<InquiryHit>) {
//!         self.found = hits.len();
//!     }
//! }
//!
//! let at = |x| MobilityModel::stationary(Point::new(x, 0.0));
//! let bluetooth = [RadioTech::Bluetooth];
//!
//! // The sequential engine takes the agent wrapped in `OnWorld`...
//! let mut world = World::new(WorldConfig::ideal(7));
//! let scanner = world.add_node("scanner", at(0.0), &bluetooth, Box::new(OnWorld(Scanner::default())));
//! world.add_node("peer", at(3.0), &bluetooth, Box::new(OnWorld(Scanner::default())));
//! world.run_for(SimDuration::from_secs(30));
//! assert_eq!(world.with_agent::<Scanner, _>(scanner, |s, _| s.found), Some(1));
//!
//! // ...the sharded engine takes it as it is.
//! let mut config = ShardedConfig::new(7, Rect::square(10.0));
//! config.radio = RadioEnvironment::ideal();
//! let mut sharded = ShardedWorld::new(config);
//! let scanner = sharded.add_node("scanner", at(0.0), &bluetooth, Box::new(Scanner::default()));
//! sharded.add_node("peer", at(3.0), &bluetooth, Box::new(Scanner::default()));
//! sharded.run_for(SimDuration::from_secs(30));
//! assert_eq!(sharded.with_agent::<Scanner, _>(scanner, |s| s.found), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod agent;
pub mod event;
pub mod faults;
pub mod geometry;
mod hash;
pub mod json;
pub mod link;
pub mod metrics;
pub mod mobility;
pub mod node;
pub mod payload;
pub mod radio;
pub mod rng;
pub mod table;
pub mod telemetry;
pub mod time;
pub mod world;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::adversary::{AdversaryPlan, AdversaryStats, CompromisedNode, FrameForge, PartitionWindow};
    // `Agent` is deliberately absent: see the `agent` module docs.
    pub use crate::agent::{Ctx, OnWorld};
    pub use crate::faults::{FaultAction, FaultPlan, FaultStats, FlappingLink, LifecycleEvent, LifecycleKind};
    pub use crate::geometry::{Point, Rect};
    pub use crate::link::LinkInfo;
    pub use crate::metrics::{Counters, Metrics};
    pub use crate::mobility::{MobilityModel, MotionPlan};
    pub use crate::node::{
        AttemptId, ConnectError, DisconnectReason, IncomingConnection, InquiryHit, LinkId, NodeAgent, NodeId,
        TimerToken,
    };
    pub use crate::payload::{Payload, SharedPayload};
    pub use crate::radio::{RadioEnvironment, RadioProfile, RadioTech, QUALITY_LOW_THRESHOLD, QUALITY_MAX};
    pub use crate::rng::SimRng;
    pub use crate::telemetry::{Frame, FrameSink, Phase, Profiler, Telemetry, TelemetryConfig};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::world::partition::PartitionStats;
    pub use crate::world::shard::{ShardAgent, ShardCtx, ShardedConfig, ShardedWorld};
    pub use crate::world::{NodeCtx, SendError, World, WorldConfig};
}

pub use prelude::*;
