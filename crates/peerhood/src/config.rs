//! Configuration of a PeerHood node.
//!
//! The defaults follow the values used or implied by the thesis: a Bluetooth
//! inquiry cycle slightly over ten seconds, a longer service-checking
//! interval for already-known devices (§3.5), the 230 link-quality threshold
//! with three tolerated low samples before handover (§5.2.1), and a bridge
//! service that is enabled on every device but capacity-limited to avoid the
//! "bottle neck" situation (§4).

use serde::{Deserialize, Serialize};
use simnet::{RadioTech, SimDuration, QUALITY_LOW_THRESHOLD};

use crate::device::MobilityClass;

/// Which device-discovery algorithm the daemon runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiscoveryMode {
    /// Only devices inside the node's own radio coverage are stored (the
    /// original PeerHood behaviour before neighbourhood fetching).
    DirectOnly,
    /// Direct neighbours plus their direct neighbours (the previous PeerHood
    /// version's neighbourhood-information fetching, §3.1): a two-jump
    /// vision.
    TwoHop,
    /// The thesis' dynamic device discovery: the full storage is propagated
    /// with bridge addresses and jump counts, giving total environment
    /// awareness (§3.3).
    Dynamic,
}

impl DiscoveryMode {
    /// Maximum jump count accepted from a neighbour report (`None` means
    /// unlimited).
    pub fn max_learned_jumps(self) -> Option<u8> {
        match self {
            DiscoveryMode::DirectOnly => Some(0),
            // Accept only the responder's direct neighbours: they end up at
            // one jump from us, a two-hop vision in total.
            DiscoveryMode::TwoHop => Some(1),
            DiscoveryMode::Dynamic => None,
        }
    }
}

impl std::fmt::Display for DiscoveryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DiscoveryMode::DirectOnly => "direct-only",
            DiscoveryMode::TwoHop => "two-hop",
            DiscoveryMode::Dynamic => "dynamic",
        };
        f.write_str(s)
    }
}

/// Device-discovery tuning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscoveryConfig {
    /// Discovery algorithm.
    pub mode: DiscoveryMode,
    /// Pause between consecutive inquiry cycles of one plugin.
    pub inquiry_interval: SimDuration,
    /// How often the full information of an already-known device is
    /// re-fetched (the "service checking interval" of §3.5).
    pub service_check_interval: SimDuration,
    /// Number of consecutive inquiry cycles a direct neighbour may miss
    /// before it is removed from the storage (the "make older" step of
    /// Fig. 3.12).
    pub max_missed_loops: u32,
    /// Indirectly-learned devices are dropped if they have not been
    /// re-reported within this time.
    pub stale_timeout: SimDuration,
    /// Maximum jump count exported in inquiry responses (bounds storage and
    /// transfer size in very large networks).
    pub max_export_jumps: u8,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            mode: DiscoveryMode::Dynamic,
            inquiry_interval: SimDuration::from_secs(12),
            service_check_interval: SimDuration::from_secs(60),
            max_missed_loops: 5,
            stale_timeout: SimDuration::from_secs(180),
            max_export_jumps: 8,
        }
    }
}

/// Connection-quality monitoring tuning (the HandoverThread's state 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// How often the quality of each monitored connection is sampled.
    pub interval: SimDuration,
    /// The "signal low" threshold (the thesis uses 230). How many low
    /// samples are tolerated is
    /// [`LOW_COUNT_LIMIT`](crate::quality::LOW_COUNT_LIMIT).
    pub quality_threshold: u8,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            interval: SimDuration::from_secs(1),
            quality_threshold: QUALITY_LOW_THRESHOLD,
        }
    }
}

/// Handover behaviour (Ch. 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HandoverConfig {
    /// Master switch for the HandoverThread.
    pub enabled: bool,
    /// Maximum routing-handover attempts per connection before giving up and
    /// falling back to service reconnection (§5.2.2).
    pub max_routing_attempts: u32,
    /// What the replacement route aims at: the thesis' implementation
    /// re-routes towards the current link peer (which produces the chain
    /// growth of Fig. 5.6/5.7), the default re-routes towards the final
    /// destination.
    pub target: crate::handover::HandoverTarget,
}

impl Default for HandoverConfig {
    fn default() -> Self {
        HandoverConfig {
            enabled: true,
            max_routing_attempts: 2,
            target: crate::handover::HandoverTarget::FinalDestination,
        }
    }
}

/// Bridge (interconnection) service behaviour (Ch. 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BridgeConfig {
    /// Whether the hidden bridge service runs on this device. The thesis
    /// suggests switching it off on battery-constrained "dynamic" devices.
    pub enabled: bool,
    /// Maximum number of relayed connection pairs accepted simultaneously.
    pub max_connections: usize,
}

impl Default for BridgeConfig {
    fn default() -> Self {
        BridgeConfig {
            enabled: true,
            max_connections: 8,
        }
    }
}

/// Protocol-hardening behaviour (the defences exercised by the
/// `simnet::adversary` hostile-city experiments), priced as three nested
/// tiers — [`off`](SecurityConfig::off), [`sanity`](SecurityConfig::sanity),
/// [`auth`](SecurityConfig::auth) — and **off by default**: the default
/// stack is byte-identical to a build without this module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SecurityConfig {
    /// The sanity tier. Protocol sanity checks: reject connection requests
    /// whose connection id was allocated by a different device, reply
    /// contexts that do not refer back to us, duplicate session Accepts and
    /// frames whose connection id does not match the link they arrive on.
    /// Reporter reputation: neighbour reports from devices that have
    /// produced security rejections (or dead bridge routes) are ignored once
    /// the reporter has accrued
    /// [`REPORTER_PENALTY_LIMIT`](crate::security::REPORTER_PENALTY_LIMIT)
    /// penalties.
    pub sanity_checks: bool,
    /// Keyed frame authentication: every frame carries a 16-byte
    /// seq+MAC trailer; frames failing verification (forged, replayed or
    /// tampered) are dropped before decoding.
    pub frame_auth: bool,
    /// Shared authentication key (a deployment would provision real key
    /// material; the simulation models the cost and the rejection
    /// behaviour, not the cryptography).
    pub auth_key: u64,
}

impl SecurityConfig {
    /// Every defence off (the default; the thesis' stack).
    pub fn off() -> Self {
        SecurityConfig {
            sanity_checks: false,
            frame_auth: false,
            auth_key: 0x5EC0_4EED_0000_0001,
        }
    }

    /// Stateless/stateful protocol checks plus reporter reputation, but no
    /// per-frame authentication cost.
    pub fn sanity() -> Self {
        SecurityConfig {
            sanity_checks: true,
            ..SecurityConfig::off()
        }
    }

    /// All defences on, including the keyed frame-auth trailer.
    pub fn auth() -> Self {
        SecurityConfig {
            frame_auth: true,
            ..SecurityConfig::sanity()
        }
    }
}

impl Default for SecurityConfig {
    fn default() -> Self {
        SecurityConfig::off()
    }
}

/// Full configuration of a PeerHood node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeerHoodConfig {
    /// Human-readable device name.
    pub device_name: String,
    /// Mobility class advertised by the daemon (§3.4.3).
    pub mobility: MobilityClass,
    /// Radio plugins to start, in preference order.
    pub techs: Vec<RadioTech>,
    /// Discovery tuning.
    pub discovery: DiscoveryConfig,
    /// Connection-monitoring tuning.
    pub monitor: MonitorConfig,
    /// Handover behaviour.
    pub handover: HandoverConfig,
    /// Bridge service behaviour.
    pub bridge: BridgeConfig,
    /// Resilience pipeline (circuit breakers, backpressure, admission
    /// control); one switch, off by default.
    pub resilience: crate::resilience::ResilienceConfig,
    /// Protocol hardening (sanity checks, reporter reputation, frame
    /// authentication); every defence disabled by default.
    pub security: SecurityConfig,
}

impl PeerHoodConfig {
    /// A configuration with all defaults for the given name and mobility
    /// class, using Bluetooth only (the thesis' implementation choice).
    pub fn new(device_name: impl Into<String>, mobility: MobilityClass) -> Self {
        PeerHoodConfig {
            device_name: device_name.into(),
            mobility,
            techs: vec![RadioTech::Bluetooth],
            discovery: DiscoveryConfig::default(),
            monitor: MonitorConfig::default(),
            handover: HandoverConfig::default(),
            bridge: BridgeConfig::default(),
            resilience: crate::resilience::ResilienceConfig::default(),
            security: SecurityConfig::default(),
        }
    }

    /// Typical configuration for a mains-powered fixed terminal.
    pub fn static_device(device_name: impl Into<String>) -> Self {
        PeerHoodConfig::new(device_name, MobilityClass::Static)
    }

    /// Typical configuration for a battery-powered mobile terminal.
    pub fn mobile_device(device_name: impl Into<String>) -> Self {
        let mut cfg = PeerHoodConfig::new(device_name, MobilityClass::Dynamic);
        // The thesis discusses disabling the bridge service on dynamic
        // devices; the default keeps it on but a scenario can flip it.
        cfg.bridge.max_connections = 4;
        cfg
    }

    /// Replaces the discovery mode (builder-style).
    pub fn with_discovery_mode(mut self, mode: DiscoveryMode) -> Self {
        self.discovery.mode = mode;
        self
    }

    /// Replaces the plugin list (builder-style).
    pub fn with_techs(mut self, techs: &[RadioTech]) -> Self {
        self.techs = techs.to_vec();
        self
    }
}

impl Default for PeerHoodConfig {
    fn default() -> Self {
        PeerHoodConfig::new("peerhood-device", MobilityClass::Dynamic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_thesis() {
        let cfg = PeerHoodConfig::default();
        assert_eq!(cfg.monitor.quality_threshold, 230);
        assert_eq!(crate::quality::LOW_COUNT_LIMIT, 3);
        assert_eq!(cfg.discovery.mode, DiscoveryMode::Dynamic);
        assert_eq!(cfg.techs, vec![RadioTech::Bluetooth]);
        assert!(cfg.bridge.enabled);
        assert!(cfg.handover.enabled);
    }

    #[test]
    fn discovery_mode_jump_limits() {
        assert_eq!(DiscoveryMode::DirectOnly.max_learned_jumps(), Some(0));
        assert_eq!(DiscoveryMode::TwoHop.max_learned_jumps(), Some(1));
        assert_eq!(DiscoveryMode::Dynamic.max_learned_jumps(), None);
    }

    #[test]
    fn builders_modify_the_right_fields() {
        let cfg = PeerHoodConfig::static_device("pc")
            .with_discovery_mode(DiscoveryMode::TwoHop)
            .with_techs(&[RadioTech::Bluetooth, RadioTech::Gprs]);
        assert_eq!(cfg.mobility, MobilityClass::Static);
        assert_eq!(cfg.discovery.mode, DiscoveryMode::TwoHop);
        assert_eq!(cfg.techs.len(), 2);
    }

    #[test]
    fn mobile_profile_limits_bridge_capacity() {
        let mobile = PeerHoodConfig::mobile_device("phone");
        let fixed = PeerHoodConfig::static_device("pc");
        assert!(mobile.bridge.max_connections < fixed.bridge.max_connections);
        assert_eq!(mobile.mobility, MobilityClass::Dynamic);
    }

    #[test]
    fn security_tiers_nest() {
        let off = SecurityConfig::off();
        assert!(
            !off.sanity_checks && !off.frame_auth,
            "the default stack runs no defence"
        );
        assert_eq!(SecurityConfig::default(), off);
        let sanity = SecurityConfig::sanity();
        assert!(sanity.sanity_checks && !sanity.frame_auth);
        let auth = SecurityConfig::auth();
        assert!(auth.sanity_checks && auth.frame_auth);
    }

    #[test]
    fn display_of_modes() {
        assert_eq!(DiscoveryMode::Dynamic.to_string(), "dynamic");
        assert_eq!(DiscoveryMode::DirectOnly.to_string(), "direct-only");
        assert_eq!(DiscoveryMode::TwoHop.to_string(), "two-hop");
    }
}
