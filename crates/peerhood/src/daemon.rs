//! The PeerHood daemon: device storage, service registry and discovery
//! plugins (Fig. 2.3).
//!
//! The daemon is the always-running process that searches for remote devices
//! and their services, stores what it learns, and answers other devices'
//! inquiries with its own information plus its exported neighbourhood
//! (Fig. 3.5). The library accesses it for device and service lists. In the
//! reproduction the daemon is a plain struct owned by the node; the inquiry
//! and advertisement "threads" are timer-driven radio operations performed by
//! the node glue, which calls into the methods here for all protocol
//! decisions.

use simnet::{RadioTech, SimTime};

use crate::config::PeerHoodConfig;
use crate::device::DeviceInfo;
use crate::error::PeerHoodError;
use crate::ids::DeviceAddress;
use crate::plugin::PluginSet;
use crate::proto::{Message, NeighborRecord};
use crate::service::{ServiceInfo, ServiceRegistry};
use crate::storage::{DeviceStorage, StorageStats};

/// The hidden service name under which the bridge service is registered.
pub const BRIDGE_SERVICE_NAME: &str = "__peerhood_bridge__";

/// The daemon state of one PeerHood node.
#[derive(Debug, Clone)]
pub struct Daemon {
    info: DeviceInfo,
    storage: DeviceStorage,
    registry: ServiceRegistry,
    plugins: PluginSet,
}

impl Daemon {
    /// Creates a daemon for the device described by `info`, using the
    /// thresholds from `config`.
    pub fn new(info: DeviceInfo, config: &PeerHoodConfig) -> Self {
        let mut registry = ServiceRegistry::new();
        if config.bridge.enabled {
            // The hidden bridge service is part of every PeerHood package and
            // is started with the daemon (§4).
            registry
                .register(ServiceInfo::new(BRIDGE_SERVICE_NAME, "hidden", 1))
                .expect("bridge service registers into an empty registry");
        }
        let mut storage = DeviceStorage::new(info.address, config.monitor.quality_threshold);
        // Reporter reputation is part of the sanity tier; the switch lives in
        // the storage (next to the penalty counts it gates) so route
        // integration can consult it without a config reference.
        storage.set_reputation(config.security.sanity_checks);
        Daemon {
            storage,
            registry,
            plugins: PluginSet::new(&config.techs),
            info,
        }
    }

    /// The local device description advertised to the network.
    pub fn info(&self) -> &DeviceInfo {
        &self.info
    }

    /// Read access to the device storage.
    pub fn storage(&self) -> &DeviceStorage {
        &self.storage
    }

    /// Mutable access to the device storage.
    pub fn storage_mut(&mut self) -> &mut DeviceStorage {
        &mut self.storage
    }

    /// Read access to the local service registry.
    pub fn registry(&self) -> &ServiceRegistry {
        &self.registry
    }

    /// Registers an application service (it becomes discoverable network
    /// wide).
    ///
    /// # Errors
    ///
    /// Returns an error if a service with the same name already exists.
    pub fn register_service(&mut self, service: ServiceInfo) -> Result<(), PeerHoodError> {
        self.registry.register(service)
    }

    /// Unregisters an application service.
    pub fn unregister_service(&mut self, name: &str) -> Option<ServiceInfo> {
        self.registry.unregister(name)
    }

    /// Services to advertise in inquiry responses: everything registered
    /// except the hidden bridge service.
    pub fn advertised_services(&self) -> Vec<ServiceInfo> {
        self.registry
            .list()
            .iter()
            .filter(|s| s.name != BRIDGE_SERVICE_NAME)
            .cloned()
            .collect()
    }

    /// Read access to the plugin set.
    pub fn plugins(&self) -> &PluginSet {
        &self.plugins
    }

    /// Mutable access to the plugin set.
    pub fn plugins_mut(&mut self) -> &mut PluginSet {
        &mut self.plugins
    }

    /// Storage statistics (for the experiments).
    pub fn stats(&self) -> StorageStats {
        self.storage.stats()
    }

    /// Builds the response to a received [`Message::InquiryRequest`]: own
    /// device information, advertised services and the exported
    /// neighbourhood, plus the current bridge load (§4's "bottle neck"
    /// mitigation).
    pub fn build_inquiry_response(&self, max_export_jumps: u8, bridge_load_percent: u8) -> Message {
        Message::InquiryResponse {
            device: self.info.clone(),
            services: self.advertised_services(),
            neighbors: self.storage.export_neighbors_iter(max_export_jumps).collect(),
            bridge_load_percent,
        }
    }

    /// Processes a received [`Message::InquiryResponse`] from a device found
    /// at `quality` during the last inquiry: stores the device as a direct
    /// neighbour and integrates its exported neighbourhood (Fig. 3.13).
    /// Returns the addresses of newly learned devices (the responder first
    /// when it was unknown), which the node fans out as
    /// `DeviceDiscovered` events.
    ///
    /// The quality used for route comparison is de-rated by the advertised
    /// bridge load (a fully loaded bridge loses up to half of its advertised
    /// quality) so that loaded bridges are avoided.
    #[allow(clippy::too_many_arguments)]
    pub fn process_inquiry_response(
        &mut self,
        device: DeviceInfo,
        services: Vec<ServiceInfo>,
        neighbors: &[NeighborRecord],
        bridge_load_percent: u8,
        quality: u8,
        config: &PeerHoodConfig,
        now: SimTime,
    ) -> Vec<DeviceAddress> {
        let effective_quality = Self::derate_quality(quality, bridge_load_percent);
        let mobility = device.mobility;
        let address = device.address;
        let mut added = Vec::new();
        if self.storage.upsert_direct(device, effective_quality, services, now) {
            added.push(address);
        }
        added.extend(self.storage.integrate_neighbor_report(
            address,
            effective_quality,
            mobility,
            neighbors,
            config.discovery.mode,
            now,
        ));
        added
    }

    /// De-rates a measured quality by the peer's advertised bridge load: at
    /// 100 % load the advertised quality drops by half.
    pub fn derate_quality(quality: u8, bridge_load_percent: u8) -> u8 {
        let load = bridge_load_percent.min(100) as u32;
        let q = quality as u32;
        (q - q * load / 200) as u8
    }

    /// Completes one inquiry cycle for `tech`: ages the storage with the set
    /// of devices that answered and returns the removed addresses.
    pub fn complete_cycle(&mut self, tech: RadioTech, config: &PeerHoodConfig, now: SimTime) -> Vec<DeviceAddress> {
        let responders = match self.plugins.get_mut(tech) {
            Some(plugin) => plugin.finish_cycle(),
            None => Vec::new(),
        };
        self.storage.age_cycle(
            &responders,
            now,
            config.discovery.max_missed_loops,
            config.discovery.stale_timeout,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiscoveryMode;
    use crate::device::MobilityClass;
    use simnet::NodeId;

    fn config() -> PeerHoodConfig {
        PeerHoodConfig::new("test", MobilityClass::Static)
    }

    fn info(n: u64) -> DeviceInfo {
        DeviceInfo::new(
            NodeId::from_raw(n),
            format!("d{n}"),
            MobilityClass::Static,
            &[RadioTech::Bluetooth],
        )
    }

    fn daemon() -> Daemon {
        Daemon::new(info(0), &config())
    }

    #[test]
    fn bridge_service_is_hidden_but_registered() {
        let d = daemon();
        assert!(d.registry().find(BRIDGE_SERVICE_NAME).is_some());
        assert!(d.advertised_services().is_empty());
        // Disabling the bridge omits the hidden service.
        let no_bridge = Daemon::new(info(0), &config().with_bridge_enabled(false));
        assert!(no_bridge.registry().find(BRIDGE_SERVICE_NAME).is_none());
    }

    #[test]
    fn register_and_advertise_services() {
        let mut d = daemon();
        d.register_service(ServiceInfo::new("echo", "v1", 10)).unwrap();
        assert_eq!(d.advertised_services().len(), 1);
        assert!(d.register_service(ServiceInfo::new("echo", "v2", 11)).is_err());
        assert!(d.unregister_service("echo").is_some());
        assert!(d.advertised_services().is_empty());
    }

    #[test]
    fn inquiry_response_contains_storage_export() {
        let mut d = daemon();
        d.register_service(ServiceInfo::new("echo", "v1", 10)).unwrap();
        d.storage_mut()
            .upsert_direct(info(2), 240, vec![ServiceInfo::new("print", "", 3)], SimTime::ZERO);
        match d.build_inquiry_response(8, 25) {
            Message::InquiryResponse {
                device,
                services,
                neighbors,
                bridge_load_percent,
            } => {
                assert_eq!(device.address, info(0).address);
                assert_eq!(services.len(), 1);
                assert_eq!(neighbors.len(), 1);
                assert_eq!(neighbors[0].info.address, info(2).address);
                assert_eq!(bridge_load_percent, 25);
            }
            other => panic!("unexpected message {other:?}"),
        }
    }

    #[test]
    fn process_inquiry_response_updates_storage() {
        let mut d = daemon();
        let cfg = config();
        let responder = info(1);
        let neighbors = vec![NeighborRecord {
            info: info(2),
            jumps: 0,
            hop_qualities: vec![250],
            services: vec![].into(),
        }];
        let added = d.process_inquiry_response(
            responder.clone(),
            vec![ServiceInfo::new("echo", "", 1)],
            &neighbors,
            0,
            245,
            &cfg,
            SimTime::ZERO,
        );
        assert_eq!(added, vec![responder.address, info(2).address]);
        assert_eq!(d.stats().known_devices, 2);
        let stored = d.storage().get(responder.address).unwrap();
        assert!(stored.is_direct());
        assert!(stored.offers("echo"));
        assert_eq!(d.storage().get(info(2).address).unwrap().route.jumps, 1);
    }

    #[test]
    fn quality_derating_by_bridge_load() {
        assert_eq!(Daemon::derate_quality(240, 0), 240);
        assert_eq!(Daemon::derate_quality(240, 100), 120);
        assert_eq!(Daemon::derate_quality(240, 50), 180);
        assert_eq!(Daemon::derate_quality(240, 255), 120);
        assert_eq!(Daemon::derate_quality(0, 100), 0);
    }

    #[test]
    fn loaded_bridges_influence_route_choice() {
        let mut d = daemon();
        let mut cfg = config();
        cfg.discovery.mode = DiscoveryMode::Dynamic;
        // Two potential bridges report the same target with identical raw
        // quality, but one is fully loaded.
        let target = NeighborRecord {
            info: info(9),
            jumps: 0,
            hop_qualities: vec![250],
            services: vec![].into(),
        };
        d.process_inquiry_response(
            info(1),
            vec![],
            std::slice::from_ref(&target),
            100,
            245,
            &cfg,
            SimTime::ZERO,
        );
        d.process_inquiry_response(info(2), vec![], &[target], 0, 245, &cfg, SimTime::ZERO);
        let route = &d.storage().get(info(9).address).unwrap().route;
        assert_eq!(route.bridge, Some(info(2).address), "the unloaded bridge must win");
    }

    #[test]
    fn complete_cycle_ages_and_removes_silent_devices() {
        let mut d = daemon();
        let cfg = config();
        d.storage_mut().upsert_direct(info(1), 240, vec![], SimTime::ZERO);
        d.storage_mut().upsert_direct(info(2), 240, vec![], SimTime::ZERO);
        // Device 1 answers every cycle, device 2 never does. The default
        // configuration tolerates five missed loops, so the sixth silent
        // cycle removes it.
        for cycle in 0..8 {
            let now = SimTime::from_secs(10 * (cycle + 1));
            if let Some(p) = d.plugins_mut().get_mut(RadioTech::Bluetooth) {
                p.begin_cycle(now);
                p.note_responder(info(1).address);
            }
            let removed = d.complete_cycle(RadioTech::Bluetooth, &cfg, now);
            if cycle < 5 {
                assert!(removed.is_empty(), "cycle {cycle} removed {removed:?}");
            }
        }
        assert!(d.storage().get(info(1).address).is_some());
        assert!(d.storage().get(info(2).address).is_none());
        assert_eq!(d.plugins().get(RadioTech::Bluetooth).unwrap().cycles_completed, 8);
    }
}
