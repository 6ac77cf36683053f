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
use crate::service::{ServiceInfo, ServiceRegistry};
use crate::storage::{DeviceStorage, StorageStats};
use crate::wire;

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

    /// Writes the response to a received
    /// [`Message::InquiryRequest`](crate::proto::Message::InquiryRequest)
    /// into `buf` (Fig. 3.5): own device information, every registered
    /// service except the hidden bridge service, the device storage's entries
    /// within `max_export_jumps`, and the current bridge load (§4's "bottle
    /// neck" mitigation). One pass from the storage to the bytes
    /// [`wire::encode_into`] would produce for the equivalent message.
    pub fn encode_inquiry_response(&self, max_export_jumps: u8, bridge_load_percent: u8, buf: &mut Vec<u8>) {
        let advertised = self.registry.list().iter().filter(|s| s.name != BRIDGE_SERVICE_NAME);
        let mut reply = wire::InquiryResponseWriter::begin(buf, &self.info, advertised);
        for row in self.storage.exported(max_export_jumps) {
            reply.neighbor(row);
        }
        reply.finish(bridge_load_percent);
    }

    /// Processes a received inquiry response — read in place, see
    /// [`wire::InquiryResponseView`] — from a device found at `quality`
    /// during the last inquiry: stores the device as a direct neighbour and,
    /// unless `direct_only` (the reporter's gossip is not to be trusted),
    /// integrates its exported neighbourhood (Fig. 3.13). Returns the
    /// addresses of newly learned devices (the responder first when it was
    /// unknown), which the node fans out as `DeviceDiscovered` events.
    ///
    /// The quality used for route comparison is de-rated by the advertised
    /// bridge load (a fully loaded bridge loses up to half of its advertised
    /// quality) so that loaded bridges are avoided.
    pub fn process_inquiry_response(
        &mut self,
        report: &wire::InquiryResponseView<'_>,
        direct_only: bool,
        quality: u8,
        config: &PeerHoodConfig,
        now: SimTime,
    ) -> Vec<DeviceAddress> {
        let effective_quality = Self::derate_quality(quality, report.bridge_load_percent);
        let address = report.device.address;
        let mut added = Vec::new();
        let (device, services) = (report.device, report.services.clone());
        if self
            .storage
            .upsert_direct_view(device, services, effective_quality, now)
        {
            added.push(address);
        }
        let neighbors = if direct_only {
            wire::Neighbors::default()
        } else {
            report.neighbors.clone()
        };
        added.extend(self.storage.integrate_neighbor_views(
            address,
            effective_quality,
            report.device.mobility,
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
        let mut responders = match self.plugins.get_mut(tech) {
            Some(plugin) => plugin.finish_cycle(),
            None => Vec::new(),
        };
        self.storage.age_cycle(
            &mut responders,
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
    use crate::proto::{Message, NeighborRecord};
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

    /// What `d` answers an inquiry with, decoded:
    /// `(device, services, neighbors, bridge_load_percent)`.
    fn reply(d: &Daemon, max_export_jumps: u8, load: u8) -> (DeviceInfo, Vec<ServiceInfo>, Vec<NeighborRecord>, u8) {
        let mut frame = Vec::new();
        d.encode_inquiry_response(max_export_jumps, load, &mut frame);
        match wire::decode(&frame).expect("the daemon's reply decodes") {
            Message::InquiryResponse {
                device,
                services,
                neighbors,
                bridge_load_percent,
            } => (device, services, neighbors, bridge_load_percent),
            other => panic!("unexpected message {other:?}"),
        }
    }

    /// Feeds `d` the report a device `from` would send, as the frame the
    /// node's fetch link would deliver it in.
    fn hear(
        d: &mut Daemon,
        from: DeviceInfo,
        services: Vec<ServiceInfo>,
        neighbors: Vec<NeighborRecord>,
        load: u8,
        quality: u8,
        cfg: &PeerHoodConfig,
    ) -> Vec<DeviceAddress> {
        let frame = wire::encode(&Message::InquiryResponse {
            device: from,
            services,
            neighbors,
            bridge_load_percent: load,
        });
        let report = wire::view_inquiry_response(&frame).expect("a well-formed report");
        d.process_inquiry_response(&report, false, quality, cfg, SimTime::ZERO)
    }

    #[test]
    fn bridge_service_is_hidden_but_registered() {
        let d = daemon();
        assert!(d.registry().find(BRIDGE_SERVICE_NAME).is_some());
        assert!(reply(&d, 8, 0).1.is_empty());
        // Disabling the bridge omits the hidden service.
        let mut cfg = config();
        cfg.bridge.enabled = false;
        let no_bridge = Daemon::new(info(0), &cfg);
        assert!(no_bridge.registry().find(BRIDGE_SERVICE_NAME).is_none());
    }

    #[test]
    fn register_and_advertise_services() {
        let mut d = daemon();
        d.register_service(ServiceInfo::new("echo", "v1", 10)).unwrap();
        assert_eq!(reply(&d, 8, 0).1, vec![ServiceInfo::new("echo", "v1", 10)]);
        assert!(d.register_service(ServiceInfo::new("echo", "v2", 11)).is_err());
        assert!(d.unregister_service("echo").is_some());
        assert!(reply(&d, 8, 0).1.is_empty());
    }

    #[test]
    fn inquiry_response_contains_storage_export() {
        let mut d = daemon();
        d.register_service(ServiceInfo::new("echo", "v1", 10)).unwrap();
        d.storage_mut()
            .upsert_direct(info(2), 240, vec![ServiceInfo::new("print", "", 3)], SimTime::ZERO);
        let (device, services, neighbors, bridge_load_percent) = reply(&d, 8, 25);
        assert_eq!(device.address, info(0).address);
        assert_eq!(services.len(), 1);
        assert_eq!(neighbors.len(), 1);
        assert_eq!(neighbors[0].info.address, info(2).address);
        assert_eq!(bridge_load_percent, 25);
    }

    #[test]
    fn export_neighbors_respects_jump_limit() {
        let mut d = daemon();
        let far = |n, jumps: u8, quality| NeighborRecord {
            info: info(n),
            jumps,
            hop_qualities: vec![quality; jumps as usize + 1],
            services: vec![].into(),
        };
        hear(
            &mut d,
            info(1),
            vec![],
            vec![far(2, 0, 235), far(3, 3, 232)],
            0,
            240,
            &config(),
        );
        assert_eq!(reply(&d, 8, 0).2.len(), 3);
        let limited = reply(&d, 1, 0).2;
        assert_eq!(limited.len(), 2, "the 4-jump entry must be excluded");
        // Exported jump counts are the exporter's own view.
        let d2 = limited.iter().find(|r| r.info.address == info(2).address).unwrap();
        assert_eq!(d2.jumps, 1);
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
        let added = hear(
            &mut d,
            responder.clone(),
            vec![ServiceInfo::new("echo", "", 1)],
            neighbors,
            0,
            245,
            &cfg,
        );
        assert_eq!(added, vec![responder.address, info(2).address]);
        assert_eq!(d.stats().known_devices, 2);
        let stored = d.storage().get(responder.address).unwrap();
        assert!(stored.is_direct());
        assert!(stored.offers("echo"));
        assert_eq!(d.storage().get(info(2).address).unwrap().route.jumps, 1);
    }

    #[test]
    fn an_untrusted_reporter_is_stored_but_its_gossip_is_not() {
        let mut d = daemon();
        let gossip = NeighborRecord {
            info: info(2),
            jumps: 0,
            hop_qualities: vec![250],
            services: vec![].into(),
        };
        let frame = wire::encode(&Message::InquiryResponse {
            device: info(1),
            services: vec![],
            neighbors: vec![gossip],
            bridge_load_percent: 0,
        });
        let report = wire::view_inquiry_response(&frame).unwrap();
        let added = d.process_inquiry_response(&report, true, 245, &config(), SimTime::ZERO);
        assert_eq!(added, vec![info(1).address]);
        assert!(d.storage().get(info(2).address).is_none());
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
        hear(&mut d, info(1), vec![], vec![target.clone()], 100, 245, &cfg);
        hear(&mut d, info(2), vec![], vec![target], 0, 245, &cfg);
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
