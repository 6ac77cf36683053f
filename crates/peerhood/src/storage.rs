//! The device storage: PeerHood's view of its environment.
//!
//! `CDeviceStorage` in the original implementation stores every known remote
//! device together with its services. The thesis turns it into an ad-hoc
//! routing table by adding the bridge address and jump count (§3.3), plus the
//! link-quality and mobility parameters used for best-route selection. The
//! storage also remembers *who reported seeing whom* — exactly the
//! information the routing-handover controller walks in state 0 ("find
//! connected device from neighbours of each DeviceList element", Fig. 5.5).

use std::collections::BTreeMap;
use std::rc::Rc;

use serde::{Deserialize, Serialize};
use simnet::{SimDuration, SimTime};

use crate::config::DiscoveryMode;
use crate::device::{DeviceInfo, MobilityClass};
use crate::ids::DeviceAddress;
use crate::proto::NeighborRecord;
use crate::quality::route_acceptable;
use crate::route::{candidate_replaces, RouteInfo};
use crate::service::ServiceInfo;
use crate::wire;

/// Security rejections (or dead bridge routes) a reporter may accrue before
/// its neighbour reports are ignored entirely, once the sanity tier arms the
/// reputation defence.
pub const REPORTER_PENALTY_LIMIT: u32 = 3;

/// One entry of the device storage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredDevice {
    /// The device's advertised parameters.
    pub info: DeviceInfo,
    /// Best known route to the device.
    pub route: RouteInfo,
    /// Services the device offers. Shared with the [`NeighborRecord`]s the
    /// list arrived in (and leaves through): cloning an entry or exporting
    /// the neighbourhood bumps a reference count instead of copying strings.
    pub services: Rc<[ServiceInfo]>,
    /// Last time the entry was confirmed (directly or via a neighbour
    /// report).
    pub last_seen: SimTime,
    /// Last time the full information was fetched over a daemon connection;
    /// used to honour the service-checking interval of §3.5.
    pub last_fetched: SimTime,
    /// Consecutive inquiry loops a *direct* neighbour has missed.
    pub missed_loops: u32,
}

impl StoredDevice {
    /// True if the device is a direct neighbour (0 jumps).
    pub fn is_direct(&self) -> bool {
        self.route.is_direct()
    }

    /// True if the device offers a service with the given name.
    pub fn offers(&self, service: &str) -> bool {
        self.services.iter().any(|s| s.name == service)
    }
}

/// Summary statistics about the storage contents, used by the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StorageStats {
    /// Total number of known remote devices.
    pub known_devices: usize,
    /// Number of direct (0-jump) neighbours.
    pub direct_neighbors: usize,
    /// Largest jump count among stored routes.
    pub max_jumps: u8,
    /// Total number of known remote services.
    pub known_services: usize,
}

/// One neighbour record as [`DeviceStorage::integrate`] reads it: the owned
/// [`NeighborRecord`] of a decoded [`Message`](crate::proto::Message) or the
/// [`wire::NeighborView`] of a frame read in place. Everything that
/// allocates is a method the routine calls only for an entry it inserts or
/// changes; `like` is the responder's own stored description, shared where
/// equal.
trait ReportRecord {
    fn address(&self) -> DeviceAddress;
    fn jumps(&self) -> u8;
    fn hop_qualities(&self) -> &[u8];
    fn info(&self, like: Option<&DeviceInfo>) -> DeviceInfo;
    fn services(&self, like: Option<&Rc<[ServiceInfo]>>) -> Rc<[ServiceInfo]>;
    /// The advertised services whose name `known` does not list yet.
    fn services_unknown_to(&self, known: &[ServiceInfo]) -> Vec<ServiceInfo>;
}

impl ReportRecord for &NeighborRecord {
    fn address(&self) -> DeviceAddress {
        self.info.address
    }
    fn jumps(&self) -> u8 {
        self.jumps
    }
    fn hop_qualities(&self) -> &[u8] {
        &self.hop_qualities
    }
    // An owned record already holds its description behind `Rc`s.
    fn info(&self, _like: Option<&DeviceInfo>) -> DeviceInfo {
        self.info.clone()
    }
    fn services(&self, _like: Option<&Rc<[ServiceInfo]>>) -> Rc<[ServiceInfo]> {
        self.services.clone()
    }
    fn services_unknown_to(&self, known: &[ServiceInfo]) -> Vec<ServiceInfo> {
        let unknown = |name: &str| !known.iter().any(|k| k.name == name);
        self.services.iter().filter(|s| unknown(&s.name)).cloned().collect()
    }
}

impl ReportRecord for wire::NeighborView<'_> {
    fn address(&self) -> DeviceAddress {
        self.info.address
    }
    fn jumps(&self) -> u8 {
        self.jumps
    }
    fn hop_qualities(&self) -> &[u8] {
        self.hop_qualities
    }
    fn info(&self, like: Option<&DeviceInfo>) -> DeviceInfo {
        self.info.to_info(like)
    }
    fn services(&self, like: Option<&Rc<[ServiceInfo]>>) -> Rc<[ServiceInfo]> {
        self.services.to_shared(like)
    }
    fn services_unknown_to(&self, known: &[ServiceInfo]) -> Vec<ServiceInfo> {
        let unknown = |name: &str| !known.iter().any(|k| k.name == name);
        let fresh = self.services.clone().filter(|s| unknown(s.name));
        fresh.map(|s| s.to_info()).collect()
    }
}

/// PeerHood's per-device environment knowledge.
#[derive(Debug, Clone)]
pub struct DeviceStorage {
    own_address: DeviceAddress,
    quality_threshold: u8,
    devices: BTreeMap<DeviceAddress, StoredDevice>,
    /// responder -> (neighbour -> quality the responder reported for it)
    reported_neighbors: BTreeMap<DeviceAddress, BTreeMap<DeviceAddress, u8>>,
    /// Bumped on every mutation; lets callers (the node's cached inquiry
    /// response frame) detect staleness without diffing contents.
    generation: u64,
    /// Set by [`DeviceStorage::remove`] (which defers its orphan cascade to
    /// the next aging cycle); lets [`DeviceStorage::age_cycle`] skip the
    /// orphaned-bridge scan when nothing could possibly be orphaned.
    maybe_orphans: bool,
    /// Reporter-reputation penalties (security hardening): devices whose
    /// frames triggered security rejections, or whose bridge routes failed
    /// to dial, accrue penalties here. Empty unless the reputation defence
    /// records any.
    reputation: BTreeMap<DeviceAddress, u32>,
    /// Whether reporters at [`REPORTER_PENALTY_LIMIT`] are ignored (off by
    /// default).
    reputation_armed: bool,
}

impl DeviceStorage {
    /// Creates an empty storage for the device with the given address.
    pub fn new(own_address: DeviceAddress, quality_threshold: u8) -> Self {
        DeviceStorage {
            own_address,
            quality_threshold,
            devices: BTreeMap::new(),
            reported_neighbors: BTreeMap::new(),
            generation: 0,
            maybe_orphans: false,
            reputation: BTreeMap::new(),
            reputation_armed: false,
        }
    }

    /// Arms (or disarms) the reporter-reputation defence: when armed,
    /// neighbour reports from devices whose penalty count has reached
    /// [`REPORTER_PENALTY_LIMIT`] are skipped by the daemon.
    pub fn set_reputation(&mut self, armed: bool) {
        self.reputation_armed = armed;
    }

    /// Records one reputation penalty against `peer` and returns its new
    /// penalty count.
    pub fn penalize_reporter(&mut self, peer: DeviceAddress) -> u32 {
        let count = self.reputation.entry(peer).or_insert(0);
        *count = count.saturating_add(1);
        *count
    }

    /// The penalty count accrued by `peer`.
    pub fn reporter_penalty(&self, peer: DeviceAddress) -> u32 {
        self.reputation.get(&peer).copied().unwrap_or(0)
    }

    /// True when the reputation defence is armed and `peer` has exhausted
    /// its penalty budget — its neighbour reports must be ignored.
    pub fn reporter_blocked(&self, peer: DeviceAddress) -> bool {
        self.reputation_armed && self.reporter_penalty(peer) >= REPORTER_PENALTY_LIMIT
    }

    /// The owning device's address (never stored as an entry).
    pub fn own_address(&self) -> DeviceAddress {
        self.own_address
    }

    /// Monotonic mutation counter: unchanged generation ⇒ unchanged
    /// contents, so derived artefacts (e.g. the encoded inquiry-response
    /// frame) can be cached and reused until it moves.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of known remote devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True if no remote device is known.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Looks up a device by address.
    pub fn get(&self, address: DeviceAddress) -> Option<&StoredDevice> {
        self.devices.get(&address)
    }

    /// All known devices in address order, without allocating.
    pub fn devices(&self) -> impl Iterator<Item = &StoredDevice> + '_ {
        self.devices.values()
    }

    /// Comparison chain of the provider-selection sort: jumps, then nearest
    /// mobility, then (descending) quality sum.
    fn provider_order(a: &StoredDevice, b: &StoredDevice) -> std::cmp::Ordering {
        a.route
            .jumps
            .cmp(&b.route.jumps)
            .then(a.route.nearest_mobility.value().cmp(&b.route.nearest_mobility.value()))
            .then(b.route.quality_sum().cmp(&a.route.quality_sum()))
    }

    /// Every `(device, service)` pair whose service name matches `name`,
    /// best route first. (The ranking requires a sort, so the iterator is
    /// backed by one internally collected vector; it exists so call sites
    /// can stream the ranked results without a second allocation.)
    pub fn service_providers<'a>(&'a self, name: &str) -> impl Iterator<Item = (&'a StoredDevice, &'a ServiceInfo)> {
        let mut providers: Vec<(&StoredDevice, &ServiceInfo)> = self
            .devices
            .values()
            .filter_map(|d| d.services.iter().find(|s| s.name == name).map(|s| (d, s)))
            .collect();
        providers.sort_by(|(a, _), (b, _)| Self::provider_order(a, b));
        providers.into_iter()
    }

    /// The best-ranked provider of `name` — exactly
    /// `service_providers(name).next()`, but found in one allocation-
    /// free pass (a strict-minimum scan keeps the stable sort's tie-breaking:
    /// first in address order wins among equals).
    pub fn best_service_provider(&self, name: &str) -> Option<(&StoredDevice, &ServiceInfo)> {
        let mut best: Option<(&StoredDevice, &ServiceInfo)> = None;
        for d in self.devices.values() {
            if let Some(s) = d.services.iter().find(|s| s.name == name) {
                let wins = match best {
                    Some((b, _)) => Self::provider_order(d, b) == std::cmp::Ordering::Less,
                    None => true,
                };
                if wins {
                    best = Some((d, s));
                }
            }
        }
        best
    }

    /// Storage statistics.
    pub fn stats(&self) -> StorageStats {
        StorageStats {
            known_devices: self.devices.len(),
            direct_neighbors: self.devices.values().filter(|d| d.is_direct()).count(),
            max_jumps: self.devices.values().map(|d| d.route.jumps).max().unwrap_or(0),
            known_services: self.devices.values().map(|d| d.services.len()).sum(),
        }
    }

    /// Records or refreshes a **direct** neighbour observed by an inquiry and
    /// information fetch. Returns `true` when the device was not known
    /// before.
    pub fn upsert_direct(
        &mut self,
        info: DeviceInfo,
        quality: u8,
        services: impl Into<Rc<[ServiceInfo]>>,
        now: SimTime,
    ) -> bool {
        if info.address == self.own_address {
            return false;
        }
        let services = services.into();
        self.generation += 1;
        let route = RouteInfo::direct(quality, info.mobility);
        match self.devices.get_mut(&info.address) {
            Some(existing) => {
                // A direct observation always supersedes an indirect route
                // and refreshes a direct one.
                if existing.route.jumps > 0 || candidate_replaces(&route, &existing.route, self.quality_threshold) {
                    existing.route = route;
                } else if existing.route.is_direct() {
                    Self::set_single_hop_quality(&mut existing.route.hop_qualities, quality);
                }
                existing.info = info;
                existing.services = services;
                existing.last_seen = now;
                existing.last_fetched = now;
                existing.missed_loops = 0;
                false
            }
            None => {
                self.devices.insert(
                    info.address,
                    StoredDevice {
                        info,
                        route,
                        services,
                        last_seen: now,
                        last_fetched: now,
                        missed_loops: 0,
                    },
                );
                true
            }
        }
    }

    /// Marks a direct neighbour as having answered the current inquiry loop
    /// without re-fetching its full information (the cheap path of Fig. 3.12
    /// when the service-checking interval has not elapsed yet).
    pub fn mark_responded(&mut self, address: DeviceAddress, quality: u8, now: SimTime) {
        if let Some(entry) = self.devices.get_mut(&address) {
            entry.last_seen = now;
            entry.missed_loops = 0;
            // `last_seen`/`missed_loops` are invisible to the generation's
            // consumers (exports and handover candidates), so the counter
            // only moves when the exported hop quality actually changes —
            // keeping the encode-once inquiry-response cache warm across
            // steady cycles.
            if entry.route.is_direct() && entry.route.hop_qualities != [quality] {
                self.generation += 1;
                Self::set_single_hop_quality(&mut entry.route.hop_qualities, quality);
            }
        }
    }

    /// Rewrites a hop-quality list to the single entry `[quality]`, reusing
    /// the existing allocation when it already holds exactly one hop (the
    /// steady state of a direct route refreshed every inquiry cycle).
    fn set_single_hop_quality(hop_qualities: &mut Vec<u8>, quality: u8) {
        hop_qualities.clear();
        hop_qualities.push(quality);
    }

    /// True if the device's full information should be re-fetched according
    /// to the service-checking interval.
    pub fn needs_recheck(&self, address: DeviceAddress, now: SimTime, interval: SimDuration) -> bool {
        match self.devices.get(&address) {
            None => true,
            Some(entry) => now.saturating_since(entry.last_fetched) >= interval,
        }
    }

    /// Processes one inquiry hit in a single lookup: when the device is
    /// unknown or stale per the service-checking interval, returns `true`
    /// (the caller starts a full fetch, exactly as
    /// [`DeviceStorage::needs_recheck`] would have said); otherwise applies
    /// the cheap [`DeviceStorage::mark_responded`] refresh and returns
    /// `false`. Behaviour is identical to calling the two methods
    /// separately — this just avoids walking the map twice per hit on the
    /// discovery hot path.
    pub fn note_inquiry_hit(
        &mut self,
        address: DeviceAddress,
        quality: u8,
        now: SimTime,
        interval: SimDuration,
    ) -> bool {
        match self.devices.get_mut(&address) {
            None => true,
            Some(entry) => {
                if now.saturating_since(entry.last_fetched) >= interval {
                    return true;
                }
                entry.last_seen = now;
                entry.missed_loops = 0;
                if entry.route.is_direct() && entry.route.hop_qualities != [quality] {
                    self.generation += 1;
                    Self::set_single_hop_quality(&mut entry.route.hop_qualities, quality);
                }
                false
            }
        }
    }

    /// Integrates the neighbourhood information received from `responder`
    /// (the `AnalyzeNeighbourhoodDevices` step of Fig. 3.13).
    ///
    /// Records describing this device itself are skipped ("own device
    /// comparison filter"); each remaining record is inserted with an
    /// incremented jump count and `responder` as bridge, and replaces an
    /// existing route only if it wins the jump → mobility → quality
    /// comparison chain. Returns the addresses of newly learned devices
    /// (existing entries whose route merely improved are not reported).
    pub fn integrate_neighbor_report(
        &mut self,
        responder: DeviceAddress,
        responder_quality: u8,
        responder_mobility: MobilityClass,
        records: &[NeighborRecord],
        mode: DiscoveryMode,
        now: SimTime,
    ) -> Vec<DeviceAddress> {
        self.integrate(
            responder,
            responder_quality,
            responder_mobility,
            records.iter(),
            mode,
            now,
        )
    }

    /// [`DeviceStorage::integrate_neighbor_report`] over the records of a
    /// frame read in place: the node's own path. A report that re-announces
    /// known devices over routes that do not beat the stored ones — the
    /// steady state — allocates nothing here.
    pub fn integrate_neighbor_views(
        &mut self,
        responder: DeviceAddress,
        responder_quality: u8,
        responder_mobility: MobilityClass,
        records: wire::Neighbors<'_>,
        mode: DiscoveryMode,
        now: SimTime,
    ) -> Vec<DeviceAddress> {
        self.integrate(responder, responder_quality, responder_mobility, records, mode, now)
    }

    fn integrate<R: ReportRecord>(
        &mut self,
        responder: DeviceAddress,
        responder_quality: u8,
        responder_mobility: MobilityClass,
        records: impl Iterator<Item = R>,
        mode: DiscoveryMode,
        now: SimTime,
    ) -> Vec<DeviceAddress> {
        let mut added = Vec::new();
        self.generation += 1;
        // What the responder's own entry holds, for new entries to share: in
        // a fleet built from one configuration every device advertises the
        // same name, technology list and service list, and a storage of
        // hundreds of entries should hold them once.
        let (like_info, like_services) = self
            .devices
            .get(&responder)
            .map(|d| (d.info.clone(), d.services.clone()))
            .unzip();
        // The responder's reported-neighbour map is looked up (and, for a
        // first report, created) once, by the first record that needs it.
        let mut reporters = Some(&mut self.reported_neighbors);
        let mut reported: Option<&mut BTreeMap<DeviceAddress, u8>> = None;
        for record in records {
            let address = record.address();
            let hops = record.hop_qualities();
            // Own-device filter: avoid a route to ourselves through a
            // neighbour.
            if address == self.own_address {
                continue;
            }
            // The stored route would have `record.jumps + 1` jumps; skip
            // anything that would exceed the mode's vision (DirectOnly
            // accepts nothing from reports, TwoHop only the responder's
            // direct neighbours).
            let cand_jumps = record.jumps().saturating_add(1);
            if mode.max_learned_jumps().is_some_and(|max| cand_jumps > max) {
                continue;
            }
            // Remember that `responder` claims to reach this device directly
            // (used by routing handover, Fig. 5.5 state 0).
            if record.jumps() == 0 {
                reported
                    .get_or_insert_with(|| {
                        let reporters = reporters.take().expect("taken by the first direct record only");
                        reporters.entry(responder).or_default()
                    })
                    .insert(address, hops.first().copied().unwrap_or(0));
            }

            // The candidate route is `[responder_quality] ++ record hops`
            // through `responder`. It — like the device description and the
            // service list — is only materialised when the candidate wins
            // or the device is new.
            let build_candidate = || {
                let mut hop_qualities = Vec::with_capacity(hops.len() + 1);
                hop_qualities.push(responder_quality);
                hop_qualities.extend_from_slice(hops);
                RouteInfo::via(responder, cand_jumps, hop_qualities, responder_mobility)
            };

            match self.devices.get_mut(&address) {
                None => {
                    self.devices.insert(
                        address,
                        StoredDevice {
                            info: record.info(like_info.as_ref()),
                            route: build_candidate(),
                            services: record.services(like_services.as_ref()),
                            last_seen: now,
                            last_fetched: now,
                            missed_loops: 0,
                        },
                    );
                    added.push(address);
                }
                Some(existing) => {
                    existing.last_seen = now;
                    // Merge any newly advertised services. The list is
                    // shared, so it is rebuilt (copy-on-write) only when a
                    // genuinely new service appears — the steady state, where
                    // reports repeat known services, touches nothing.
                    let fresh = record.services_unknown_to(&existing.services);
                    if !fresh.is_empty() {
                        existing.services = existing.services.iter().cloned().chain(fresh).collect();
                    }
                    // The `candidate_replaces` comparison chain of Fig. 3.13,
                    // evaluated without building the candidate: jumps, then
                    // nearest mobility, then the Fig. 3.9 quality rule over
                    // the prefixed hop list.
                    let current = &existing.route;
                    let replaces = if cand_jumps != current.jumps {
                        cand_jumps < current.jumps
                    } else if responder_mobility.value() != current.nearest_mobility.value() {
                        responder_mobility.value() < current.nearest_mobility.value()
                    } else {
                        let threshold = self.quality_threshold;
                        let cand_ok = responder_quality >= threshold && hops.iter().all(|&q| q >= threshold);
                        let curr_ok = route_acceptable(&current.hop_qualities, threshold);
                        match (cand_ok, curr_ok) {
                            (true, false) => true,
                            (false, _) => false,
                            (true, true) => {
                                let cand_sum = responder_quality as u32 + hops.iter().map(|&q| q as u32).sum::<u32>();
                                cand_sum > current.quality_sum()
                            }
                        }
                    };
                    if replaces {
                        existing.route = build_candidate();
                    }
                }
            }
        }
        added
    }

    /// Ages the storage after one inquiry loop: direct neighbours that did
    /// not answer accumulate missed loops and are erased after the limit;
    /// indirect entries are erased when stale or when their bridge has
    /// disappeared (Fig. 3.12's "make older" / "erase stored device").
    ///
    /// Returns the addresses that were removed.
    pub fn age_cycle(
        &mut self,
        responded: &[DeviceAddress],
        now: SimTime,
        max_missed_loops: u32,
        stale_timeout: SimDuration,
    ) -> Vec<DeviceAddress> {
        let mut removed = Vec::new();
        // Pass 1: age direct neighbours and drop stale indirect entries.
        // Missed-loop counters are invisible to the generation's consumers,
        // so the counter is bumped further down, only when an entry is
        // actually removed.
        let mut to_remove: Vec<DeviceAddress> = Vec::new();
        for (addr, entry) in self.devices.iter_mut() {
            if entry.is_direct() {
                if responded.contains(addr) {
                    entry.missed_loops = 0;
                } else {
                    entry.missed_loops += 1;
                    if entry.missed_loops > max_missed_loops {
                        to_remove.push(*addr);
                    }
                }
            } else if now.saturating_since(entry.last_seen) > stale_timeout {
                to_remove.push(*addr);
            }
        }
        for addr in to_remove {
            self.devices.remove(&addr);
            self.reported_neighbors.remove(&addr);
            removed.push(addr);
        }
        // Pass 2 (repeated): drop indirect entries whose bridge is gone.
        // Orphans can only exist when something was removed — in pass 1
        // just now, or earlier through `remove` (which defers its cascade
        // here); every other mutation only adds or improves entries. The
        // steady-state cycle with nothing to age skips the scan.
        if removed.is_empty() && !self.maybe_orphans {
            return removed;
        }
        self.generation += 1;
        self.maybe_orphans = false;
        loop {
            let orphaned: Vec<DeviceAddress> = self
                .devices
                .iter()
                .filter(|(_, e)| {
                    e.route
                        .bridge
                        .map(|bridge| !self.devices.contains_key(&bridge))
                        .unwrap_or(false)
                })
                .map(|(addr, _)| *addr)
                .collect();
            if orphaned.is_empty() {
                break;
            }
            for addr in orphaned {
                self.devices.remove(&addr);
                self.reported_neighbors.remove(&addr);
                removed.push(addr);
            }
        }
        removed
    }

    /// Flags a device as suspected dead (its node crashed under a live
    /// link): its missed-loop counter jumps straight to the tolerance, so
    /// the next inquiry cycle it stays silent through removes it — i.e. a
    /// crashed neighbour ages out within one discovery cycle instead of
    /// `max_missed_loops` of them. A device that answers an inquiry after
    /// all resets the counter through [`DeviceStorage::mark_responded`] /
    /// [`DeviceStorage::upsert_direct`] and stays.
    pub fn mark_suspect(&mut self, address: DeviceAddress, max_missed_loops: u32) {
        if let Some(entry) = self.devices.get_mut(&address) {
            self.generation += 1;
            entry.missed_loops = entry.missed_loops.max(max_missed_loops);
        }
    }

    /// Removes a device outright (e.g. after repeated connection failures).
    /// Routes through the removed device are cascaded away by the next
    /// [`DeviceStorage::age_cycle`].
    pub fn remove(&mut self, address: DeviceAddress) -> Option<StoredDevice> {
        self.generation += 1;
        self.maybe_orphans = true;
        self.reported_neighbors.remove(&address);
        self.devices.remove(&address)
    }

    /// Direct neighbours that have reported `target` as *their* direct
    /// neighbour, together with the quality they reported — the candidate
    /// bridges for a routing handover towards `target` (Fig. 5.5 state 0).
    /// Best first (our quality to the bridge + its reported quality to the
    /// target); like [`DeviceStorage::service_providers`] the ranking needs
    /// one internal sort, after which the results stream without copies.
    pub fn handover_candidates_iter(&self, target: DeviceAddress) -> impl Iterator<Item = (DeviceAddress, u8, u8)> {
        // Walk the (much smaller) reporter table instead of the whole device
        // storage: a candidate must have filed a neighbour report, and both
        // maps iterate in address order, so the result list is identical to
        // the historical full-storage scan.
        let mut candidates: Vec<(DeviceAddress, u8, u8)> = self
            .reported_neighbors
            .iter()
            .filter(|(responder, _)| **responder != target)
            .filter_map(|(responder, seen)| {
                let reported = seen.get(&target).copied()?;
                let d = self.devices.get(responder).filter(|d| d.is_direct())?;
                Some((*responder, d.route.first_hop_quality(), reported))
            })
            .collect();
        candidates.sort_by_key(|(_, ours, theirs)| std::cmp::Reverse(*ours as u32 + *theirs as u32));
        candidates.into_iter()
    }

    /// The quality `responder` last reported for `neighbor`, if any.
    pub fn reported_quality(&self, responder: DeviceAddress, neighbor: DeviceAddress) -> Option<u8> {
        self.reported_neighbors
            .get(&responder)
            .and_then(|m| m.get(&neighbor))
            .copied()
    }

    /// Clears every entry (used when the daemon restarts). Reputation
    /// penalties are in-memory state and die with the restart too; the
    /// armed/disarmed limit is configuration and survives.
    pub fn clear(&mut self) {
        self.generation += 1;
        self.devices.clear();
        self.reported_neighbors.clear();
        self.reputation.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NodeId, RadioTech};

    fn addr(n: u64) -> DeviceAddress {
        DeviceAddress::from_node_raw(n)
    }

    fn info(n: u64, mobility: MobilityClass) -> DeviceInfo {
        DeviceInfo::new(
            NodeId::from_raw(n),
            format!("dev{n}"),
            mobility,
            &[RadioTech::Bluetooth],
        )
    }

    fn record(n: u64, jumps: u8, quality: u8, services: Vec<ServiceInfo>) -> NeighborRecord {
        NeighborRecord {
            info: info(n, MobilityClass::Dynamic),
            jumps,
            hop_qualities: vec![quality; jumps as usize + 1],
            services: services.into(),
        }
    }

    fn storage() -> DeviceStorage {
        DeviceStorage::new(addr(0), 230)
    }

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn upsert_direct_inserts_and_refreshes() {
        let mut s = storage();
        s.upsert_direct(
            info(1, MobilityClass::Static),
            250,
            vec![ServiceInfo::new("echo", "", 1)],
            T0,
        );
        assert_eq!(s.len(), 1);
        let d = s.get(addr(1)).unwrap();
        assert!(d.is_direct());
        assert_eq!(d.route.first_hop_quality(), 250);
        assert!(d.offers("echo"));

        // Refresh with a new quality and services.
        s.upsert_direct(info(1, MobilityClass::Static), 200, vec![], SimTime::from_secs(5));
        let d = s.get(addr(1)).unwrap();
        assert_eq!(d.route.first_hop_quality(), 200);
        assert!(d.services.is_empty());
        assert_eq!(d.last_fetched, SimTime::from_secs(5));
    }

    #[test]
    fn own_device_is_never_stored() {
        let mut s = storage();
        s.upsert_direct(info(0, MobilityClass::Static), 255, vec![], T0);
        assert!(s.is_empty());
        let n = s.integrate_neighbor_report(
            addr(1),
            240,
            MobilityClass::Static,
            &[record(0, 0, 250, vec![])],
            DiscoveryMode::Dynamic,
            T0,
        );
        assert!(n.is_empty());
        assert!(s.get(addr(0)).is_none());
    }

    #[test]
    fn dynamic_discovery_learns_remote_devices_with_incremented_jumps() {
        let mut s = storage();
        s.upsert_direct(info(1, MobilityClass::Static), 240, vec![], T0);
        // Device 1 reports: device 2 directly (jump 0) and device 3 at one jump.
        let added = s.integrate_neighbor_report(
            addr(1),
            240,
            MobilityClass::Static,
            &[
                record(2, 0, 235, vec![ServiceInfo::new("print", "", 5)]),
                record(3, 1, 231, vec![]),
            ],
            DiscoveryMode::Dynamic,
            T0,
        );
        assert_eq!(added, vec![addr(2), addr(3)]);
        let d2 = s.get(addr(2)).unwrap();
        assert_eq!(d2.route.jumps, 1);
        assert_eq!(d2.route.bridge, Some(addr(1)));
        assert_eq!(d2.route.hop_qualities, vec![240, 235]);
        let d3 = s.get(addr(3)).unwrap();
        assert_eq!(d3.route.jumps, 2);
        assert_eq!(d3.route.bridge, Some(addr(1)));
        // Figure 3.6's table: the storage knows the whole network with
        // routing information.
        assert_eq!(s.stats().known_devices, 3);
        assert_eq!(s.stats().max_jumps, 2);
        assert_eq!(s.stats().known_services, 1);
    }

    #[test]
    fn two_hop_mode_only_learns_responders_direct_neighbors() {
        let mut s = storage();
        s.upsert_direct(info(1, MobilityClass::Static), 240, vec![], T0);
        s.integrate_neighbor_report(
            addr(1),
            240,
            MobilityClass::Static,
            &[
                record(2, 0, 235, vec![]),
                record(3, 1, 231, vec![]),
                record(4, 2, 231, vec![]),
            ],
            DiscoveryMode::TwoHop,
            T0,
        );
        assert!(s.get(addr(2)).is_some());
        assert!(s.get(addr(3)).is_none());
        assert!(s.get(addr(4)).is_none());
    }

    #[test]
    fn reputation_penalties_block_reporters_only_when_armed() {
        let mut s = storage();
        // Unarmed: penalties accrue but never block.
        assert_eq!(s.penalize_reporter(addr(9)), 1);
        assert_eq!(s.penalize_reporter(addr(9)), 2);
        assert_eq!(s.reporter_penalty(addr(9)), 2);
        assert!(!s.reporter_blocked(addr(9)), "unarmed defence blocks nobody");
        // Armed: one more penalty crosses REPORTER_PENALTY_LIMIT.
        s.set_reputation(true);
        assert!(!s.reporter_blocked(addr(9)));
        s.penalize_reporter(addr(9));
        assert!(s.reporter_blocked(addr(9)));
        assert!(!s.reporter_blocked(addr(10)), "other peers unaffected");
        // A daemon restart wipes the in-memory penalties but stays armed.
        s.clear();
        assert_eq!(s.reporter_penalty(addr(9)), 0);
        assert!(!s.reporter_blocked(addr(9)));
    }

    #[test]
    fn direct_only_mode_ignores_reports() {
        let mut s = storage();
        s.upsert_direct(info(1, MobilityClass::Static), 240, vec![], T0);
        s.integrate_neighbor_report(
            addr(1),
            240,
            MobilityClass::Static,
            &[record(2, 0, 235, vec![])],
            DiscoveryMode::DirectOnly,
            T0,
        );
        assert!(s.get(addr(2)).is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn suspect_neighbour_ages_out_within_one_cycle() {
        // A crashed neighbour (PeerFailed on a live link) is flagged suspect
        // and must disappear after the very next inquiry cycle it stays
        // silent through — not after the full missed-loop tolerance.
        let max_missed = 5;
        let mut s = storage();
        s.upsert_direct(info(1, MobilityClass::Static), 240, vec![], T0);
        s.upsert_direct(info(2, MobilityClass::Static), 240, vec![], T0);
        s.mark_suspect(addr(1), max_missed);
        // Marking an unknown device is a no-op.
        s.mark_suspect(addr(9), max_missed);
        let removed = s.age_cycle(
            &[addr(2)],
            SimTime::from_secs(10),
            max_missed,
            SimDuration::from_secs(600),
        );
        assert_eq!(removed, vec![addr(1)], "the suspect must age out in one cycle");
        assert!(s.get(addr(2)).is_some(), "unsuspected neighbours keep their tolerance");
    }

    #[test]
    fn suspect_neighbour_that_answers_again_is_kept() {
        let max_missed = 5;
        let mut s = storage();
        s.upsert_direct(info(1, MobilityClass::Static), 240, vec![], T0);
        s.mark_suspect(addr(1), max_missed);
        // The device answers the next inquiry after all (it was a link
        // glitch, not a crash): the cheap responded path clears the flag.
        s.mark_responded(addr(1), 245, SimTime::from_secs(5));
        let removed = s.age_cycle(
            &[addr(1)],
            SimTime::from_secs(10),
            max_missed,
            SimDuration::from_secs(600),
        );
        assert!(removed.is_empty());
        assert_eq!(s.get(addr(1)).unwrap().missed_loops, 0);
    }

    #[test]
    fn direct_observation_supersedes_indirect_route() {
        let mut s = storage();
        s.upsert_direct(info(1, MobilityClass::Static), 240, vec![], T0);
        s.integrate_neighbor_report(
            addr(1),
            240,
            MobilityClass::Static,
            &[record(2, 0, 235, vec![])],
            DiscoveryMode::Dynamic,
            T0,
        );
        assert_eq!(s.get(addr(2)).unwrap().route.jumps, 1);
        // Now we meet device 2 directly.
        s.upsert_direct(info(2, MobilityClass::Dynamic), 231, vec![], SimTime::from_secs(10));
        let d2 = s.get(addr(2)).unwrap();
        assert!(d2.is_direct());
        assert_eq!(d2.route.bridge, None);
    }

    #[test]
    fn better_routes_replace_worse_ones() {
        let mut s = storage();
        s.upsert_direct(info(1, MobilityClass::Dynamic), 240, vec![], T0);
        s.upsert_direct(info(5, MobilityClass::Static), 245, vec![], T0);
        // First learn target 9 through the dynamic bridge 1.
        s.integrate_neighbor_report(
            addr(1),
            240,
            MobilityClass::Dynamic,
            &[record(9, 0, 250, vec![])],
            DiscoveryMode::Dynamic,
            T0,
        );
        assert_eq!(s.get(addr(9)).unwrap().route.bridge, Some(addr(1)));
        // Then learn the same target through the static bridge 5 with the
        // same jump count: mobility preference replaces the route, but the
        // device is not reported as newly learned.
        let added = s.integrate_neighbor_report(
            addr(5),
            245,
            MobilityClass::Static,
            &[record(9, 0, 240, vec![])],
            DiscoveryMode::Dynamic,
            T0,
        );
        assert!(added.is_empty());
        assert_eq!(s.get(addr(9)).unwrap().route.bridge, Some(addr(5)));
        // A worse candidate (more jumps) does not replace it back.
        let added = s.integrate_neighbor_report(
            addr(1),
            240,
            MobilityClass::Dynamic,
            &[record(9, 3, 255, vec![])],
            DiscoveryMode::Dynamic,
            T0,
        );
        assert!(added.is_empty());
        assert_eq!(s.get(addr(9)).unwrap().route.bridge, Some(addr(5)));
    }

    #[test]
    fn aging_removes_silent_direct_neighbors_after_limit() {
        let mut s = storage();
        s.upsert_direct(info(1, MobilityClass::Static), 240, vec![], T0);
        s.upsert_direct(info(2, MobilityClass::Static), 240, vec![], T0);
        // Device 1 keeps answering, device 2 goes silent.
        for loop_idx in 0..3 {
            let removed = s.age_cycle(
                &[addr(1)],
                SimTime::from_secs(10 * (loop_idx + 1)),
                3,
                SimDuration::from_secs(1000),
            );
            assert!(removed.is_empty(), "removed too early at loop {loop_idx}");
        }
        let removed = s.age_cycle(&[addr(1)], SimTime::from_secs(40), 3, SimDuration::from_secs(1000));
        assert_eq!(removed, vec![addr(2)]);
        assert!(s.get(addr(2)).is_none());
        assert!(s.get(addr(1)).is_some());
    }

    #[test]
    fn aging_cascades_to_routes_through_removed_bridges() {
        let mut s = storage();
        s.upsert_direct(info(1, MobilityClass::Static), 240, vec![], T0);
        s.integrate_neighbor_report(
            addr(1),
            240,
            MobilityClass::Static,
            &[record(2, 0, 235, vec![]), record(3, 1, 232, vec![])],
            DiscoveryMode::Dynamic,
            T0,
        );
        assert_eq!(s.len(), 3);
        // Bridge 1 disappears: after enough missed loops, 2 and 3 (reachable
        // only through it) must disappear too.
        let mut removed_total = Vec::new();
        for i in 0..5 {
            removed_total.extend(s.age_cycle(&[], SimTime::from_secs(10 * (i + 1)), 3, SimDuration::from_secs(10_000)));
        }
        assert!(removed_total.contains(&addr(1)));
        assert!(removed_total.contains(&addr(2)));
        assert!(removed_total.contains(&addr(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn stale_indirect_entries_expire() {
        let mut s = storage();
        s.upsert_direct(info(1, MobilityClass::Static), 240, vec![], T0);
        s.integrate_neighbor_report(
            addr(1),
            240,
            MobilityClass::Static,
            &[record(2, 0, 235, vec![])],
            DiscoveryMode::Dynamic,
            T0,
        );
        // Device 1 keeps responding but never mentions device 2 again; after
        // the stale timeout device 2 is dropped.
        let removed = s.age_cycle(&[addr(1)], SimTime::from_secs(300), 3, SimDuration::from_secs(180));
        assert_eq!(removed, vec![addr(2)]);
        assert!(s.get(addr(1)).is_some());
    }

    #[test]
    fn needs_recheck_honours_interval() {
        let mut s = storage();
        assert!(s.needs_recheck(addr(1), T0, SimDuration::from_secs(60)));
        s.upsert_direct(info(1, MobilityClass::Static), 240, vec![], T0);
        assert!(!s.needs_recheck(addr(1), SimTime::from_secs(30), SimDuration::from_secs(60)));
        assert!(s.needs_recheck(addr(1), SimTime::from_secs(61), SimDuration::from_secs(60)));
    }

    #[test]
    fn mark_responded_refreshes_without_fetch() {
        let mut s = storage();
        s.upsert_direct(info(1, MobilityClass::Static), 240, vec![], T0);
        s.mark_responded(addr(1), 200, SimTime::from_secs(20));
        let d = s.get(addr(1)).unwrap();
        assert_eq!(d.route.first_hop_quality(), 200);
        assert_eq!(d.last_seen, SimTime::from_secs(20));
        assert_eq!(d.last_fetched, T0);
        // Marking an unknown device is a no-op.
        s.mark_responded(addr(9), 100, SimTime::from_secs(20));
        assert!(s.get(addr(9)).is_none());
    }

    #[test]
    fn service_provider_lookup_sorts_by_route_preference() {
        let mut s = storage();
        let svc = |p| vec![ServiceInfo::new("analysis", "", p)];
        s.upsert_direct(info(1, MobilityClass::Dynamic), 240, svc(1), T0);
        s.upsert_direct(info(2, MobilityClass::Static), 235, svc(2), T0);
        s.integrate_neighbor_report(
            addr(2),
            235,
            MobilityClass::Static,
            &[record(3, 0, 255, svc(3))],
            DiscoveryMode::Dynamic,
            T0,
        );
        let providers: Vec<_> = s.service_providers("analysis").collect();
        assert_eq!(providers.len(), 3);
        // Direct routes come first; among them the static device wins; the
        // one-jump provider is last.
        assert_eq!(providers[0].0.info.address, addr(2));
        assert_eq!(providers[1].0.info.address, addr(1));
        assert_eq!(providers[2].0.info.address, addr(3));
        assert!(s.service_providers("nothing").next().is_none());
    }

    #[test]
    fn handover_candidates_come_from_reported_neighbors() {
        let mut s = storage();
        // Two direct neighbours; both claim to see the target (device 9).
        s.upsert_direct(info(1, MobilityClass::Static), 250, vec![], T0);
        s.upsert_direct(info(2, MobilityClass::Static), 231, vec![], T0);
        s.upsert_direct(info(9, MobilityClass::Static), 238, vec![], T0);
        s.integrate_neighbor_report(
            addr(1),
            250,
            MobilityClass::Static,
            &[record(9, 0, 252, vec![])],
            DiscoveryMode::Dynamic,
            T0,
        );
        s.integrate_neighbor_report(
            addr(2),
            231,
            MobilityClass::Static,
            &[record(9, 0, 249, vec![])],
            DiscoveryMode::Dynamic,
            T0,
        );
        let candidates: Vec<_> = s.handover_candidates_iter(addr(9)).collect();
        assert_eq!(candidates.len(), 2);
        // Device 1 has the better combined quality and is listed first.
        assert_eq!(candidates[0].0, addr(1));
        assert_eq!(candidates[0].1, 250);
        assert_eq!(candidates[0].2, 252);
        assert_eq!(candidates[1].0, addr(2));
        assert_eq!(s.reported_quality(addr(1), addr(9)), Some(252));
        assert_eq!(s.reported_quality(addr(9), addr(1)), None);
        // The target itself is never its own handover candidate.
        assert!(candidates.iter().all(|(a, _, _)| *a != addr(9)));
    }

    #[test]
    fn remove_and_clear() {
        let mut s = storage();
        s.upsert_direct(info(1, MobilityClass::Static), 240, vec![], T0);
        assert!(s.remove(addr(1)).is_some());
        assert!(s.remove(addr(1)).is_none());
        s.upsert_direct(info(2, MobilityClass::Static), 240, vec![], T0);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.own_address(), addr(0));
    }
}
