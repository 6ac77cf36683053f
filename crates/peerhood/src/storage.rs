//! The device storage: PeerHood's view of its environment.
//!
//! `CDeviceStorage` in the original implementation stores every known remote
//! device together with its services. The thesis turns it into an ad-hoc
//! routing table by adding the bridge address and jump count (§3.3), plus the
//! link-quality and mobility parameters used for best-route selection. The
//! storage also remembers *who reported seeing whom* — exactly the
//! information the routing-handover controller walks in state 0 ("find
//! connected device from neighbours of each DeviceList element", Fig. 5.5).
//!
//! The table lives on a handheld and grows with the neighbourhood, so a known
//! device costs one cache line: a 64-byte `Row` in a dense slab, in no
//! particular order, with everything a fleet's devices have in common — name,
//! technology list, service list — behind one shared `Description` pointer.
//! Beside the slab sits the one order, two columns sorted by address: `keys`,
//! which every search walks at an eight-byte stride, and the `slots` the keys
//! stand for. Every ordered walk — the export, aging, the provider ranking's
//! tie-break, the order devices are announced found or lost in — is the index
//! in order; an insert moves keys and appends a row, an erase fills the hole
//! with the last row. Exporters walk their index, so a neighbour report
//! arrives in address order and is *merged*: each record is looked for a few
//! keys past where the previous one was found.
//!
//! Rows never leave this module. What is hot reads them in place; everything
//! else is handed a [`StoredDevice`], the owned value built from a row.
//!
//! Of a reporter the storage keeps only what it claimed, and erases that
//! with the reporter's row. What trusting a peer has cost — its reputation
//! penalties — lives with the other defences in the
//! [peer table](crate::security::PeerTable).

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use simnet::table::IdTable;
use simnet::{RadioTech, SimDuration, SimTime};

use crate::config::DiscoveryMode;
use crate::device::{DeviceInfo, MobilityClass};
use crate::ids::{Checksum, DeviceAddress};
use crate::proto::NeighborRecord;
use crate::quality::{route_acceptable, route_quality_sum};
use crate::route::{HopQualities, RouteInfo};
use crate::service::ServiceInfo;
use crate::wire;

/// One entry of the device storage, as the storage hands it out: an owned
/// value, built from the stored row on request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredDevice {
    /// The device's advertised parameters.
    pub info: DeviceInfo,
    /// Best known route to the device.
    pub route: RouteInfo,
    /// Services the device offers. Shared with the [`NeighborRecord`]s the
    /// list arrived in (and leaves through): cloning an entry or exporting
    /// the neighbourhood bumps a reference count instead of copying strings.
    pub services: Arc<[ServiceInfo]>,
    /// Last time the entry was confirmed (directly or via a neighbour
    /// report).
    pub last_seen: SimTime,
    /// Last time the full information was fetched over a daemon connection;
    /// used to honour the service-checking interval of §3.5.
    pub last_fetched: SimTime,
    /// Consecutive inquiry loops a *direct* neighbour has missed.
    pub missed_loops: u32,
    /// A dial to the device was refused as out of range, or a link to it
    /// broke with it out of range, since it was last heard: the radio has
    /// lost it. See [`DeviceStorage::mark_absent`].
    pub absent: bool,
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

/// What the devices of one fleet have in common. A row holds one pointer to
/// it: a record that describes itself the way its responder's row does shares
/// the responder's, so a storage of hundreds of rows built from one
/// configuration holds a handful.
#[derive(Debug, PartialEq)]
struct Description {
    name: Arc<str>,
    techs: Arc<[RadioTech]>,
    services: Arc<[ServiceInfo]>,
}

impl Description {
    /// The description made of these three lists: `like` itself when it
    /// reads the same, a new one otherwise.
    fn of(
        name: Arc<str>,
        techs: Arc<[RadioTech]>,
        services: Arc<[ServiceInfo]>,
        like: Option<&Arc<Description>>,
    ) -> Arc<Description> {
        let made = Description { name, techs, services };
        match like {
            Some(like) if **like == made => like.clone(),
            _ => Arc::new(made),
        }
    }
}

/// One known device as the table holds it: a [`StoredDevice`] with its route
/// flattened in and its three shared lists behind one pointer. 64 bytes, and
/// the tests hold it there.
#[derive(Debug, Clone)]
struct Row {
    last_seen: SimTime,
    last_fetched: SimTime,
    description: Arc<Description>,
    /// The route's hop qualities, nearest hop first.
    hops: HopQualities,
    checksum: Checksum,
    /// Saturates: a row is erased long before 65 535 missed loops.
    missed_loops: u16,
    /// [`StoredDevice::absent`]. A row bridged through an absent device is
    /// not offered either; the bridge's row is read for that where it is
    /// asked, not copied here.
    absent: bool,
    address: DeviceAddress,
    /// The route's gateway neighbour; `None` exactly when `jumps` is 0.
    bridge: Option<DeviceAddress>,
    jumps: u8,
    mobility: MobilityClass,
    /// Mobility of the nearest device on the route.
    nearest_mobility: MobilityClass,
}

impl Row {
    fn is_direct(&self) -> bool {
        self.jumps == 0
    }

    fn quality_sum(&self) -> u32 {
        route_quality_sum(&self.hops)
    }

    /// The `candidate_replaces` comparison chain of Fig. 3.13 against the
    /// route `[first] ++ rest`, evaluated without building it: jumps, then
    /// nearest mobility, then the Fig. 3.9 quality rule.
    fn beaten_by(&self, jumps: u8, nearest_mobility: MobilityClass, first: u8, rest: &[u8], threshold: u8) -> bool {
        if jumps != self.jumps {
            return jumps < self.jumps;
        }
        if nearest_mobility.value() != self.nearest_mobility.value() {
            return nearest_mobility.value() < self.nearest_mobility.value();
        }
        let candidate_ok = first >= threshold && rest.iter().all(|&q| q >= threshold);
        match (candidate_ok, route_acceptable(&self.hops, threshold)) {
            (true, false) => true,
            (false, _) => false,
            (true, true) => first as u32 + route_quality_sum(rest) > self.quality_sum(),
        }
    }

    /// A direct neighbour answered at `quality`: refreshes the hop it is
    /// reached over. Returns whether that changed anything exported.
    fn heard_at(&mut self, quality: u8, now: SimTime) -> bool {
        self.last_seen = now;
        self.missed_loops = 0;
        self.absent = false;
        let changed = self.is_direct() && *self.hops != [quality];
        if changed {
            self.hops = HopQualities::prefixed(quality, &[]);
        }
        changed
    }

    fn as_exported(&self) -> wire::NeighborRef<'_> {
        wire::NeighborRef {
            address: self.address,
            name: &self.description.name,
            mobility: self.mobility,
            checksum: self.checksum,
            techs: &self.description.techs,
            jumps: self.jumps,
            hop_qualities: &self.hops,
            services: &self.description.services,
        }
    }
}

impl From<&Row> for StoredDevice {
    fn from(row: &Row) -> Self {
        StoredDevice {
            info: DeviceInfo {
                address: row.address,
                name: row.description.name.clone(),
                mobility: row.mobility,
                checksum: row.checksum,
                techs: row.description.techs.clone(),
            },
            route: RouteInfo {
                jumps: row.jumps,
                bridge: row.bridge,
                hop_qualities: row.hops.clone(),
                nearest_mobility: row.nearest_mobility,
            },
            services: row.description.services.clone(),
            last_seen: row.last_seen,
            last_fetched: row.last_fetched,
            missed_loops: u32::from(row.missed_loops),
            absent: row.absent,
        }
    }
}

/// One neighbour record as [`DeviceStorage::integrate`] reads it: the owned
/// [`NeighborRecord`] of a decoded [`Message`](crate::proto::Message) or the
/// [`wire::NeighborView`] of a frame read in place. Everything that
/// allocates is a method the routine calls only for an entry it inserts or
/// changes; `like` is the responder's own stored description, shared where
/// equal.
trait ReportRecord {
    fn address(&self) -> DeviceAddress;
    fn mobility(&self) -> MobilityClass;
    fn checksum(&self) -> Checksum;
    fn jumps(&self) -> u8;
    fn hop_qualities(&self) -> &[u8];
    fn description(&self, like: Option<&Arc<Description>>) -> Arc<Description>;
    /// The advertised services whose name `known` does not list yet.
    fn services_unknown_to(&self, known: &[ServiceInfo]) -> Vec<ServiceInfo>;
}

impl ReportRecord for &NeighborRecord {
    fn address(&self) -> DeviceAddress {
        self.info.address
    }
    fn mobility(&self) -> MobilityClass {
        self.info.mobility
    }
    fn checksum(&self) -> Checksum {
        self.info.checksum
    }
    fn jumps(&self) -> u8 {
        self.jumps
    }
    fn hop_qualities(&self) -> &[u8] {
        &self.hop_qualities
    }
    // An owned record already holds its lists behind `Arc`s.
    fn description(&self, like: Option<&Arc<Description>>) -> Arc<Description> {
        let info = &self.info;
        Description::of(info.name.clone(), info.techs.clone(), self.services.clone(), like)
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
    fn mobility(&self) -> MobilityClass {
        self.info.mobility
    }
    fn checksum(&self) -> Checksum {
        self.info.checksum
    }
    fn jumps(&self) -> u8 {
        self.jumps
    }
    fn hop_qualities(&self) -> &[u8] {
        self.hop_qualities
    }
    // Each list is `like`'s where it reads the same, and so is the whole
    // when all three do.
    fn description(&self, like: Option<&Arc<Description>>) -> Arc<Description> {
        Description::of(
            self.info.shared_name(like.map(|l| &l.name)),
            self.info.shared_techs(like.map(|l| &l.techs)),
            self.services.to_shared(like.map(|l| &l.services)),
            like,
        )
    }
    fn services_unknown_to(&self, known: &[ServiceInfo]) -> Vec<ServiceInfo> {
        let unknown = |name: &str| !known.iter().any(|k| k.name == name);
        let fresh = self.services.clone().filter(|s| unknown(s.name));
        fresh.map(|s| s.to_info()).collect()
    }
}

/// An address as a sort key: its six bytes read big-endian, so keys order
/// exactly as [`DeviceAddress`]es do.
fn key(address: DeviceAddress) -> u64 {
    let o = address.octets();
    u64::from_be_bytes([0, 0, o[0], o[1], o[2], o[3], o[4], o[5]])
}

/// A reporter's claim to reach the device with key `key` directly, at
/// `quality`: one word that sorts by the key (a key is 48 bits wide).
fn claim(key: u64, quality: u8) -> u64 {
    key << 8 | u64::from(quality)
}

/// The key of the device a [`claim`] is about.
fn claimed(claim: &u64) -> u64 {
    claim >> 8
}

/// A full table column or claim list grows by its length over this divisor
/// (a quarter)...
const GROWTH_DIVISOR: usize = 4;
/// ...and by at least this many entries.
const MIN_GROWTH: usize = 4;

/// The capacity a table column or claim list of `len` entries grows (or
/// gives memory back) to: `len` and room for a quarter more. Doubling would
/// leave up to half of what a storage of hundreds of rows reserves empty.
fn headroom(len: usize) -> usize {
    len + (len / GROWTH_DIVISOR).max(MIN_GROWTH)
}

/// Makes room for one more entry and the `more` that may follow it: a full
/// vector grows to [`headroom`], or to room for all of them if that is more.
fn reserve_one<T>(entries: &mut Vec<T>, more: usize) {
    let len = entries.len();
    if len == entries.capacity() {
        entries.reserve_exact((headroom(len) - len).max(1 + more));
    }
}

/// Where `key` is in a list sorted by `key_of`, or where it would be
/// inserted.
fn find<T>(sorted: &[T], key: u64, key_of: impl Fn(&T) -> u64) -> Result<usize, usize> {
    sorted.binary_search_by_key(&key, key_of)
}

/// Where the records of one report are in a key-sorted list. While the keys
/// asked for ascend, each is searched for by galloping — 1, 2, 4, … entries
/// ahead — from the place of the previous one; a key that does not ascend
/// gets a binary search of the whole list. Either way the answer is
/// [`find`]'s, so an unsorted or repeating report changes the cost and
/// nothing else. Between two calls the caller may insert the key just asked
/// for at the place returned, and must not change the list otherwise.
#[derive(Default)]
struct MergeCursor {
    /// The previous key and its place; every entry before it is smaller.
    last: Option<(u64, usize)>,
}

impl MergeCursor {
    fn find<T>(&mut self, sorted: &[T], key: u64, key_of: impl Fn(&T) -> u64) -> Result<usize, usize> {
        let found = match self.last {
            Some((last, from)) if last < key => {
                let tail = &sorted[from..];
                let (mut lo, mut step) = (0, 1);
                while lo + step <= tail.len() && key_of(&tail[lo + step - 1]) < key {
                    lo += step;
                    step *= 2;
                }
                let hi = (lo + step).min(tail.len());
                let offset = |i| from + lo + i;
                find(&tail[lo..hi], key, key_of).map(offset).map_err(offset)
            }
            _ => find(sorted, key, key_of),
        };
        let (Ok(at) | Err(at)) = found;
        self.last = Some((key, at));
        found
    }
}

/// The rows and their one order. Rows sit dense in `rows` in no particular
/// order; `keys` holds `key(address)` of every row, sorted, and `slots[i]` is
/// where in `rows` the row of `keys[i]` is. The three grow together, to
/// [`headroom`].
#[derive(Debug, Clone, Default)]
struct Table {
    rows: Vec<Row>,
    keys: Vec<u64>,
    slots: Vec<u32>,
}

impl Table {
    fn place_of(&self, address: DeviceAddress) -> Result<usize, usize> {
        find(&self.keys, key(address), |k| *k)
    }

    fn get(&self, address: DeviceAddress) -> Option<&Row> {
        let at = self.place_of(address).ok()?;
        Some(&self.rows[self.slots[at] as usize])
    }

    fn get_mut(&mut self, address: DeviceAddress) -> Option<&mut Row> {
        let at = self.place_of(address).ok()?;
        Some(self.at_mut(at))
    }

    /// The row whose key is at `at` in the index.
    fn at_mut(&mut self, at: usize) -> &mut Row {
        &mut self.rows[self.slots[at] as usize]
    }

    /// The rows in address order.
    fn iter(&self) -> impl Iterator<Item = &Row> + '_ {
        self.slots.iter().map(|&slot| &self.rows[slot as usize])
    }

    /// Adds a row whose key belongs at `at` in the index, while up to `more`
    /// rows may follow it: a report that fills the table grows it once.
    fn insert_at(&mut self, at: usize, row: Row, more: usize) {
        let slot = u32::try_from(self.rows.len()).expect("a table of 2^32 rows does not fit in memory");
        reserve_one(&mut self.keys, more);
        reserve_one(&mut self.slots, more);
        reserve_one(&mut self.rows, more);
        self.keys.insert(at, key(row.address));
        self.slots.insert(at, slot);
        self.rows.push(row);
    }

    /// Takes a row out; the last row fills its slot.
    fn remove(&mut self, address: DeviceAddress) {
        let Ok(at) = self.place_of(address) else { return };
        self.keys.remove(at);
        let slot = self.slots.remove(at);
        self.rows.swap_remove(slot as usize);
        if let Some(moved) = self.rows.get(slot as usize) {
            let at = self.place_of(moved.address).expect("every row is indexed");
            self.slots[at] = slot;
        }
    }

    /// Gives memory back once three quarters of it stand empty, down to the
    /// [`headroom`] a growing table keeps: a table that crossed a dense
    /// district does not carry its peak for the rest of the run, and one
    /// hovering around a size does not reallocate on every cycle.
    fn give_back(&mut self) {
        if self.rows.len() < self.rows.capacity() / 4 {
            self.trim();
        }
    }

    /// Shrinks the columns to [`headroom`], so a table grown for records a
    /// report then turned out to know, or one aging emptied, holds no more
    /// room than one grown row by row.
    fn trim(&mut self) {
        let room = headroom(self.rows.len());
        self.rows.shrink_to(room);
        self.keys.shrink_to(room);
        self.slots.shrink_to(room);
    }
}

/// The quality a reporter whose claims are `claims` last claimed to reach
/// `target` at.
fn claimed_quality(claims: &[u64], target: DeviceAddress) -> Option<u8> {
    let at = find(claims, key(target), claimed).ok()?;
    Some(claims[at] as u8) // the claim's low byte
}

/// PeerHood's per-device environment knowledge.
#[derive(Debug, Clone)]
pub struct DeviceStorage {
    own_address: DeviceAddress,
    quality_threshold: u8,
    /// The owner is not static: every stale direct row ranks last.
    mobile_owner: bool,
    /// Boxed: three vector headers inline would push the host that embeds
    /// the storage past the allocator's last small size class.
    devices: Box<Table>,
    /// What each device that has filed a neighbour report since its row was
    /// last erased claimed: a [`claim`] for every device it reported as its
    /// own direct neighbour, sorted (by key, that is), grown to
    /// [`headroom`]. Erased with the reporter's row.
    claims: IdTable<DeviceAddress, Vec<u64>>,
    /// Bumped on every mutation; lets callers (the node's cached inquiry
    /// response frame) detect staleness without diffing contents.
    generation: u64,
    /// Bumped whenever an absent mark is set or cleared; see
    /// [`DeviceStorage::presence_generation`].
    presence_generation: u64,
}

impl DeviceStorage {
    /// Creates an empty storage for the static device with the given
    /// address.
    pub fn new(own_address: DeviceAddress, quality_threshold: u8) -> Self {
        DeviceStorage {
            own_address,
            quality_threshold,
            mobile_owner: false,
            devices: Box::default(),
            claims: IdTable::default(),
            generation: 0,
            presence_generation: 0,
        }
    }

    /// The storage of an owner of `mobility`. A non-static owner ranks every
    /// direct row that missed the last inquiry loop after the rows that
    /// answered it (see [`DeviceStorage::best_service_provider`]).
    pub fn with_owner_mobility(mut self, mobility: MobilityClass) -> Self {
        self.mobile_owner = mobility != MobilityClass::Static;
        self
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

    /// Bumped whenever an absent mark is set or cleared. The export carries
    /// no mark, so [`DeviceStorage::generation`] does not move with them and
    /// the cached inquiry-response frame stays warm; what ranks by the marks
    /// — the handover candidates — keys on both counters.
    pub(crate) fn presence_generation(&self) -> u64 {
        self.presence_generation
    }

    /// Number of known remote devices.
    pub fn len(&self) -> usize {
        self.devices.rows.len()
    }

    /// True if no remote device is known.
    pub fn is_empty(&self) -> bool {
        self.devices.rows.is_empty()
    }

    /// True if the device is known.
    pub fn contains(&self, address: DeviceAddress) -> bool {
        self.devices.place_of(address).is_ok()
    }

    /// What is known about a device, by address.
    pub fn get(&self, address: DeviceAddress) -> Option<StoredDevice> {
        self.devices.get(address).map(StoredDevice::from)
    }

    /// All known devices in address order.
    pub fn devices(&self) -> impl Iterator<Item = StoredDevice> + '_ {
        self.devices.iter().map(StoredDevice::from)
    }

    /// The rows within `max_jumps`, in address order, as the inquiry
    /// response exports them: read in place.
    pub(crate) fn exported(&self, max_jumps: u8) -> impl Iterator<Item = wire::NeighborRef<'_>> {
        let near = self.devices.iter().filter(move |row| row.jumps <= max_jumps);
        near.map(Row::as_exported)
    }

    /// True when both devices are known and their rows hold one description
    /// — the same one, not merely equal ones.
    pub fn shares_description(&self, a: DeviceAddress, b: DeviceAddress) -> bool {
        match (self.devices.get(a), self.devices.get(b)) {
            (Some(a), Some(b)) => Arc::ptr_eq(&a.description, &b.description),
            _ => false,
        }
    }

    /// Erases a device and what it claimed.
    fn erase(&mut self, address: DeviceAddress) {
        self.claims.remove(&address);
        self.devices.remove(address);
    }

    /// A dial to `address` was refused as out of range, or a link to it
    /// broke with it out of range: the radio has lost the device. Its row,
    /// and every row bridged through it, drops out of
    /// [`DeviceStorage::best_service_provider`] and
    /// [`DeviceStorage::handover_candidates_iter`] until the device is heard
    /// again: an inquiry hit ([`DeviceStorage::note_inquiry_hit`]) or a
    /// fetch ([`DeviceStorage::upsert_direct`]). The row, its claims and
    /// its routes stay. A neighbour that still reports the device does not
    /// clear the mark: only the device itself answering does. Exports do
    /// not carry the mark, so [`DeviceStorage::generation`] does not move.
    pub fn mark_absent(&mut self, address: DeviceAddress) {
        if let Some(row) = self.devices.get_mut(address) {
            if !row.absent {
                row.absent = true;
                self.presence_generation += 1;
            }
        }
    }

    /// The route's bridge is stored and marked absent.
    fn bridge_absent(&self, row: &Row) -> bool {
        let bridge = row.bridge.and_then(|bridge| self.devices.get(bridge));
        bridge.is_some_and(|bridge| bridge.absent)
    }

    /// The provider-selection rank of a row, with the address last: fresh
    /// before stale, then fewer jumps, then the nearest hop's mobility, then
    /// the higher quality sum. A direct row that missed the latest inquiry
    /// loop is *stale* when one end is non-static — the owner (see
    /// [`DeviceStorage::with_owner_mobility`]) or the device: it ranks after
    /// every row that answered the loop. Between two static devices a missed
    /// loop is noise, and the rank is the route's alone. Addresses are
    /// unique, so no two rows rank alike, and ordering by the key is the
    /// stable sort of address-ordered rows by the rest.
    fn provider_rank(&self, row: &Row) -> (bool, u8, u8, std::cmp::Reverse<u32>, DeviceAddress) {
        let moving = self.mobile_owner || row.mobility != MobilityClass::Static;
        let stale = moving && row.is_direct() && row.missed_loops > 0;
        let quality = std::cmp::Reverse(row.quality_sum());
        (stale, row.jumps, row.nearest_mobility.value(), quality, row.address)
    }

    /// The best-ranked offered device (see [`DeviceStorage::mark_absent`])
    /// other than `except` that offers a service called `name`, with that
    /// service, found in one allocation-free pass that keeps the strict
    /// minimum of the rank. A row's bridge is looked up only when the row
    /// would become the best so far, so a pass over rows in no particular
    /// order makes O(log n) lookups, expected.
    pub fn best_service_provider(
        &self,
        name: &str,
        except: Option<DeviceAddress>,
    ) -> Option<(DeviceAddress, &ServiceInfo)> {
        let mut best = None;
        self.each_provider(name, |d, s| {
            if Some(d.address) == except {
                return;
            }
            let rank = self.provider_rank(d);
            if best.as_ref().is_none_or(|(b, _)| rank < *b) && !self.bridge_absent(d) {
                best = Some((rank, s));
            }
        });
        best.map(|((.., address), s)| (address, s))
    }

    /// Every device not itself marked absent offering a service called
    /// `name`, with that service, in the rows' slab order: the ranking
    /// orders them itself, so the walk reads the rows where they lie instead
    /// of through the index. A fleet's rows share one description, so the
    /// name is searched for once per run of rows holding the same one.
    fn each_provider<'a>(&'a self, name: &str, mut visit: impl FnMut(&'a Row, &'a ServiceInfo)) {
        let mut previous: Option<(&Arc<Description>, Option<&ServiceInfo>)> = None;
        for d in self.devices.rows.iter().filter(|d| !d.absent) {
            let offered = match previous {
                Some((described, offered)) if Arc::ptr_eq(described, &d.description) => offered,
                _ => d.description.services.iter().find(|s| s.name == name),
            };
            previous = Some((&d.description, offered));
            if let Some(s) = offered {
                visit(d, s);
            }
        }
    }

    /// Storage statistics.
    pub fn stats(&self) -> StorageStats {
        let mut stats = StorageStats {
            known_devices: self.len(),
            ..StorageStats::default()
        };
        for d in &self.devices.rows {
            stats.direct_neighbors += usize::from(d.is_direct());
            stats.max_jumps = stats.max_jumps.max(d.jumps);
            stats.known_services += d.description.services.len();
        }
        stats
    }

    /// Records or refreshes a **direct** neighbour observed by an inquiry and
    /// information fetch. Returns `true` when the device was not known
    /// before.
    pub fn upsert_direct(
        &mut self,
        info: DeviceInfo,
        quality: u8,
        services: impl Into<Arc<[ServiceInfo]>>,
        now: SimTime,
    ) -> bool {
        let seen = NeighborRecord {
            info,
            jumps: 0,
            hop_qualities: Vec::new(),
            services: services.into(),
        };
        self.observe(&seen, quality, now)
    }

    /// Lands a neighbour report — read in place, see
    /// [`wire::InquiryResponseView`] — from a device heard at `quality`
    /// during the last inquiry: stores the responder as a direct neighbour
    /// and, when `trust_gossip`, integrates its exported neighbourhood
    /// (Fig. 3.13). Hands each newly learned address to `found` as it is
    /// learned (the responder first when it was unknown); the node turns
    /// them straight into found events.
    ///
    /// The quality used for route comparison is de-rated by the advertised
    /// bridge load — a fully loaded bridge loses half of its quality — so
    /// that loaded bridges are avoided (§4's "bottle neck" mitigation).
    pub fn integrate_report_into(
        &mut self,
        report: &wire::InquiryResponseView<'_>,
        trust_gossip: bool,
        quality: u8,
        mode: DiscoveryMode,
        now: SimTime,
        found: &mut impl Extend<DeviceAddress>,
    ) {
        let (load, q) = (u32::from(report.bridge_load_percent.min(100)), u32::from(quality));
        let quality = (q - q * load / 200) as u8;
        let (device, address) = (report.device, report.device.address);
        if self.upsert_direct_view(device, report.services.clone(), quality, now) {
            found.extend([address]);
        }
        let neighbors = if trust_gossip {
            report.neighbors.clone()
        } else {
            wire::Neighbors::default()
        };
        self.integrate(address, quality, device.mobility, neighbors, mode, now, found);
    }

    /// [`DeviceStorage::upsert_direct`] for a device read in place from the
    /// response it sent: the node's own path. A neighbour that describes
    /// itself as stored — or, on first contact, as its fleet does —
    /// allocates nothing here.
    fn upsert_direct_view(
        &mut self,
        device: wire::DeviceView<'_>,
        services: wire::Services<'_>,
        quality: u8,
        now: SimTime,
    ) -> bool {
        let seen = wire::NeighborView {
            info: device,
            jumps: 0,
            hop_qualities: &[],
            services,
        };
        self.observe(seen, quality, now)
    }

    /// A device heard directly at `quality`, describing itself as `seen`
    /// does (the record's route is not read: the route is the one hop).
    fn observe<R: ReportRecord>(&mut self, seen: R, quality: u8, now: SimTime) -> bool {
        let (address, mobility) = (seen.address(), seen.mobility());
        if address == self.own_address {
            return false;
        }
        self.generation += 1;
        let threshold = self.quality_threshold;
        let direct = |description, nearest_mobility| Row {
            last_seen: now,
            last_fetched: now,
            description,
            hops: HopQualities::prefixed(quality, &[]),
            checksum: seen.checksum(),
            missed_loops: 0,
            absent: false,
            address,
            bridge: None,
            jumps: 0,
            mobility,
            nearest_mobility,
        };
        match self.devices.place_of(address) {
            Ok(at) => {
                let existing = self.devices.at_mut(at);
                // A direct observation always supersedes an indirect route
                // and refreshes a direct one, which stays ranked by the
                // mobility it had unless the observation outranks it.
                let nearest_mobility = if existing.beaten_by(0, mobility, quality, &[], threshold) {
                    mobility
                } else {
                    existing.nearest_mobility
                };
                // A neighbour that still describes itself as stored keeps
                // the stored description.
                let description = seen.description(Some(&existing.description));
                let was_absent = existing.absent;
                *existing = direct(description, nearest_mobility);
                self.presence_generation += u64::from(was_absent);
                false
            }
            Err(at) => {
                // A first contact has no row to agree with; in a fleet the
                // one next to it in address order will do.
                let beside = self.devices.slots.get(at.saturating_sub(1));
                let held = beside.map(|&slot| &self.devices.rows[slot as usize].description);
                let description = seen.description(held);
                self.devices.insert_at(at, direct(description, mobility), 0);
                true
            }
        }
    }

    /// Processes one inquiry hit in a single lookup: when the device is
    /// unknown, or its full information is older than the service-checking
    /// `interval`, returns `true` and the caller starts a full fetch.
    /// Otherwise the device answered the current inquiry loop and needs no
    /// fetch (the cheap path of Fig. 3.12): `last_seen`, the missed-loop
    /// count, the absent mark and a direct row's hop quality are refreshed,
    /// and it returns `false`. `last_seen`, `missed_loops` and the mark are
    /// invisible to the exports, so the generation only moves when the
    /// exported hop quality changes, which keeps the encode-once
    /// inquiry-response cache warm across steady cycles.
    pub fn note_inquiry_hit(
        &mut self,
        address: DeviceAddress,
        quality: u8,
        now: SimTime,
        interval: SimDuration,
    ) -> bool {
        match self.devices.get_mut(address) {
            None => true,
            Some(entry) => {
                if now.saturating_since(entry.last_fetched) >= interval {
                    return true;
                }
                self.presence_generation += u64::from(entry.absent);
                self.generation += u64::from(entry.heard_at(quality, now));
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
        let mut added = Vec::new();
        let records = records.iter();
        self.integrate(
            responder,
            responder_quality,
            responder_mobility,
            records,
            mode,
            now,
            &mut added,
        );
        added
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
        let mut added = Vec::new();
        self.integrate(
            responder,
            responder_quality,
            responder_mobility,
            records,
            mode,
            now,
            &mut added,
        );
        added
    }

    /// The integration itself; every newly learned address goes to `found`
    /// as it is learned.
    #[allow(clippy::too_many_arguments)]
    fn integrate<R: ReportRecord>(
        &mut self,
        responder: DeviceAddress,
        responder_quality: u8,
        responder_mobility: MobilityClass,
        mut records: impl ExactSizeIterator<Item = R>,
        mode: DiscoveryMode,
        now: SimTime,
        found: &mut impl Extend<DeviceAddress>,
    ) {
        let capacity = self.devices.rows.capacity();
        self.generation += 1;
        // The description the responder's own row holds, for new rows to
        // share: in a fleet built from one configuration every device
        // advertises the same name, technology list and service list, and a
        // storage of hundreds of rows should hold them once. Looked up by
        // the first record that inserts a row.
        let mut like: Option<Option<Arc<Description>>> = None;
        // The responder's reported-neighbour list is looked up (and, for a
        // first report, created) once, by the first record that needs it,
        // with the capacity it had then.
        let mut claims = Some(&mut self.claims);
        let mut reported: Option<(&mut Vec<u64>, usize)> = None;
        // An exporter walks its index, so the records — and with them the
        // direct ones — come in address order: both tables are merged into.
        let (mut in_index, mut in_reported) = (MergeCursor::default(), MergeCursor::default());
        while let Some(record) = records.next() {
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
            // The stored route would be `[responder_quality] ++ hops`; skip
            // one longer than a frame can carry, which the next export of
            // the row would otherwise write with a wrapped count.
            if hops.len() >= usize::from(u8::MAX) {
                continue;
            }
            // Remember that `responder` claims to reach this device directly
            // (used by routing handover, Fig. 5.5 state 0).
            if record.jumps() == 0 {
                let (reported, _) = reported.get_or_insert_with(|| {
                    let claims = claims.take().expect("taken by the first direct record only");
                    let seen = claims.get_or_insert_with(responder, Vec::new);
                    let capacity = seen.capacity();
                    (seen, capacity)
                });
                let claim = claim(key(address), hops.first().copied().unwrap_or(0));
                match in_reported.find(reported, key(address), claimed) {
                    Ok(at) => reported[at] = claim,
                    Err(at) => {
                        reserve_one(reported, records.len());
                        reported.insert(at, claim);
                    }
                }
            }

            // The candidate route is `[responder_quality] ++ record hops`
            // through `responder`. It — like the description — is only
            // materialised when the candidate wins or the device is new.
            match in_index.find(&self.devices.keys, key(address), |k| *k) {
                Err(at) => {
                    let devices = &self.devices;
                    let like = like.get_or_insert_with(|| devices.get(responder).map(|r| r.description.clone()));
                    let row = Row {
                        last_seen: now,
                        last_fetched: now,
                        description: record.description(like.as_ref()),
                        hops: HopQualities::prefixed(responder_quality, hops),
                        checksum: record.checksum(),
                        missed_loops: 0,
                        absent: false,
                        address,
                        bridge: Some(responder),
                        jumps: cand_jumps,
                        mobility: record.mobility(),
                        nearest_mobility: responder_mobility,
                    };
                    self.devices.insert_at(at, row, records.len());
                    found.extend([address]);
                }
                Ok(at) => {
                    let existing = self.devices.at_mut(at);
                    existing.last_seen = now;
                    // Merge any newly advertised services. The description
                    // is shared, so this row gets one of its own only when a
                    // genuinely new service appears — the steady state,
                    // where reports repeat known services, touches nothing.
                    let held = &existing.description;
                    let fresh = record.services_unknown_to(&held.services);
                    if !fresh.is_empty() {
                        existing.description = Arc::new(Description {
                            name: held.name.clone(),
                            techs: held.techs.clone(),
                            services: held.services.iter().cloned().chain(fresh).collect(),
                        });
                    }
                    let threshold = self.quality_threshold;
                    if existing.beaten_by(cand_jumps, responder_mobility, responder_quality, hops, threshold) {
                        existing.hops = HopQualities::prefixed(responder_quality, hops);
                        existing.bridge = Some(responder);
                        existing.jumps = cand_jumps;
                        existing.nearest_mobility = responder_mobility;
                    }
                }
            }
        }
        // A list that grew made room for every record left, and some of them
        // were known or not direct.
        if self.devices.rows.capacity() != capacity {
            self.devices.trim();
        }
        if let Some((reported, capacity)) = reported {
            if reported.capacity() != capacity {
                reported.shrink_to(headroom(reported.len()));
            }
        }
    }

    /// Ages the storage after one inquiry loop: direct neighbours that did
    /// not answer accumulate missed loops and are erased after the limit;
    /// indirect entries are erased when stale or when their bridge has
    /// disappeared (Fig. 3.12's "make older" / "erase stored device").
    /// `responded` is sorted in place, to be searched once per direct row.
    ///
    /// Returns the addresses that were removed.
    pub fn age_cycle(
        &mut self,
        responded: &mut [DeviceAddress],
        now: SimTime,
        max_missed_loops: u32,
        stale_timeout: SimDuration,
    ) -> Vec<DeviceAddress> {
        responded.sort_unstable();
        // Pass 1: age direct neighbours and drop stale indirect entries.
        // Missed-loop counters are invisible to the generation's consumers,
        // so the counter is bumped further down, only when an entry is
        // actually removed.
        let mut removed = Vec::new();
        for &slot in &self.devices.slots {
            let entry = &mut self.devices.rows[slot as usize];
            if entry.is_direct() {
                if responded.binary_search(&entry.address).is_ok() {
                    entry.missed_loops = 0;
                } else {
                    entry.missed_loops = entry.missed_loops.saturating_add(1);
                    if u32::from(entry.missed_loops) > max_missed_loops {
                        removed.push(entry.address);
                    }
                }
            } else if now.saturating_since(entry.last_seen) > stale_timeout {
                removed.push(entry.address);
            }
        }
        for &addr in &removed {
            self.erase(addr);
        }
        // Pass 2 (repeated): drop indirect entries whose bridge is gone.
        // Orphans can only exist when pass 1 just removed something; every
        // other mutation only adds or improves entries. The steady-state
        // cycle with nothing to age skips the scan.
        if removed.is_empty() {
            return removed;
        }
        self.generation += 1;
        loop {
            let bridge_gone = |e: &&Row| e.bridge.is_some_and(|bridge| !self.contains(bridge));
            let orphaned: Vec<DeviceAddress> = self.devices.iter().filter(bridge_gone).map(|e| e.address).collect();
            if orphaned.is_empty() {
                break;
            }
            for addr in orphaned {
                self.erase(addr);
                removed.push(addr);
            }
        }
        self.devices.give_back();
        removed
    }

    /// Flags a device as suspected dead (its node crashed under a live
    /// link): its missed-loop counter jumps straight to the tolerance, so
    /// the next inquiry cycle it stays silent through removes it — i.e. a
    /// crashed neighbour ages out within one discovery cycle instead of
    /// `max_missed_loops` of them. A device that answers an inquiry after
    /// all resets the counter through [`DeviceStorage::note_inquiry_hit`] /
    /// [`DeviceStorage::upsert_direct`] and stays.
    pub fn mark_suspect(&mut self, address: DeviceAddress, max_missed_loops: u32) {
        if let Some(entry) = self.devices.get_mut(address) {
            self.generation += 1;
            let tolerance = u16::try_from(max_missed_loops).unwrap_or(u16::MAX);
            entry.missed_loops = entry.missed_loops.max(tolerance);
        }
    }

    /// Direct neighbours not marked absent that have reported `target` as
    /// *their* direct neighbour, together with the quality they reported —
    /// the candidate bridges for a routing handover towards `target`
    /// (Fig. 5.5 state 0).
    /// Best first (our quality to the bridge + its reported quality to the
    /// target); the ranking needs one internal sort, after which the results
    /// stream without copies. A direct row has no bridge, so its own mark is
    /// all there is to check.
    pub fn handover_candidates_iter(&self, target: DeviceAddress) -> impl Iterator<Item = (DeviceAddress, u8, u8)> {
        // Walk the (much smaller) claims table instead of the whole device
        // storage: a candidate must have filed a neighbour report, and both
        // maps iterate in address order, so the result list is identical to
        // the historical full-storage scan.
        let mut candidates: Vec<(DeviceAddress, u8, u8)> = self
            .claims
            .iter()
            .filter(|(responder, _)| *responder != target)
            .filter_map(|(responder, seen)| {
                let reported = claimed_quality(seen, target)?;
                let d = self.devices.get(responder).filter(|d| d.is_direct() && !d.absent)?;
                Some((responder, d.hops.first().copied().unwrap_or(0), reported))
            })
            .collect();
        candidates.sort_by_key(|(_, ours, theirs)| std::cmp::Reverse(*ours as u32 + *theirs as u32));
        candidates.into_iter()
    }

    /// The quality `responder` last reported for `neighbor`, if any.
    pub fn reported_quality(&self, responder: DeviceAddress, neighbor: DeviceAddress) -> Option<u8> {
        claimed_quality(self.claims.get(&responder)?, neighbor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{candidate_replaces, INLINE_HOPS};
    use simnet::rng::SimRng;
    use simnet::NodeId;
    use std::collections::{BTreeMap, BTreeSet};

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
    fn a_row_is_one_cache_line() {
        assert_eq!(
            std::mem::size_of::<Row>(),
            64,
            "a city node knows hundreds of devices and the table is most of its memory: \
             a field added to the row is paid for by every one of them"
        );
    }

    /// Holds `capacity` at most a quarter (and four entries) above `len`.
    fn within_headroom(capacity: usize, len: usize) -> bool {
        capacity <= len + len / 4 + 4
    }

    #[test]
    fn a_report_grows_a_full_table_once_and_trims_what_its_known_records_left() {
        let report = |devices: std::ops::Range<u64>| -> Vec<NeighborRecord> {
            devices.map(|n| record(n, 1, 240, Vec::new())).collect()
        };
        let mut s = storage();
        let hear = |s: &mut DeviceStorage, records: &[NeighborRecord]| {
            s.integrate_neighbor_report(addr(1), 240, MobilityClass::Static, records, DiscoveryMode::Dynamic, T0)
        };
        // Eight new records: the empty table grows once, to exactly eight.
        assert_eq!(hear(&mut s, &report(10..18)).len(), 8);
        assert_eq!((s.devices.rows.len(), s.devices.rows.capacity()), (8, 8));
        // One new record and twelve known ones on a full table: room for all
        // thirteen is made, and what the known ones did not take goes back.
        assert_eq!(
            hear(&mut s, &report(9..22)),
            vec![addr(9), addr(18), addr(19), addr(20), addr(21)]
        );
        let table = &s.devices;
        for capacity in [table.rows.capacity(), table.keys.capacity(), table.slots.capacity()] {
            assert_eq!(capacity, 13 + 4, "13 rows and the headroom of four");
        }
    }

    #[test]
    fn tables_and_claim_lists_grow_by_a_quarter_and_give_back_to_the_same_room() {
        let mut rng = SimRng::new(0x6E0D);
        let mut s = storage();
        let (mut grew, mut gave_back) = (0, 0);
        let mut now = T0;
        for step in 0..1_500u64 {
            now += SimDuration::from_secs(1);
            // The neighbourhood drifts through the address space: every 100
            // steps its reporters and what they report move on, and the old
            // district ages out.
            let district = step / 100 * 300;
            let before = (
                s.devices.rows.capacity(),
                s.devices.keys.capacity(),
                s.devices.slots.capacity(),
            );
            match rng.range(0u8..10) {
                0..=6 => {
                    let responder = district + 1 + rng.range(0u64..20);
                    s.upsert_direct(info(responder, MobilityClass::Static), 240, Vec::new(), now);
                    let records: Vec<NeighborRecord> = (0..rng.range(1usize..40))
                        .map(|_| record(district + 20 + rng.range(0u64..280), rng.range(0u8..3), 240, Vec::new()))
                        .collect();
                    s.integrate_neighbor_report(
                        addr(responder),
                        240,
                        MobilityClass::Static,
                        &records,
                        DiscoveryMode::Dynamic,
                        now,
                    );
                }
                7 => {
                    // One device is erased by aging: suspected, then silent
                    // through a cycle every other direct neighbour answered.
                    let gone = addr(district + rng.range(0u64..300));
                    s.mark_suspect(gone, 2);
                    let others = s.devices().filter(|d| d.is_direct() && d.info.address != gone);
                    let mut responded: Vec<_> = others.map(|d| d.info.address).collect();
                    s.age_cycle(&mut responded, now, 2, SimDuration::from_secs(20));
                }
                _ => {
                    let mut responded: Vec<DeviceAddress> =
                        (0..5).map(|_| addr(district + 1 + rng.range(0u64..20))).collect();
                    s.age_cycle(&mut responded, now, 2, SimDuration::from_secs(20));
                    let (capacity, len) = (s.devices.rows.capacity(), s.devices.rows.len());
                    assert!(
                        within_headroom(capacity, len) || len >= capacity / 4,
                        "step {step}: three quarters of {capacity} rows stand empty"
                    );
                }
            }
            // A column's capacity changes when it grows and when the table
            // gives memory back; either way it lands within the headroom.
            let table = &s.devices;
            let columns = [
                (before.0, table.rows.capacity(), table.rows.len()),
                (before.1, table.keys.capacity(), table.keys.len()),
                (before.2, table.slots.capacity(), table.slots.len()),
            ];
            for (was, capacity, len) in columns {
                if capacity != was {
                    assert!(within_headroom(capacity, len), "step {step}: {capacity} for {len}");
                    grew += usize::from(capacity > was);
                    gave_back += usize::from(capacity < was);
                }
            }
            // A claim list only grows, or is dropped whole.
            for (reporter, claims) in s.claims.iter() {
                let (capacity, len) = (claims.capacity(), claims.len());
                assert!(
                    within_headroom(capacity, len),
                    "step {step}: {reporter}'s {capacity} for {len}"
                );
            }
        }
        assert!(grew > 100 && gave_back > 10, "{grew} growths, {gave_back} give-backs");
    }

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
        assert_eq!(*d2.route.hop_qualities, [240, 235]);
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

    /// Lands the report a device `from` would send, as the frame the node's
    /// fetch link delivers it in, heard at `quality`.
    fn hear(
        s: &mut DeviceStorage,
        from: DeviceInfo,
        services: Vec<ServiceInfo>,
        neighbors: Vec<NeighborRecord>,
        load: u8,
        quality: u8,
        trust_gossip: bool,
    ) -> Vec<DeviceAddress> {
        let frame = wire::encode(&crate::proto::Message::InquiryResponse {
            device: from,
            services,
            neighbors,
            bridge_load_percent: load,
        });
        let report = wire::view_inquiry_response(&frame).expect("a well-formed report");
        let mut added = Vec::new();
        s.integrate_report_into(&report, trust_gossip, quality, DiscoveryMode::Dynamic, T0, &mut added);
        added
    }

    #[test]
    fn integrate_report_updates_storage() {
        let mut s = storage();
        let responder = info(1, MobilityClass::Static);
        let services = vec![ServiceInfo::new("echo", "", 1)];
        let added = hear(
            &mut s,
            responder.clone(),
            services,
            vec![record(2, 0, 250, vec![])],
            0,
            245,
            true,
        );
        assert_eq!(added, vec![responder.address, addr(2)]);
        assert_eq!(s.stats().known_devices, 2);
        let stored = s.get(responder.address).unwrap();
        assert!(stored.is_direct());
        assert!(stored.offers("echo"));
        assert_eq!(s.get(addr(2)).unwrap().route.jumps, 1);
    }

    #[test]
    fn an_untrusted_reporter_is_stored_but_its_gossip_is_not() {
        let mut s = storage();
        let from = info(1, MobilityClass::Static);
        let added = hear(&mut s, from, vec![], vec![record(2, 0, 250, vec![])], 0, 245, false);
        assert_eq!(added, vec![addr(1)]);
        assert!(s.get(addr(2)).is_none());
    }

    #[test]
    fn quality_derating_by_bridge_load() {
        // At 100 % load (or more, as advertised) the quality drops by half.
        for (quality, load, derated) in [
            (240, 0, 240),
            (240, 100, 120),
            (240, 50, 180),
            (240, 255, 120),
            (0, 100, 0),
        ] {
            let mut s = storage();
            hear(
                &mut s,
                info(1, MobilityClass::Static),
                vec![],
                vec![],
                load,
                quality,
                true,
            );
            let route = s.get(addr(1)).unwrap().route;
            assert_eq!(route.first_hop_quality(), derated, "{quality} at {load} % load");
        }
    }

    #[test]
    fn loaded_bridges_influence_route_choice() {
        let mut s = storage();
        // Two potential bridges report the same target with identical raw
        // quality, but one is fully loaded.
        let target = record(9, 0, 250, vec![]);
        hear(
            &mut s,
            info(1, MobilityClass::Static),
            vec![],
            vec![target.clone()],
            100,
            245,
            true,
        );
        hear(
            &mut s,
            info(2, MobilityClass::Static),
            vec![],
            vec![target],
            0,
            245,
            true,
        );
        let route = s.get(addr(9)).unwrap().route;
        assert_eq!(route.bridge, Some(addr(2)), "the unloaded bridge must win");
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
            &mut [addr(2)],
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
        assert!(!s.note_inquiry_hit(addr(1), 245, SimTime::from_secs(5), SimDuration::from_secs(600)));
        let removed = s.age_cycle(
            &mut [addr(1)],
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
                &mut [addr(1)],
                SimTime::from_secs(10 * (loop_idx + 1)),
                3,
                SimDuration::from_secs(1000),
            );
            assert!(removed.is_empty(), "removed too early at loop {loop_idx}");
        }
        let removed = s.age_cycle(&mut [addr(1)], SimTime::from_secs(40), 3, SimDuration::from_secs(1000));
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
            removed_total.extend(s.age_cycle(
                &mut [],
                SimTime::from_secs(10 * (i + 1)),
                3,
                SimDuration::from_secs(10_000),
            ));
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
        let removed = s.age_cycle(&mut [addr(1)], SimTime::from_secs(300), 3, SimDuration::from_secs(180));
        assert_eq!(removed, vec![addr(2)]);
        assert!(s.get(addr(1)).is_some());
    }

    #[test]
    fn needs_recheck_honours_interval() {
        let mut s = storage();
        let interval = SimDuration::from_secs(60);
        assert!(s.note_inquiry_hit(addr(1), 240, T0, interval));
        assert!(s.get(addr(1)).is_none(), "a hit on an unknown device stores nothing");
        s.upsert_direct(info(1, MobilityClass::Static), 240, vec![], T0);
        assert!(!s.note_inquiry_hit(addr(1), 240, SimTime::from_secs(30), interval));
        assert!(s.note_inquiry_hit(addr(1), 240, SimTime::from_secs(61), interval));
    }

    #[test]
    fn mark_responded_refreshes_without_fetch() {
        let mut s = storage();
        s.upsert_direct(info(1, MobilityClass::Static), 240, vec![], T0);
        assert!(!s.note_inquiry_hit(addr(1), 200, SimTime::from_secs(20), SimDuration::from_secs(60)));
        let d = s.get(addr(1)).unwrap();
        assert_eq!(d.route.first_hop_quality(), 200);
        assert_eq!(d.last_seen, SimTime::from_secs(20));
        assert_eq!(d.last_fetched, T0);
    }

    impl DeviceStorage {
        /// Every offered provider of `name` with that service, best first:
        /// the whole ranking, sorted, that
        /// [`DeviceStorage::best_service_provider`] must answer the first
        /// of without a sort.
        fn service_providers<'a>(&'a self, name: &str) -> impl Iterator<Item = (DeviceAddress, &'a ServiceInfo)> {
            let mut providers = Vec::new();
            self.each_provider(name, |d, s| {
                if !self.bridge_absent(d) {
                    providers.push((self.provider_rank(d), s));
                }
            });
            providers.sort_unstable_by_key(|(rank, _)| *rank);
            providers.into_iter().map(|((.., address), s)| (address, s))
        }
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
        assert_eq!(providers[0].0, addr(2));
        assert_eq!(providers[1].0, addr(1));
        assert_eq!(providers[2].0, addr(3));
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

    /// Devices 1 (dynamic) and 2 (static) are direct and offer "echo"; 2
    /// reports 3 (also "echo") and 9, and 1 reports 9 too.
    fn two_providers_and_one_bridged() -> DeviceStorage {
        let mut s = storage();
        let echo = || vec![ServiceInfo::new("echo", "", 1)];
        s.upsert_direct(info(1, MobilityClass::Dynamic), 240, echo(), T0);
        s.upsert_direct(info(2, MobilityClass::Static), 245, echo(), T0);
        for (responder, mobility, quality) in [(1, MobilityClass::Dynamic, 240), (2, MobilityClass::Static, 245)] {
            let mut records = vec![record(9, 0, 250, vec![])];
            if responder == 2 {
                records.insert(0, record(3, 0, 250, echo()));
            }
            s.integrate_neighbor_report(addr(responder), quality, mobility, &records, DiscoveryMode::Dynamic, T0);
        }
        s
    }

    fn echo_providers(s: &DeviceStorage) -> Vec<DeviceAddress> {
        let ranked: Vec<_> = s.service_providers("echo").map(|(a, _)| a).collect();
        assert_eq!(
            s.best_service_provider("echo", None).map(|(a, _)| a),
            ranked.first().copied()
        );
        ranked
    }

    fn bridges_to(s: &DeviceStorage, target: u64) -> Vec<DeviceAddress> {
        s.handover_candidates_iter(addr(target)).map(|(a, ..)| a).collect()
    }

    #[test]
    fn an_absent_device_and_what_is_bridged_through_it_are_not_offered() {
        let mut s = two_providers_and_one_bridged();
        assert_eq!(echo_providers(&s), [addr(2), addr(1), addr(3)]);
        assert_eq!(bridges_to(&s, 9), [addr(2), addr(1)]);
        let (generation, presence) = (s.generation(), s.presence_generation());

        s.mark_absent(addr(2));
        assert_eq!(echo_providers(&s), [addr(1)], "2 and 3, bridged through 2, are skipped");
        assert_eq!(bridges_to(&s, 9), [addr(1)]);
        assert!(s.get(addr(2)).unwrap().absent);
        assert!(
            !s.get(addr(3)).unwrap().absent,
            "3 is skipped for its bridge, not marked"
        );
        // Everything stays stored; only what ranks moves.
        assert_eq!(s.len(), 4);
        assert_eq!(s.reported_quality(addr(2), addr(3)), Some(250));
        assert_eq!(s.generation(), generation, "the export carries no mark");
        assert!(s.presence_generation() > presence);

        s.mark_absent(addr(1));
        assert_eq!(echo_providers(&s), []);
        assert_eq!(bridges_to(&s, 9), []);
        s.mark_absent(addr(42));
        assert_eq!(s.len(), 4, "marking an unknown device stores nothing");

        // A walking owner whose direct providers both missed the last loop
        // ranks 3 first. Once 2 is absent, 3 is the best-ranked row not
        // marked itself, and only the lookup of its bridge skips it.
        let mut s = two_providers_and_one_bridged().with_owner_mobility(MobilityClass::Dynamic);
        s.age_cycle(&mut [], T0, 5, SimDuration::from_secs(600));
        assert_eq!(echo_providers(&s), [addr(3), addr(2), addr(1)]);
        s.mark_absent(addr(2));
        assert!(!s.get(addr(3)).unwrap().absent);
        assert_eq!(s.best_service_provider("echo", None).map(|(a, _)| a), Some(addr(1)));
        assert_eq!(s.best_service_provider("echo", Some(addr(1))).map(|(a, _)| a), None);
    }

    #[test]
    fn a_hit_or_a_fetch_clears_the_absent_mark_and_gossip_does_not() {
        let interval = SimDuration::from_secs(60);
        let mut s = two_providers_and_one_bridged();
        s.mark_absent(addr(2));
        // 1 still reports 2 as its neighbour: 2 stays absent.
        let gossip = [record(2, 0, 250, vec![])];
        s.integrate_neighbor_report(
            addr(1),
            240,
            MobilityClass::Dynamic,
            &gossip,
            DiscoveryMode::Dynamic,
            T0,
        );
        assert!(s.get(addr(2)).unwrap().absent);
        assert_eq!(echo_providers(&s), [addr(1)]);

        assert!(!s.note_inquiry_hit(addr(2), 245, SimTime::from_secs(10), interval));
        assert!(!s.get(addr(2)).unwrap().absent);
        assert_eq!(echo_providers(&s), [addr(2), addr(1), addr(3)]);
        assert_eq!(bridges_to(&s, 9), [addr(2), addr(1)]);

        s.mark_absent(addr(2));
        s.upsert_direct(
            info(2, MobilityClass::Static),
            245,
            vec![ServiceInfo::new("echo", "", 1)],
            T0,
        );
        assert!(!s.get(addr(2)).unwrap().absent);
        assert_eq!(echo_providers(&s), [addr(2), addr(1), addr(3)]);
    }

    #[test]
    fn stale_rows_rank_last_when_one_end_moves_and_static_storages_rank_as_before() {
        let age = |s: &mut DeviceStorage, responded: &[u64]| {
            let mut responded: Vec<_> = responded.iter().map(|&n| addr(n)).collect();
            s.age_cycle(&mut responded, T0, 5, SimDuration::from_secs(600));
        };
        // A static owner: the dynamic 1 that missed the loop goes after the
        // one-jump 3; the static 2 missing a loop keeps its place.
        let mut s = two_providers_and_one_bridged();
        age(&mut s, &[2]);
        assert_eq!(echo_providers(&s), [addr(2), addr(3), addr(1)]);
        age(&mut s, &[]);
        assert_eq!(echo_providers(&s), [addr(2), addr(3), addr(1)]);
        s.note_inquiry_hit(addr(1), 240, T0, SimDuration::from_secs(60));
        assert_eq!(
            echo_providers(&s),
            [addr(2), addr(1), addr(3)],
            "answering again restores the rank"
        );

        // All static: a missed loop moves nothing.
        let mut s = storage();
        let echo = || vec![ServiceInfo::new("echo", "", 1)];
        s.upsert_direct(info(1, MobilityClass::Static), 250, echo(), T0);
        s.upsert_direct(info(2, MobilityClass::Static), 240, echo(), T0);
        let before = echo_providers(&s);
        assert_eq!(before, [addr(1), addr(2)]);
        for responded in [&[2][..], &[1], &[]] {
            age(&mut s, responded);
            assert_eq!(echo_providers(&s), before);
        }

        // A moving owner ranks a silent static row last as well.
        let mut s = storage().with_owner_mobility(MobilityClass::Hybrid);
        s.upsert_direct(info(1, MobilityClass::Static), 250, echo(), T0);
        s.upsert_direct(info(2, MobilityClass::Static), 240, echo(), T0);
        age(&mut s, &[2]);
        assert_eq!(echo_providers(&s), [addr(2), addr(1)]);
    }

    /// The storage as it was before the table: rows inside a `BTreeMap`,
    /// every record its own lookup, every candidate route built and put
    /// through [`candidate_replaces`]. The oracle
    /// `the_table_is_the_reference_model_under_random_operations` holds the
    /// table to.
    struct Model {
        own: DeviceAddress,
        threshold: u8,
        mobile_owner: bool,
        devices: BTreeMap<DeviceAddress, StoredDevice>,
        reported: BTreeMap<DeviceAddress, BTreeMap<DeviceAddress, u8>>,
        generation: u64,
    }

    impl Model {
        fn upsert_direct(&mut self, info: DeviceInfo, quality: u8, services: Arc<[ServiceInfo]>, now: SimTime) -> bool {
            if info.address == self.own {
                return false;
            }
            self.generation += 1;
            let route = RouteInfo::direct(quality, info.mobility);
            let new = !self.devices.contains_key(&info.address);
            let entry = self.devices.entry(info.address).or_insert_with(|| StoredDevice {
                info: info.clone(),
                route: route.clone(),
                services: services.clone(),
                last_seen: now,
                last_fetched: now,
                missed_loops: 0,
                absent: false,
            });
            if entry.route.jumps > 0 || candidate_replaces(&route, &entry.route, self.threshold) {
                entry.route = route;
            } else {
                entry.route.hop_qualities = vec![quality].into();
            }
            (entry.info, entry.services) = (info, services);
            (entry.last_seen, entry.last_fetched, entry.missed_loops, entry.absent) = (now, now, 0, false);
            new
        }

        fn integrate(
            &mut self,
            responder: &DeviceInfo,
            quality: u8,
            records: &[NeighborRecord],
            mode: DiscoveryMode,
            now: SimTime,
        ) -> Vec<DeviceAddress> {
            self.generation += 1;
            let mut added = Vec::new();
            for record in records {
                let address = record.info.address;
                let jumps = record.jumps.saturating_add(1);
                if address == self.own || mode.max_learned_jumps().is_some_and(|max| jumps > max) {
                    continue;
                }
                if record.hop_qualities.len() >= usize::from(u8::MAX) {
                    continue;
                }
                if record.jumps == 0 {
                    let claimed = record.hop_qualities.first().copied().unwrap_or(0);
                    self.reported
                        .entry(responder.address)
                        .or_default()
                        .insert(address, claimed);
                }
                let mut hops = vec![quality];
                hops.extend_from_slice(&record.hop_qualities);
                let candidate = RouteInfo::via(responder.address, jumps, hops, responder.mobility);
                match self.devices.get_mut(&address) {
                    None => {
                        added.push(address);
                        self.devices.insert(
                            address,
                            StoredDevice {
                                info: record.info.clone(),
                                route: candidate,
                                services: record.services.clone(),
                                last_seen: now,
                                last_fetched: now,
                                missed_loops: 0,
                                absent: false,
                            },
                        );
                    }
                    Some(existing) => {
                        existing.last_seen = now;
                        let mut services = existing.services.to_vec();
                        for s in record.services.iter() {
                            if !existing.offers(&s.name) {
                                services.push(s.clone());
                            }
                        }
                        existing.services = services.into();
                        if candidate_replaces(&candidate, &existing.route, self.threshold) {
                            existing.route = candidate;
                        }
                    }
                }
            }
            added
        }

        fn note_inquiry_hit(
            &mut self,
            address: DeviceAddress,
            quality: u8,
            now: SimTime,
            interval: SimDuration,
        ) -> bool {
            let Some(entry) = self.devices.get_mut(&address) else {
                return true;
            };
            if now.saturating_since(entry.last_fetched) >= interval {
                return true;
            }
            (entry.last_seen, entry.missed_loops, entry.absent) = (now, 0, false);
            if entry.is_direct() && *entry.route.hop_qualities != [quality] {
                self.generation += 1;
                entry.route.hop_qualities = vec![quality].into();
            }
            false
        }

        fn mark_suspect(&mut self, address: DeviceAddress, max_missed_loops: u32) {
            if let Some(entry) = self.devices.get_mut(&address) {
                self.generation += 1;
                entry.missed_loops = entry.missed_loops.max(max_missed_loops);
            }
        }

        fn mark_absent(&mut self, address: DeviceAddress) {
            if let Some(entry) = self.devices.get_mut(&address) {
                entry.absent = true;
            }
        }

        /// Neither the device nor a stored bridge of its route is absent.
        fn offered(&self, d: &StoredDevice) -> bool {
            let bridge = d.route.bridge.and_then(|b| self.devices.get(&b));
            !d.absent && !bridge.is_some_and(|b| b.absent)
        }

        fn age_cycle(
            &mut self,
            responded: &[DeviceAddress],
            now: SimTime,
            max_missed_loops: u32,
            stale_timeout: SimDuration,
        ) -> Vec<DeviceAddress> {
            let mut removed = Vec::new();
            for (addr, entry) in self.devices.iter_mut() {
                if !entry.is_direct() {
                    if now.saturating_since(entry.last_seen) > stale_timeout {
                        removed.push(*addr);
                    }
                } else if responded.contains(addr) {
                    entry.missed_loops = 0;
                } else {
                    entry.missed_loops += 1;
                    if entry.missed_loops > max_missed_loops {
                        removed.push(*addr);
                    }
                }
            }
            if removed.is_empty() {
                return removed;
            }
            self.generation += 1;
            let mut round = removed.clone();
            loop {
                for addr in &round {
                    self.devices.remove(addr);
                    self.reported.remove(addr);
                }
                let bridge_gone = |e: &StoredDevice| e.route.bridge.is_some_and(|b| !self.devices.contains_key(&b));
                round = self
                    .devices
                    .values()
                    .filter(|e| bridge_gone(e))
                    .map(|e| e.info.address)
                    .collect();
                if round.is_empty() {
                    return removed;
                }
                removed.extend(&round);
            }
        }

        fn handover_candidates(&self, target: DeviceAddress) -> Vec<(DeviceAddress, u8, u8)> {
            let mut candidates = Vec::new();
            for (responder, seen) in &self.reported {
                let direct = self.devices.get(responder).filter(|d| d.is_direct() && self.offered(d));
                if let (true, Some(reported), Some(d)) = (*responder != target, seen.get(&target), direct) {
                    candidates.push((*responder, d.route.first_hop_quality(), *reported));
                }
            }
            candidates.sort_by_key(|(_, ours, theirs)| std::cmp::Reverse(*ours as u32 + *theirs as u32));
            candidates
        }

        fn service_providers(&self, name: &str) -> Vec<(DeviceAddress, ServiceInfo)> {
            let mut providers: Vec<&StoredDevice> = self
                .devices
                .values()
                .filter(|d| d.offers(name) && self.offered(d))
                .collect();
            let rank = |d: &StoredDevice| {
                let moving = self.mobile_owner || d.info.mobility != MobilityClass::Static;
                let stale = moving && d.is_direct() && d.missed_loops > 0;
                let quality = std::cmp::Reverse(d.route.quality_sum());
                (stale, d.route.jumps, d.route.nearest_mobility.value(), quality)
            };
            providers.sort_by_key(|d| rank(d));
            let named = |d: &StoredDevice| d.services.iter().find(|s| s.name == name).cloned();
            providers
                .into_iter()
                .map(|d| (d.info.address, named(d).unwrap()))
                .collect()
        }
    }

    /// A device of the small address pool as it might describe itself this
    /// time: mostly the way the fleet does, so that rows come to share a
    /// description, now and then with a name or a technology list of its
    /// own — and the other way round the next time it is drawn.
    fn random_device(rng: &mut SimRng) -> DeviceInfo {
        let n = rng.range(0u64..24);
        let name = if rng.chance(0.7) {
            "metro".into()
        } else {
            format!("dev{n}")
        };
        let techs: &[RadioTech] = if rng.chance(0.8) {
            &[RadioTech::Bluetooth]
        } else {
            &[RadioTech::Wlan, RadioTech::Bluetooth]
        };
        DeviceInfo::new(NodeId::from_raw(n), name, random_mobility(rng), techs)
    }

    /// Random neighbour records over a small address pool: 0–40 hops whatever
    /// the jump count says — or just short of, at and just past what a row
    /// holds inline once our hop is in front, or the 254 that fill a stored
    /// route to the 255 a frame can carry, or 255, one too many —
    /// the owner named now and then, sorted as an exporter sends them, or
    /// shuffled, or with records repeated.
    fn random_records(rng: &mut SimRng, service_lists: &[Arc<[ServiceInfo]>]) -> Vec<NeighborRecord> {
        let mut records: Vec<NeighborRecord> = (0..rng.range(0usize..14))
            .map(|_| {
                let hops = match rng.range(0u8..10) {
                    0 => rng.range(INLINE_HOPS - 2..=INLINE_HOPS),
                    1 => rng.range(254usize..=255),
                    _ => rng.range(0usize..=40),
                };
                NeighborRecord {
                    info: random_device(rng),
                    jumps: if rng.chance(0.1) { 255 } else { rng.range(0u8..4) },
                    hop_qualities: (0..hops).map(|_| rng.range(200u8..=255)).collect(),
                    services: service_lists[rng.index(service_lists.len())].clone(),
                }
            })
            .collect();
        match rng.range(0u8..3) {
            0 => records.sort_by_key(|r| r.info.address),
            1 => {
                for _ in 0..rng.range(0usize..4) {
                    let again = records.get(rng.index(records.len().max(1))).cloned();
                    records.extend(again);
                }
                rng.shuffle(&mut records);
            }
            _ => {}
        }
        records
    }

    fn random_mobility(rng: &mut SimRng) -> MobilityClass {
        [MobilityClass::Static, MobilityClass::Hybrid, MobilityClass::Dynamic][rng.index(3)]
    }

    #[test]
    fn the_table_is_the_reference_model_under_random_operations() {
        let service = |name: &str, port| ServiceInfo::new(name, "", port);
        let service_lists: [Arc<[ServiceInfo]>; 4] = [
            Arc::new([]),
            Arc::new([service("echo", 1)]),
            Arc::new([service("print", 2), service("echo", 3)]),
            Arc::new([service("print", 4), service("print", 5)]),
        ];
        let modes = [DiscoveryMode::DirectOnly, DiscoveryMode::TwoHop, DiscoveryMode::Dynamic];
        let interval = SimDuration::from_secs(30);
        // What the generators must have reached by the end: stored hop lists
        // of these lengths, and service merges on rows sharing a description.
        let mut hop_list_lengths = BTreeSet::new();
        let mut merges_on_shared_rows = 0;
        // Steps that ended with a row skipped for its absent bridge alone.
        let mut skipped_for_the_bridge = 0;
        for seed in 0..8 {
            let mut rng = SimRng::new(0x7AB1E + seed);
            // Odd seeds' owner walks: every stale direct row ranks last.
            let owner = [MobilityClass::Static, MobilityClass::Dynamic][seed as usize % 2];
            let mut s = storage().with_owner_mobility(owner);
            let mut m = Model {
                own: addr(0),
                threshold: 230,
                mobile_owner: owner != MobilityClass::Static,
                devices: BTreeMap::new(),
                reported: BTreeMap::new(),
                generation: 0,
            };
            let mut now = T0;
            for step in 0..600 {
                now += SimDuration::from_secs(rng.range(0u64..8));
                let who = addr(rng.range(0u64..24));
                let quality = rng.range(200u8..=255);
                let at = format!("seed {seed} step {step}");
                match rng.range(0u8..13) {
                    0..=2 => {
                        let device = random_device(&mut rng);
                        let services = service_lists[rng.index(4)].clone();
                        let new = if rng.chance(0.5) {
                            s.upsert_direct(device.clone(), quality, services.clone(), now)
                        } else {
                            let frame = wire::encode(&crate::proto::Message::InquiryResponse {
                                device: device.clone(),
                                services: services.to_vec(),
                                neighbors: vec![],
                                bridge_load_percent: 0,
                            });
                            let heard = wire::view_inquiry_response(&frame).unwrap();
                            s.upsert_direct_view(heard.device, heard.services, quality, now)
                        };
                        assert_eq!(new, m.upsert_direct(device, quality, services, now), "{at}");
                    }
                    3..=6 => {
                        let responder = random_device(&mut rng);
                        let records = random_records(&mut rng, &service_lists);
                        merges_on_shared_rows += records
                            .iter()
                            .filter_map(|r| Some((r, s.devices.get(r.info.address)?)))
                            .filter(|(_, row)| Arc::strong_count(&row.description) > 1)
                            .filter(|(r, row)| !(*r).services_unknown_to(&row.description.services).is_empty())
                            .count();
                        let mode = modes[rng.index(3)];
                        let added = if rng.chance(0.5) {
                            s.integrate_neighbor_report(
                                responder.address,
                                quality,
                                responder.mobility,
                                &records,
                                mode,
                                now,
                            )
                        } else {
                            let frame = wire::encode(&crate::proto::Message::InquiryResponse {
                                device: responder.clone(),
                                services: vec![],
                                neighbors: records.clone(),
                                bridge_load_percent: 0,
                            });
                            let views = wire::view_inquiry_response(&frame).unwrap().neighbors;
                            s.integrate_neighbor_views(responder.address, quality, responder.mobility, views, mode, now)
                        };
                        assert_eq!(added, m.integrate(&responder, quality, &records, mode, now), "{at}");
                    }
                    7 => {
                        let stale = s.note_inquiry_hit(who, quality, now, interval);
                        assert_eq!(stale, m.note_inquiry_hit(who, quality, now, interval), "{at}");
                    }
                    8 => {
                        s.mark_suspect(who, 2);
                        m.mark_suspect(who, 2);
                    }
                    10 | 11 => {
                        s.mark_absent(who);
                        m.mark_absent(who);
                    }
                    9 => {
                        let mut responded: Vec<_> =
                            (0..rng.range(0usize..10)).map(|_| addr(rng.range(0u64..24))).collect();
                        let stale_timeout = SimDuration::from_secs(60);
                        let expected = m.age_cycle(&responded, now, 2, stale_timeout);
                        assert_eq!(s.age_cycle(&mut responded, now, 2, stale_timeout), expected, "{at}");
                    }
                    _ => {}
                }
                assert!(s.devices().eq(m.devices.values().cloned()), "{at}");
                // A route names a bridge exactly when it is not direct, the
                // rule `RouteInfo::first_hop` and `ConnKind::outgoing` read.
                let direct_iff_unbridged = |d: StoredDevice| d.route.is_direct() == d.route.bridge.is_none();
                assert!(s.devices().all(direct_iff_unbridged), "{at}");
                hop_list_lengths.extend(s.devices.rows.iter().map(|row| row.hops.len()));
                let for_the_bridge = |row: &Row| !row.absent && s.bridge_absent(row);
                skipped_for_the_bridge += usize::from(s.devices.rows.iter().any(for_the_bridge));
                assert_eq!(s.len(), m.devices.len(), "{at}");
                assert_eq!(s.generation(), m.generation, "{at}");
                assert!(
                    s.claims.values().all(|claims| !claims.is_empty()),
                    "{at}: a reporter with nothing to say was kept"
                );
                for target in (0..24).map(addr) {
                    assert_eq!(s.get(target), m.devices.get(&target).cloned(), "{at}");
                    let candidates: Vec<_> = s.handover_candidates_iter(target).collect();
                    assert_eq!(candidates, m.handover_candidates(target), "{at}");
                    for reporter in (0..24).map(addr) {
                        let claimed = m.reported.get(&reporter).and_then(|seen| seen.get(&target));
                        assert_eq!(s.reported_quality(reporter, target), claimed.copied(), "{at}");
                    }
                }
                for name in ["echo", "print", "nothing"] {
                    let flat = |(provider, svc): (DeviceAddress, &ServiceInfo)| (provider, svc.clone());
                    let expected = m.service_providers(name);
                    assert_eq!(
                        s.service_providers(name).map(flat).collect::<Vec<_>>(),
                        expected,
                        "{at}"
                    );
                    assert_eq!(
                        s.best_service_provider(name, None).map(flat),
                        expected.first().cloned(),
                        "{at}"
                    );
                    // Excluding the best (the switch excludes the provider
                    // it lost) answers the runner-up; excluding a device
                    // that offers nothing answers the best.
                    for except in expected.iter().map(|(a, _)| *a).take(1).chain([addr(99)]) {
                        assert_eq!(
                            s.best_service_provider(name, Some(except)).map(flat),
                            expected.iter().find(|(a, _)| *a != except).cloned(),
                            "{at}: without {except:?}"
                        );
                    }
                }
            }
        }
        for reached in [1, INLINE_HOPS - 1, INLINE_HOPS, INLINE_HOPS + 1, 255] {
            assert!(hop_list_lengths.contains(&reached), "no stored route of {reached} hops");
        }
        assert!(
            merges_on_shared_rows > 20,
            "{merges_on_shared_rows} service merges on shared rows"
        );
        assert!(
            skipped_for_the_bridge > 100,
            "{skipped_for_the_bridge} steps skipped a row for its bridge"
        );
    }

    #[test]
    fn a_shuffled_report_and_its_sorted_twin_leave_equal_storages() {
        let mut rng = SimRng::new(0x50F7);
        let mut records: Vec<NeighborRecord> = (1..40)
            .map(|n| record(n, rng.range(0u8..3), rng.range(200u8..=255), vec![]))
            .collect();
        let mut sorted = storage();
        let mut shuffled = storage();
        for round in 0..3 {
            // Teach both the same rows first, in different orders, so the
            // slabs differ; then refresh and re-route them.
            for s in [&mut sorted, &mut shuffled] {
                s.upsert_direct(info(7, MobilityClass::Static), 240, vec![], T0);
                s.integrate_neighbor_report(
                    addr(7),
                    240,
                    MobilityClass::Static,
                    &records,
                    DiscoveryMode::Dynamic,
                    T0,
                );
                records.reverse();
            }
            assert!(sorted.devices().eq(shuffled.devices()), "round {round}");
            assert_eq!(sorted.claims, shuffled.claims, "round {round}");
            assert_eq!(sorted.generation(), shuffled.generation(), "round {round}");
            rng.shuffle(&mut records);
            for r in &mut records {
                r.hop_qualities[0] = rng.range(200u8..=255);
            }
        }
    }

    #[test]
    fn remove_erases_the_row_and_its_claims() {
        let mut s = storage();
        s.upsert_direct(info(1, MobilityClass::Static), 240, vec![], T0);
        let records = [record(2, 0, 230, vec![])];
        s.integrate_neighbor_report(
            addr(1),
            240,
            MobilityClass::Static,
            &records,
            DiscoveryMode::Dynamic,
            T0,
        );
        assert_eq!(s.reported_quality(addr(1), addr(2)), Some(230));
        // 2 is heard directly too, so its row does not hang on 1.
        s.upsert_direct(info(2, MobilityClass::Static), 240, vec![], T0);
        let age = |s: &mut DeviceStorage| s.age_cycle(&mut [addr(2)], T0, 0, SimDuration::from_secs(600));
        assert_eq!(age(&mut s), [addr(1)]);
        assert_eq!(age(&mut s), []);
        assert_eq!(s.reported_quality(addr(1), addr(2)), None);
        assert!(s.claims.is_empty(), "the claims row outlived its device");
        assert!(s.get(addr(2)).is_some(), "what it reported stays");
        assert_eq!(s.own_address(), addr(0));
    }
}
