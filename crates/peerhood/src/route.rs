//! Routing information stored per remote device and the best-route
//! selection rules of Fig. 3.13.
//!
//! Dynamic device discovery turns the `DeviceStorage` into an ad-hoc routing
//! table: each entry carries the *bridge* (gateway neighbour) through which
//! the device is reachable and the number of *jumps* (intermediate nodes).
//! When two candidate routes to the same device are known, the selection
//! order is:
//!
//! 1. fewer jumps,
//! 2. lower mobility value of the nearest device on the route
//!    ({static, hybrid, dynamic} = {0, 1, 3}, §3.4.3),
//! 3. higher link quality, subject to the per-hop minimum threshold rule of
//!    Fig. 3.9.

use std::fmt;
use std::ops::Deref;

use serde::{Deserialize, Serialize};

use crate::device::MobilityClass;
use crate::ids::DeviceAddress;
use crate::quality::candidate_quality_better;

/// Hops a [`HopQualities`] holds inside the route itself. Exports stop at
/// `max_export_jumps` (8 by default), so an honest route — the exporter's
/// nine hops with our own in front — fits; the list, its length and the tag
/// fill two machine words.
pub const INLINE_HOPS: usize = 14;

/// The per-hop link qualities of a route, nearest hop first: a byte slice
/// (`Deref<Target = [u8]>`) stored inside the route up to [`INLINE_HOPS`]
/// hops and behind one thin pointer beyond — a hostile frame may carry 255.
/// Equality and `Debug` are the slice's.
#[derive(Clone, Serialize, Deserialize)]
pub struct HopQualities(Repr);

#[derive(Clone, Serialize, Deserialize)]
enum Repr {
    Inline {
        len: u8,
        hops: [u8; INLINE_HOPS],
    },
    /// A box of a box: the outer pointer is thin, so the spilled form costs
    /// the route eight bytes, not a slice's sixteen.
    Heap(Box<Box<[u8]>>),
}

impl HopQualities {
    /// The list `[first] ++ rest`: a reported route seen through the link to
    /// its reporter, and with an empty `rest` the single hop of a direct one.
    pub fn prefixed(first: u8, rest: &[u8]) -> Self {
        Self::build(rest.len() + 1, |hops| {
            hops[0] = first;
            hops[1..].copy_from_slice(rest);
        })
    }

    fn build(len: usize, fill: impl FnOnce(&mut [u8])) -> Self {
        if len <= INLINE_HOPS {
            let mut hops = [0; INLINE_HOPS];
            fill(&mut hops[..len]);
            HopQualities(Repr::Inline { len: len as u8, hops })
        } else {
            let mut hops = vec![0; len].into_boxed_slice();
            fill(&mut hops);
            HopQualities(Repr::Heap(Box::new(hops)))
        }
    }
}

impl Deref for HopQualities {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, hops } => &hops[..*len as usize],
            Repr::Heap(hops) => hops,
        }
    }
}

impl From<&[u8]> for HopQualities {
    fn from(hops: &[u8]) -> Self {
        Self::build(hops.len(), |to| to.copy_from_slice(hops))
    }
}

impl From<Vec<u8>> for HopQualities {
    fn from(hops: Vec<u8>) -> Self {
        hops.as_slice().into()
    }
}

impl PartialEq for HopQualities {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for HopQualities {}

impl fmt::Debug for HopQualities {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A route towards a remote device as stored in the device storage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteInfo {
    /// Number of intermediate nodes. Direct neighbours have 0 jumps.
    pub jumps: u8,
    /// The gateway neighbour to connect through, or `None` for direct
    /// neighbours.
    pub bridge: Option<DeviceAddress>,
    /// Link-quality value of each hop along the route, nearest hop first.
    /// For a direct neighbour this is the single measured quality.
    pub hop_qualities: HopQualities,
    /// Mobility class of the nearest device on the route (the bridge for
    /// multi-hop routes, the device itself for direct neighbours). The thesis
    /// considers only the nearest device's mobility (§3.4.3).
    pub nearest_mobility: MobilityClass,
}

impl RouteInfo {
    /// A route to a direct neighbour.
    pub fn direct(quality: u8, mobility: MobilityClass) -> Self {
        RouteInfo {
            jumps: 0,
            bridge: None,
            hop_qualities: HopQualities::prefixed(quality, &[]),
            nearest_mobility: mobility,
        }
    }

    /// A route through `bridge` with the given per-hop qualities.
    pub fn via(
        bridge: DeviceAddress,
        jumps: u8,
        hop_qualities: impl Into<HopQualities>,
        bridge_mobility: MobilityClass,
    ) -> Self {
        RouteInfo {
            jumps,
            bridge: Some(bridge),
            hop_qualities: hop_qualities.into(),
            nearest_mobility: bridge_mobility,
        }
    }

    /// True if this is a direct (0-jump) route.
    pub fn is_direct(&self) -> bool {
        self.jumps == 0
    }

    /// The device to dial first towards `destination`: the bridge, or itself.
    /// A stored route names a bridge exactly when it is not direct.
    pub fn first_hop(&self, destination: DeviceAddress) -> DeviceAddress {
        self.bridge.unwrap_or(destination)
    }

    /// The quality of the first hop (towards the bridge or the device
    /// itself).
    pub fn first_hop_quality(&self) -> u8 {
        self.hop_qualities.first().copied().unwrap_or(0)
    }

    /// Sum of hop qualities (the comparison value of Fig. 3.8).
    pub fn quality_sum(&self) -> u32 {
        self.hop_qualities.iter().map(|&q| q as u32).sum()
    }
}

/// Decides whether `candidate` should replace `current` for the same target
/// device, implementing the `AnalyzeNeighbourhoodDevices` comparison chain of
/// Fig. 3.13: fewer jumps, then lower mobility value, then better quality
/// (with the Fig. 3.9 per-hop threshold rule).
pub fn candidate_replaces(candidate: &RouteInfo, current: &RouteInfo, quality_threshold: u8) -> bool {
    if candidate.jumps != current.jumps {
        return candidate.jumps < current.jumps;
    }
    let cand_mob = candidate.nearest_mobility.value();
    let curr_mob = current.nearest_mobility.value();
    if cand_mob != curr_mob {
        return cand_mob < curr_mob;
    }
    candidate_quality_better(&candidate.hop_qualities, &current.hop_qualities, quality_threshold)
}

/// Picks the best route out of a non-empty candidate list using
/// [`candidate_replaces`]. Returns `None` for an empty list.
pub fn best_route<'a, I>(candidates: I, quality_threshold: u8) -> Option<&'a RouteInfo>
where
    I: IntoIterator<Item = &'a RouteInfo>,
{
    let mut best: Option<&RouteInfo> = None;
    for candidate in candidates {
        match best {
            None => best = Some(candidate),
            Some(current) => {
                if candidate_replaces(candidate, current, quality_threshold) {
                    best = Some(candidate);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u64) -> DeviceAddress {
        DeviceAddress::from_node_raw(n)
    }

    #[test]
    fn direct_route_properties() {
        let r = RouteInfo::direct(240, MobilityClass::Static);
        assert!(r.is_direct());
        assert_eq!(r.jumps, 0);
        assert_eq!(r.first_hop_quality(), 240);
        assert_eq!(r.quality_sum(), 240);
        assert_eq!(r.bridge, None);
    }

    #[test]
    fn via_route_properties() {
        let r = RouteInfo::via(addr(5), 1, vec![250, 235], MobilityClass::Hybrid);
        assert!(!r.is_direct());
        assert_eq!(r.jumps, 1);
        assert_eq!(r.first_hop_quality(), 250);
        assert_eq!(r.quality_sum(), 485);
        assert_eq!(r.bridge, Some(addr(5)));
    }

    #[test]
    fn hop_qualities_read_the_same_inline_and_on_the_heap() {
        assert!(
            std::mem::size_of::<HopQualities>() <= 16,
            "the hop list is a quarter of the storage's 64-byte row"
        );
        // Around the inline limit, and the longest list a frame can carry
        // behind our own hop.
        for len in [0, 1, INLINE_HOPS - 1, INLINE_HOPS, INLINE_HOPS + 1, 256] {
            let hops: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let stored = HopQualities::from(hops.clone());
            assert_eq!(&*stored, hops.as_slice());
            assert_eq!(format!("{stored:?}"), format!("{hops:?}"));
            if let Some((first, rest)) = hops.split_first() {
                assert_eq!(HopQualities::prefixed(*first, rest), stored);
            }
            assert_ne!(HopQualities::prefixed(7, &hops), stored);
        }
    }

    #[test]
    fn fewer_jumps_always_wins() {
        let direct = RouteInfo::direct(180, MobilityClass::Dynamic);
        let via = RouteInfo::via(addr(1), 1, vec![255, 255], MobilityClass::Static);
        // Even though the multi-hop route has a static bridge and far better
        // quality, the direct route has fewer jumps and is preferred.
        assert!(candidate_replaces(&direct, &via, 230));
        assert!(!candidate_replaces(&via, &direct, 230));
    }

    #[test]
    fn lower_mobility_breaks_jump_ties() {
        // Fig. 3.11: a static bridge is preferred over a dynamic one.
        let via_static = RouteInfo::via(addr(1), 1, vec![231, 231], MobilityClass::Static);
        let via_dynamic = RouteInfo::via(addr(2), 1, vec![255, 255], MobilityClass::Dynamic);
        assert!(candidate_replaces(&via_static, &via_dynamic, 230));
        assert!(!candidate_replaces(&via_dynamic, &via_static, 230));
    }

    #[test]
    fn quality_breaks_remaining_ties_with_threshold_rule() {
        // Same jumps, same mobility: the Fig. 3.9 rule applies.
        let good = RouteInfo::via(addr(1), 1, vec![230, 230], MobilityClass::Static);
        let below_threshold = RouteInfo::via(addr(2), 1, vec![210, 250], MobilityClass::Static);
        assert!(candidate_replaces(&good, &below_threshold, 230));
        assert!(!candidate_replaces(&below_threshold, &good, 230));

        let better_sum = RouteInfo::via(addr(3), 1, vec![250, 250], MobilityClass::Static);
        assert!(candidate_replaces(&better_sum, &good, 230));
    }

    #[test]
    fn equal_routes_do_not_replace() {
        let a = RouteInfo::direct(240, MobilityClass::Static);
        assert!(!candidate_replaces(&a.clone(), &a, 230));
    }

    #[test]
    fn best_route_selects_by_full_chain() {
        let routes = [
            RouteInfo::via(addr(1), 2, vec![255, 255, 255], MobilityClass::Static),
            RouteInfo::via(addr(2), 1, vec![240, 240], MobilityClass::Dynamic),
            RouteInfo::via(addr(3), 1, vec![231, 232], MobilityClass::Static),
            RouteInfo::via(addr(4), 1, vec![250, 250], MobilityClass::Static),
        ];
        let best = best_route(routes.iter(), 230).unwrap();
        // Jump count eliminates the first; mobility eliminates the second;
        // quality sum picks the fourth over the third.
        assert_eq!(best.bridge, Some(addr(4)));
        assert!(best_route(std::iter::empty(), 230).is_none());
    }
}
