//! The frame-path replay: each middleware layer's cost on the run's own traffic.
//!
//! `peerhood::node::on_message` is one span from outside. To split it without
//! putting spans inside the crate, the traced run keeps every inbound frame
//! and, once the world is gone, streams them through the layers' public
//! functions in frame-path order: `Security::verify_and_strip` →
//! `wire::decode` → `DeviceStorage::{upsert_direct, integrate_neighbor_report}`
//! for neighbour reports, and back out through `wire::encode_into` →
//! `Security::append_trailer`. One `Security` and one `DeviceStorage` per
//! receiver, as in the run. Each frame is decoded, used and dropped; nothing
//! but the kept bytes is ever materialised.
//!
//! What the replay does not model: storage ageing (its tables only grow) and
//! the replay-window state a reboot wipes. So its times are each layer's cost
//! on this traffic mix, not a partition of `on_message`'s span.

use std::time::Instant;

use peerhood::config::PeerHoodConfig;
use peerhood::ids::DeviceAddress;
use peerhood::proto::Message;
use peerhood::security::{AuthReject, Security};
use peerhood::storage::DeviceStorage;
use peerhood::wire;

use crate::alloc;
use crate::stats::median;
use crate::trace::KeptFrame;

/// The link quality the replay files every responder under (in the run it is
/// the inquiry's sample): mid-range on the WLAN curve, above the city's
/// `quality_threshold`.
const REPLAY_QUALITY: u8 = 220;

const PASSES: usize = 3;

/// What the replay measured and decided.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Replay {
    /// Frames replayed.
    pub frames: u64,
    /// Their bytes, trailers included.
    pub bytes: u64,
    /// Neighbour records the decoded reports carried.
    pub records: u64,
    /// Neighbour reports integrated.
    pub reports: u64,
    /// Heap allocations `wire::decode` made.
    pub decode_allocs: u64,
    /// Frames whose MAC did not verify. Stateless, so it is exact.
    pub bad_mac: u64,
    /// Frames the replay's own windows called replays.
    pub replayed: u64,
    /// Frames that passed authentication and still did not decode.
    pub undecodable: u64,
    /// Wall nanoseconds in `Security::verify_and_strip` (median pass).
    pub verify_ns: f64,
    /// Wall nanoseconds in `wire::decode`.
    pub decode_ns: f64,
    /// Wall nanoseconds in `wire::encode_into`.
    pub encode_ns: f64,
    /// Wall nanoseconds in `Security::append_trailer`.
    pub sign_ns: f64,
    /// Wall nanoseconds in `DeviceStorage::{upsert_direct, integrate_neighbor_report}`.
    pub integrate_ns: f64,
}

fn timed<R>(ns: &mut f64, f: impl FnOnce() -> R) -> R {
    let started = Instant::now();
    let result = f();
    *ns += started.elapsed().as_nanos() as f64;
    result
}

/// One pass over the kept frames with fresh per-receiver state.
fn pass(frames: &[KeptFrame], nodes: usize, config: &PeerHoodConfig) -> Replay {
    let auth = config.security.frame_auth;
    let mut security: Vec<Option<Security>> = (0..nodes).map(|_| None).collect();
    let mut storage: Vec<Option<DeviceStorage>> = (0..nodes).map(|_| None).collect();
    let mut scratch = Vec::new();
    let mut r = Replay::default();
    for frame in frames {
        let to = frame.to.as_raw() as usize;
        let own = DeviceAddress::from_node(frame.to);
        r.frames += 1;
        r.bytes += frame.payload.len() as u64;
        let security = security[to].get_or_insert_with(|| Security::new(config.security.clone()));
        let mut body: &[u8] = frame.payload.as_slice();
        if auth {
            let sender = DeviceAddress::from_node(frame.from);
            match timed(&mut r.verify_ns, || security.verify_and_strip(sender, body)) {
                Ok(stripped) => body = stripped,
                Err(AuthReject::BadMac) => {
                    r.bad_mac += 1;
                    continue;
                }
                Err(AuthReject::Replayed) => {
                    r.replayed += 1;
                    continue;
                }
            }
        }
        let allocs_before = alloc::snapshot().0;
        let decoded = timed(&mut r.decode_ns, || wire::decode(body));
        r.decode_allocs += alloc::snapshot().0 - allocs_before;
        let Ok(message) = decoded else {
            r.undecodable += 1;
            continue;
        };
        scratch.clear();
        timed(&mut r.encode_ns, || wire::encode_into(&message, &mut scratch));
        if auth {
            timed(&mut r.sign_ns, || security.append_trailer(own, &mut scratch));
        }
        if let Message::InquiryResponse {
            device,
            services,
            neighbors,
            ..
        } = message
        {
            let storage = storage[to].get_or_insert_with(|| DeviceStorage::new(own, config.monitor.quality_threshold));
            r.reports += 1;
            r.records += neighbors.len() as u64;
            timed(&mut r.integrate_ns, || {
                let (address, mobility) = (device.address, device.mobility);
                storage.upsert_direct(device, REPLAY_QUALITY, services, frame.at);
                storage.integrate_neighbor_report(
                    address,
                    REPLAY_QUALITY,
                    mobility,
                    &neighbors,
                    config.discovery.mode,
                    frame.at,
                );
            });
        }
    }
    r
}

/// Replays `frames` (arrival order) against a city of `nodes` nodes configured
/// by `config`; times are the median of three passes, counts repeat exactly.
pub fn run(frames: &[KeptFrame], nodes: usize, config: &PeerHoodConfig) -> Replay {
    alloc::set_counting(true);
    let passes: Vec<Replay> = (0..PASSES).map(|_| pass(frames, nodes, config)).collect();
    alloc::set_counting(false);
    let med = |f: fn(&Replay) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    Replay {
        verify_ns: med(|p| p.verify_ns),
        decode_ns: med(|p| p.decode_ns),
        encode_ns: med(|p| p.encode_ns),
        sign_ns: med(|p| p.sign_ns),
        integrate_ns: med(|p| p.integrate_ns),
        ..passes[0]
    }
}
