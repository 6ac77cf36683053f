//! The protocol forge: what this middleware's Byzantine adversary says.
//!
//! `simnet::adversary` decides *when* a compromised node tampers with or
//! injects a frame (on the adversary RNG stream); this module decides *what*
//! the hostile bytes contain, because that requires knowledge of the wire
//! protocol. Every frame the forge produces is **syntactically valid** — it
//! decodes cleanly — so an undefended stack accepts and acts on it; the
//! point of the [`SecurityConfig`](crate::config::SecurityConfig) tiers is
//! to reject these frames *semantically* (sanity checks, reputation) or
//! *cryptographically* (frame auth).
//!
//! The attack repertoire mirrors the scorecard columns of the hostile-city
//! experiment:
//!
//! * **byte-exact replays** of sniffed frames (killed by the replay window),
//! * **replayed session Accepts** (counted by the duplicate-Accept check),
//! * **connection requests with foreign connection ids** — ids whose packed
//!   initiator is not the requesting client (killed by the foreign-conn-id
//!   check),
//! * **forged reply contexts** trying to attach the attacker's link to a
//!   waiting session (killed by the reply-context check, or by frame auth
//!   when the sniffed context targets its own initiator),
//! * **forged neighbour reports** advertising phantom devices at
//!   [`HOSTILE_BASE`]+ addresses behind the attacker-as-bridge, poisoning
//!   the §3.4.3 route candidates — substituted for every inquiry response
//!   the attacker serves and injected opportunistically besides (contained
//!   by reporter reputation, and killed outright by frame auth),
//! * **spoofed service advertisements** claiming the victim service runs on
//!   phantom devices (same containment),
//! * **in-flight tampering** of the attacker's own outgoing traffic —
//!   conn-id splices, data corruption, forged disconnects (killed by frame
//!   auth, which seals the bytes end to end per hop).

use std::sync::Arc;

use simnet::{FrameForge, NodeId, Payload, RadioTech, SimRng};

use crate::device::{DeviceInfo, MobilityClass};
use crate::error::ErrorCode;
use crate::ids::{ConnectionId, DeviceAddress};
use crate::proto::{Message, NeighborRecord};
use crate::service::ServiceInfo;
use crate::wire;

/// Raw node number floor of the phantom devices fabricated in forged
/// neighbour reports. [`DeviceAddress::from_node_raw`] packs the raw number
/// into 32 bits, so the base sits just below `u32::MAX` — high enough that
/// no real city node collides with it, low enough that the address survives
/// the wire roundtrip — and end-of-run storage scans count any stored
/// address at or above it as a poisoned route.
pub const HOSTILE_BASE: u64 = 0xFFFF_0000;

/// How many distinct phantom addresses the forge cycles through.
const HOSTILE_SPAN: u64 = 4096;

/// Phantom neighbours fabricated per forged inquiry response.
const POISON_FANOUT: usize = 3;

/// Fraction of a compromised node's outgoing frames that get tampered with:
/// one in `TAMPER_ONE_IN` (the rest pass untouched, keeping the attacker's
/// own stack functional enough to stay discovered and keep sniffing).
const TAMPER_ONE_IN: u32 = 4;

/// A [`FrameForge`] speaking the PeerHood wire protocol.
///
/// The forge is stateless apart from a deterministic counter used to vary
/// phantom addresses and forged connection ids; all randomness comes from
/// the adversary RNG stream handed in by the simulator, so a given world
/// seed always produces the same attack trace.
pub struct ProtocolForge {
    /// Service name the forge spoofs in fake advertisements and targets in
    /// forged connection requests (the victim application's service).
    service: String,
    /// Deterministic wobble for phantom addresses and forged ids.
    counter: u32,
}

impl ProtocolForge {
    /// Builds a forge attacking (and spoofing) the named service.
    pub fn new(service: impl Into<String>) -> Self {
        ProtocolForge {
            service: service.into(),
            counter: 0,
        }
    }

    /// The next phantom device address (cycles through [`HOSTILE_SPAN`]
    /// addresses starting at [`HOSTILE_BASE`]).
    fn hostile_address(&mut self) -> DeviceAddress {
        let raw = HOSTILE_BASE + (self.counter as u64 % HOSTILE_SPAN);
        self.counter = self.counter.wrapping_add(1);
        DeviceAddress::from_node_raw(raw)
    }

    /// A connection id whose packed initiator is a phantom device — never
    /// the client that presents it, which is exactly what the foreign-conn
    /// sanity check rejects.
    fn foreign_conn(&mut self) -> ConnectionId {
        let initiator = self.hostile_address();
        ConnectionId::new(initiator, self.counter)
    }

    /// The attacker's own (honest-looking) device description: forged frames
    /// carry the real compromised identity, so reputation penalties land on
    /// the node that actually emitted them.
    fn attacker_info(&self, attacker: NodeId) -> DeviceInfo {
        DeviceInfo::new(attacker, "compromised", MobilityClass::Static, &[RadioTech::Bluetooth])
    }

    /// A connection id found in the sniffed frames, if any — live session
    /// material for replay and hijack attacks. The frame is checked, not
    /// decoded: under frame auth every sniffed frame carries a trailer and
    /// fails the check, and nothing is built for it.
    fn sniffed_conn(&self, sniffed: &[Payload], rng: &mut SimRng) -> Option<ConnectionId> {
        if sniffed.is_empty() {
            return None;
        }
        let pick = rng.range(0..sniffed.len());
        wire::validate(sniffed[pick].as_slice()).ok().and_then(|(_, conn)| conn)
    }

    /// A forged inquiry response: the attacker re-advertises itself while
    /// claiming `POISON_FANOUT` phantom neighbours (each offering the victim
    /// service at excellent quality) sit directly behind it. An undefended
    /// receiver integrates them as route candidates bridged via the
    /// attacker — the §3.4.3 poisoning the scorecard counts.
    fn poisoned_report(&mut self, attacker: NodeId) -> Message {
        let spoofed: Arc<[ServiceInfo]> = vec![ServiceInfo::new(&self.service, "spoofed", 1)].into();
        let neighbors = (0..POISON_FANOUT)
            .map(|_| {
                let address = self.hostile_address();
                let mut info = self.attacker_info(attacker);
                info.address = address;
                info.name = "phantom".into();
                NeighborRecord {
                    info,
                    jumps: 0,
                    hop_qualities: vec![200],
                    services: spoofed.clone(),
                }
            })
            .collect();
        Message::InquiryResponse {
            device: self.attacker_info(attacker),
            services: vec![ServiceInfo::new(&self.service, "spoofed", 1)],
            neighbors,
            bridge_load_percent: 0,
        }
    }
}

impl FrameForge for ProtocolForge {
    fn tamper(&mut self, attacker: NodeId, payload: &Payload, rng: &mut SimRng) -> Option<Payload> {
        // Check → decode → mutate semantically → re-encode: the tampered
        // frame is always syntactically valid, so only a defence can reject
        // it. (With frame auth enabled the trailer makes the check fail,
        // which keeps the MAC intact — sealed frames cannot be usefully
        // tampered with.) Only a frame that is tampered is decoded.
        let (tag, _) = wire::validate(payload.as_slice()).ok()?;
        // The attacker's own discovery answers are the poisoning channel:
        // the receiver is mid-fetch by definition, so a substituted report
        // always integrates. These are replaced every time; ordinary
        // traffic is tampered at the 1-in-`TAMPER_ONE_IN` rate below.
        if tag == wire::TAG_INQUIRY_RESPONSE {
            return Some(wire::encode(&self.poisoned_report(attacker)).into());
        }
        if rng.range(0..TAMPER_ONE_IN) != 0 {
            return None;
        }
        // Only these three are rewritten. The rest passes untouched —
        // discovery requests among them: the attacker must stay discoverable
        // to keep its poisoned responses flowing.
        if ![wire::TAG_DATA, wire::TAG_ACCEPT, wire::TAG_CONNECT_REQUEST].contains(&tag) {
            return None;
        }
        let message = wire::decode(payload.as_slice()).ok()?;
        let tampered = match message {
            Message::Data { conn_id, payload } => match rng.range(0u32..3) {
                0 => Message::Disconnect { conn_id },
                1 => Message::Data {
                    conn_id: self.foreign_conn(),
                    payload,
                },
                _ => {
                    let mut corrupted = payload;
                    if let Some(first) = corrupted.first_mut() {
                        *first ^= 0xA5;
                    } else {
                        corrupted.push(0xA5);
                    }
                    Message::Data {
                        conn_id,
                        payload: corrupted,
                    }
                }
            },
            Message::Accept { conn_id } => Message::Error {
                conn_id,
                code: ErrorCode::ServiceUnavailable,
                detail: "forged".into(),
            },
            Message::ConnectRequest {
                service,
                client,
                reply_context,
                ..
            } => Message::ConnectRequest {
                conn_id: self.foreign_conn(),
                service,
                client,
                reply_context,
            },
            _ => return None,
        };
        Some(wire::encode(&tampered).into())
    }

    fn forge(&mut self, attacker: NodeId, _peer: NodeId, sniffed: &[Payload], rng: &mut SimRng) -> Option<Payload> {
        let message = match rng.range(0u32..6) {
            // Byte-exact replay of a sniffed frame (replay-window fodder).
            0 if !sniffed.is_empty() => {
                let pick = rng.range(0..sniffed.len());
                return Some(sniffed[pick].clone());
            }
            // Replayed session Accept for a live (sniffed) connection.
            1 => {
                let conn_id = self.sniffed_conn(sniffed, rng).unwrap_or_else(|| self.foreign_conn());
                Message::Accept { conn_id }
            }
            // Connection request whose id was allocated by a phantom device.
            2 => Message::ConnectRequest {
                conn_id: self.foreign_conn(),
                service: self.service.clone(),
                client: self.attacker_info(attacker),
                reply_context: None,
            },
            // Hijack attempt: attach the attacker's link to a waiting
            // session via a forged reply context.
            3 => {
                let target = self.sniffed_conn(sniffed, rng).unwrap_or_else(|| self.foreign_conn());
                self.counter = self.counter.wrapping_add(1);
                Message::ConnectRequest {
                    conn_id: ConnectionId::new(DeviceAddress::from_node(attacker), self.counter),
                    service: self.service.clone(),
                    client: self.attacker_info(attacker),
                    reply_context: Some(target),
                }
            }
            // Forged neighbour report + spoofed service advertisements.
            4 | 5 => self.poisoned_report(attacker),
            // 0 with nothing sniffed yet: poison instead of skipping the
            // tick, so early injections still do damage.
            _ => self.poisoned_report(attacker),
        };
        Some(wire::encode(&message).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> SimRng {
        SimRng::new(seed)
    }

    fn attacker() -> NodeId {
        NodeId::from_raw(7)
    }

    fn sample_frames() -> Vec<Payload> {
        let conn = ConnectionId::new(DeviceAddress::from_node_raw(3), 9);
        let client = DeviceInfo::new(
            NodeId::from_raw(3),
            "c",
            MobilityClass::Dynamic,
            &[RadioTech::Bluetooth],
        );
        [
            Message::Accept { conn_id: conn },
            Message::Data {
                conn_id: conn,
                payload: vec![1, 2, 3],
            },
            Message::ConnectRequest {
                conn_id: conn,
                service: "echo".into(),
                client,
                reply_context: None,
            },
        ]
        .iter()
        .map(|m| Payload::from(wire::encode(m)))
        .collect()
    }

    #[test]
    fn hostile_addresses_survive_the_u32_packing() {
        let raw = HOSTILE_BASE + HOSTILE_SPAN - 1;
        assert!(raw <= u32::MAX as u64, "phantom addresses must fit the packed u32");
        let addr = DeviceAddress::from_node_raw(raw);
        assert_eq!(addr.node_id().as_raw(), raw, "address roundtrips losslessly");
        assert!(addr.node_id().as_raw() >= HOSTILE_BASE);
    }

    #[test]
    fn tampered_frames_always_decode() {
        let mut forge = ProtocolForge::new("echo");
        let mut r = rng(42);
        let frames = sample_frames();
        let mut tampered = 0;
        for _ in 0..64 {
            for frame in &frames {
                if let Some(out) = forge.tamper(attacker(), frame, &mut r) {
                    wire::decode(out.as_slice()).expect("tampered frame must stay syntactically valid");
                    assert_ne!(out.as_slice(), frame.as_slice(), "tampering must change the bytes");
                    tampered += 1;
                }
            }
        }
        assert!(tampered > 0, "the forge must actually tamper sometimes");
    }

    #[test]
    fn forged_frames_always_decode() {
        let mut forge = ProtocolForge::new("echo");
        let mut r = rng(42);
        let frames = sample_frames();
        for i in 0..64 {
            let sniffed: &[Payload] = if i % 2 == 0 { &frames } else { &[] };
            let out = forge
                .forge(attacker(), NodeId::from_raw(9), sniffed, &mut r)
                .expect("every injection tick produces a frame");
            wire::decode(out.as_slice()).expect("forged frame must be syntactically valid");
        }
    }

    #[test]
    fn poisoned_reports_carry_hostile_addresses_behind_the_attacker() {
        let mut forge = ProtocolForge::new("echo");
        match forge.poisoned_report(attacker()) {
            Message::InquiryResponse {
                device,
                services,
                neighbors,
                ..
            } => {
                assert_eq!(device.address, DeviceAddress::from_node(attacker()));
                assert!(services.iter().any(|s| s.name == "echo"), "service is spoofed");
                assert_eq!(neighbors.len(), POISON_FANOUT);
                for n in &neighbors {
                    assert!(
                        n.info.address.node_id().as_raw() >= HOSTILE_BASE,
                        "phantom neighbours live at hostile addresses"
                    );
                    assert_eq!(n.jumps, 0, "claimed as direct neighbours of the attacker");
                }
            }
            other => panic!("expected an inquiry response, got {}", other.command_name()),
        }
    }

    #[test]
    fn forge_output_is_deterministic_per_rng_seed() {
        let run = || {
            let mut forge = ProtocolForge::new("echo");
            let mut r = rng(20080815);
            let frames = sample_frames();
            (0..32)
                .map(|_| {
                    forge
                        .forge(attacker(), NodeId::from_raw(9), &frames, &mut r)
                        .map(|p| p.to_vec())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn foreign_conn_ids_never_match_their_presenter() {
        let mut forge = ProtocolForge::new("echo");
        for _ in 0..16 {
            let conn = forge.foreign_conn();
            assert_ne!(conn.initiator(), DeviceAddress::from_node(attacker()));
            assert!(conn.initiator().node_id().as_raw() >= HOSTILE_BASE);
        }
    }
}
