//! Protocol hardening: frame authentication, replay suppression and the
//! counters behind the hostile-city security scorecard.
//!
//! The adversary model (see `simnet::adversary`) injects syntactically
//! valid frames from compromised nodes: replayed session Accepts,
//! connection requests carrying foreign connection ids, forged neighbour
//! reports and spoofed service advertisements. This module supplies the
//! per-node defences the [`SecurityConfig`]
//! tiers toggle:
//!
//! * **frame auth** — an opt-in 16-byte `[seq | MAC]` trailer appended
//!   *outside* the wire codec (the frame format itself is unchanged, so
//!   `WIRE_VERSION` stays at 1). The MAC is a keyed FNV-1a over the shared
//!   key, the sender's device address, the sequence number and the frame
//!   bytes; the sender address is derived from the radio the frame arrived
//!   on, so a replayed frame fails verification at any node other than its
//!   original destination-pair, and a tampered frame fails by content.
//! * **replay windows** — a per-sender monotonic sequence number checked
//!   against a 64-entry sliding-window bitmap, which kills byte-exact
//!   replays that would otherwise still carry a valid MAC.
//! * **[`SecurityStats`]** — every defence counts what it rejected, and the
//!   scorecard sums these across the city.
//!
//! The MAC is a simulation stand-in measuring the *cost and rejection
//! behaviour* of authenticated framing, not a cryptographic primitive.

use serde::{Deserialize, Serialize};
use simnet::table::IdTable;
use simnet::telemetry::Fnv1a;

use crate::config::SecurityConfig;
use crate::ids::DeviceAddress;

/// Bytes the frame-auth trailer appends to every frame: an 8-byte
/// big-endian sequence number followed by the 8-byte MAC.
pub const AUTH_TRAILER_LEN: usize = 16;

/// The keyed MAC over `(key, sender, seq, frame)`.
fn frame_mac(key: u64, sender: DeviceAddress, seq: u64, frame: &[u8]) -> u64 {
    let mut digest = Fnv1a::default();
    digest.write(&key.to_be_bytes());
    digest.write(&sender.octets());
    digest.write(&seq.to_be_bytes());
    digest.write(frame);
    digest.finish()
}

/// Why an inbound frame was rejected before decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthReject {
    /// Too short to carry a trailer, or the MAC did not verify (forged,
    /// tampered, or replayed through a different sender).
    BadMac,
    /// The MAC verified but the sequence number was already seen (or is
    /// older than the replay window) — a byte-exact replay.
    Replayed,
}

/// Per-sender replay suppression: the highest sequence number accepted and
/// a 64-entry bitmap of recently seen ones below it.
#[derive(Debug, Clone, Copy, Default)]
struct ReplayWindow {
    highest: u64,
    seen: u64,
}

impl ReplayWindow {
    /// Accepts a sequence number exactly once; duplicates and numbers older
    /// than the 64-entry window are rejected.
    fn accept(&mut self, seq: u64) -> bool {
        if seq > self.highest {
            let shift = seq - self.highest;
            self.seen = if shift >= 64 { 0 } else { self.seen << shift };
            self.seen |= 1;
            self.highest = seq;
            return true;
        }
        let age = self.highest - seq;
        if age >= 64 {
            return false;
        }
        let bit = 1u64 << age;
        if self.seen & bit != 0 {
            return false;
        }
        self.seen |= bit;
        true
    }
}

/// Counters of everything the hardening layer did — the per-node raw
/// material of the E19 security scorecard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecurityStats {
    /// Outbound frames that received an auth trailer.
    pub frames_authenticated: u64,
    /// Trailer bytes added to outbound frames (the bandwidth overhead).
    pub auth_bytes: u64,
    /// Inbound frames dropped because their MAC did not verify.
    pub auth_rejected: u64,
    /// Inbound frames dropped by the per-sender replay window.
    pub replay_rejected: u64,
    /// Connection requests rejected because their connection id was
    /// allocated by a different device than the requester.
    pub foreign_conn_rejected: u64,
    /// Connection requests rejected because their reply context did not
    /// refer back to a connection this node initiated.
    pub bad_reply_context: u64,
    /// Session Accepts dropped because the session was not awaiting one.
    pub duplicate_accepts: u64,
    /// Frames dropped because their connection id did not match the
    /// connection classified on the arrival link.
    pub conn_mismatch_dropped: u64,
    /// Neighbour reports ignored because the reporter's reputation was
    /// exhausted.
    pub reports_skipped: u64,
    /// Reputation penalties recorded against misbehaving peers.
    pub penalties_recorded: u64,
}

impl SecurityStats {
    /// Adds another node's counters into this one (scorecard aggregation).
    pub fn absorb(&mut self, other: &SecurityStats) {
        self.frames_authenticated += other.frames_authenticated;
        self.auth_bytes += other.auth_bytes;
        self.auth_rejected += other.auth_rejected;
        self.replay_rejected += other.replay_rejected;
        self.foreign_conn_rejected += other.foreign_conn_rejected;
        self.bad_reply_context += other.bad_reply_context;
        self.duplicate_accepts += other.duplicate_accepts;
        self.conn_mismatch_dropped += other.conn_mismatch_dropped;
        self.reports_skipped += other.reports_skipped;
        self.penalties_recorded += other.penalties_recorded;
    }

    /// Mirrors the counters into a telemetry sink under the `security`
    /// subsystem (same shape as
    /// [`ResilienceStats::export`](crate::resilience::ResilienceStats::export)).
    pub fn export(&self, tel: &mut simnet::Telemetry) {
        tel.set_counter("security", "frames_authenticated", None, self.frames_authenticated);
        tel.set_counter("security", "auth_bytes", None, self.auth_bytes);
        tel.set_counter("security", "auth_rejected", None, self.auth_rejected);
        tel.set_counter("security", "replay_rejected", None, self.replay_rejected);
        tel.set_counter("security", "foreign_conn_rejected", None, self.foreign_conn_rejected);
        tel.set_counter("security", "bad_reply_context", None, self.bad_reply_context);
        tel.set_counter("security", "duplicate_accepts", None, self.duplicate_accepts);
        tel.set_counter("security", "conn_mismatch_dropped", None, self.conn_mismatch_dropped);
        tel.set_counter("security", "reports_skipped", None, self.reports_skipped);
        tel.set_counter("security", "penalties_recorded", None, self.penalties_recorded);
    }

    /// Hostile frames this node demonstrably refused: every rejection a
    /// defence produced, across all tiers.
    pub fn frames_rejected(&self) -> u64 {
        self.auth_rejected
            + self.replay_rejected
            + self.foreign_conn_rejected
            + self.bad_reply_context
            + self.duplicate_accepts
            + self.conn_mismatch_dropped
    }
}

/// Per-node runtime of the hardening layer: the enabled defences, the
/// outbound sequence counter, the per-sender replay windows and the
/// counters.
#[derive(Debug)]
pub struct Security {
    config: SecurityConfig,
    send_seq: u64,
    windows: IdTable<DeviceAddress, ReplayWindow>,
    /// Counters (read by [`SecurityStats`] consumers via `stats()`).
    pub stats: SecurityStats,
}

impl Security {
    /// Builds the runtime for the given configuration.
    pub fn new(config: SecurityConfig) -> Self {
        Security {
            config,
            send_seq: 0,
            windows: IdTable::default(),
            stats: SecurityStats::default(),
        }
    }

    /// Whether outbound frames must carry the auth trailer.
    pub fn frame_auth(&self) -> bool {
        self.config.frame_auth
    }

    /// Whether the sanity tier (protocol sanity checks and reporter
    /// reputation) is active.
    pub fn sanity_checks(&self) -> bool {
        self.config.sanity_checks
    }

    /// The counters so far.
    pub fn stats(&self) -> SecurityStats {
        self.stats
    }

    /// Appends the `[seq | MAC]` trailer to an outbound frame. The caller
    /// guarantees `frame` holds exactly the encoded wire frame.
    pub fn append_trailer(&mut self, sender: DeviceAddress, frame: &mut Vec<u8>) {
        self.send_seq += 1;
        let seq = self.send_seq;
        let mac = frame_mac(self.config.auth_key, sender, seq, frame);
        frame.extend_from_slice(&seq.to_be_bytes());
        frame.extend_from_slice(&mac.to_be_bytes());
        self.stats.frames_authenticated += 1;
        self.stats.auth_bytes += AUTH_TRAILER_LEN as u64;
    }

    /// Verifies and strips the trailer of an inbound frame from `sender`
    /// (the radio the frame physically arrived from). Returns the frame
    /// bytes without the trailer, or the rejection reason; counters are
    /// updated either way.
    pub fn verify_and_strip<'a>(&mut self, sender: DeviceAddress, frame: &'a [u8]) -> Result<&'a [u8], AuthReject> {
        let Some(body_len) = frame.len().checked_sub(AUTH_TRAILER_LEN) else {
            self.stats.auth_rejected += 1;
            return Err(AuthReject::BadMac);
        };
        let (body, trailer) = frame.split_at(body_len);
        let seq = u64::from_be_bytes(trailer[..8].try_into().expect("8-byte seq"));
        let mac = u64::from_be_bytes(trailer[8..].try_into().expect("8-byte mac"));
        if frame_mac(self.config.auth_key, sender, seq, body) != mac {
            self.stats.auth_rejected += 1;
            return Err(AuthReject::BadMac);
        }
        let window = self.windows.get_or_insert_with(sender, ReplayWindow::default);
        if !window.accept(seq) {
            self.stats.replay_rejected += 1;
            return Err(AuthReject::Replayed);
        }
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(raw: u64) -> DeviceAddress {
        DeviceAddress::from_node_raw(raw)
    }

    #[test]
    fn the_mac_is_the_keyed_fnv1a_it_always_was() {
        // Both ends compute the MAC alike and forgers carry no trailer, so
        // no simulated result would show a changed MAC function: these
        // pinned values are the only check on the function itself.
        let mac = frame_mac(0x5EC0_0D5E_C0DE_0001, addr(0x1234_5678), 42, b"hello frame");
        assert_eq!(mac, 0xb5c2_5972_338e_fbc6);
        assert_eq!(frame_mac(0, addr(0), 0, b""), 0xf697_893c_b72f_041f);
    }

    fn auth_security() -> Security {
        Security::new(SecurityConfig::auth())
    }

    #[test]
    fn trailer_roundtrips_and_strips() {
        let mut sender = auth_security();
        let mut receiver = auth_security();
        let mut frame = b"hello frame".to_vec();
        sender.append_trailer(addr(1), &mut frame);
        assert_eq!(frame.len(), 11 + AUTH_TRAILER_LEN);
        let body = receiver.verify_and_strip(addr(1), &frame).expect("valid frame");
        assert_eq!(body, b"hello frame");
        assert_eq!(sender.stats.frames_authenticated, 1);
        assert_eq!(sender.stats.auth_bytes, AUTH_TRAILER_LEN as u64);
        assert_eq!(receiver.stats.frames_rejected(), 0);
    }

    #[test]
    fn tampered_and_misattributed_frames_fail_the_mac() {
        let mut sender = auth_security();
        let mut receiver = auth_security();
        let mut frame = b"payload".to_vec();
        sender.append_trailer(addr(1), &mut frame);
        // Content tampering after the MAC was computed.
        let mut tampered = frame.clone();
        tampered[0] ^= 0xFF;
        assert_eq!(receiver.verify_and_strip(addr(1), &tampered), Err(AuthReject::BadMac));
        // The identical bytes replayed from a different radio: the sender
        // address is bound into the MAC, so the replay fails too.
        assert_eq!(receiver.verify_and_strip(addr(2), &frame), Err(AuthReject::BadMac));
        // Truncated garbage.
        assert_eq!(receiver.verify_and_strip(addr(1), b"tiny"), Err(AuthReject::BadMac));
        assert_eq!(receiver.stats.auth_rejected, 3);
    }

    #[test]
    fn wrong_key_fails() {
        let mut sender = auth_security();
        let mut other = Security::new(SecurityConfig {
            auth_key: 0xDEAD_BEEF,
            ..SecurityConfig::auth()
        });
        let mut frame = b"x".to_vec();
        sender.append_trailer(addr(1), &mut frame);
        assert_eq!(other.verify_and_strip(addr(1), &frame), Err(AuthReject::BadMac));
    }

    #[test]
    fn byte_exact_replays_hit_the_window() {
        let mut sender = auth_security();
        let mut receiver = auth_security();
        let mut frame = b"once".to_vec();
        sender.append_trailer(addr(1), &mut frame);
        assert!(receiver.verify_and_strip(addr(1), &frame).is_ok());
        assert_eq!(receiver.verify_and_strip(addr(1), &frame), Err(AuthReject::Replayed));
        assert_eq!(receiver.stats.replay_rejected, 1);
    }

    #[test]
    fn out_of_order_delivery_inside_the_window_is_accepted() {
        let mut sender = auth_security();
        let mut receiver = auth_security();
        let frames: Vec<Vec<u8>> = (0..5)
            .map(|i| {
                let mut f = vec![i as u8];
                sender.append_trailer(addr(1), &mut f);
                f
            })
            .collect();
        // Deliver 4, 0, 2, 1, 3 — all distinct, all inside the window.
        for &i in &[4usize, 0, 2, 1, 3] {
            assert!(
                receiver.verify_and_strip(addr(1), &frames[i]).is_ok(),
                "frame {i} must be accepted out of order"
            );
        }
        // Second delivery of any of them is a replay.
        assert_eq!(
            receiver.verify_and_strip(addr(1), &frames[2]),
            Err(AuthReject::Replayed)
        );
    }

    #[test]
    fn ancient_sequence_numbers_fall_off_the_window() {
        let mut w = ReplayWindow::default();
        assert!(w.accept(1));
        assert!(w.accept(100));
        assert!(!w.accept(1), "replay of an accepted seq rejected");
        assert!(!w.accept(30), "older than the 64-entry window");
        assert!(w.accept(99), "inside the window and unseen");
    }

    #[test]
    fn windows_are_per_sender() {
        let mut a = auth_security();
        let mut b = auth_security();
        let mut receiver = auth_security();
        let mut fa = b"from-a".to_vec();
        let mut fb = b"from-b".to_vec();
        a.append_trailer(addr(1), &mut fa);
        b.append_trailer(addr(2), &mut fb);
        // Both carry seq=1 but from different senders: both accepted.
        assert!(receiver.verify_and_strip(addr(1), &fa).is_ok());
        assert!(receiver.verify_and_strip(addr(2), &fb).is_ok());
    }

    #[test]
    fn stats_absorb_sums_everything() {
        let mut total = SecurityStats::default();
        let a = SecurityStats {
            frames_authenticated: 2,
            auth_bytes: 32,
            auth_rejected: 1,
            replay_rejected: 1,
            foreign_conn_rejected: 1,
            bad_reply_context: 1,
            duplicate_accepts: 1,
            conn_mismatch_dropped: 1,
            reports_skipped: 1,
            penalties_recorded: 1,
        };
        total.absorb(&a);
        total.absorb(&a);
        assert_eq!(total.frames_authenticated, 4);
        assert_eq!(total.frames_rejected(), 12);
        assert_eq!(total.reports_skipped, 2);
    }
}
