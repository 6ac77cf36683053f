//! Protocol hardening: frame authentication, replay suppression, reporter
//! reputation, the counters behind the hostile-city security scorecard, and
//! the one table every defence keeps its per-peer state in.
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
//! * **reporter reputation** — at the sanity tier a peer caught misbehaving
//!   accrues a penalty, and one with [`REPORTER_PENALTY_LIMIT`] of them has
//!   its neighbour reports ignored.
//! * **[`SecurityStats`]** — every defence counts what it rejected, and the
//!   scorecard sums these across the city.
//!
//! A peer's row of the [`PeerTable`] holds its replay window, its penalties,
//! and the breaker and admission log of the [resilience
//! pipeline](crate::resilience), whose gates are handed the table. A row is
//! made where a defence first has something to hold and is never evicted.
//!
//! The MAC is a simulation stand-in measuring the *cost and rejection
//! behaviour* of authenticated framing, not a cryptographic primitive.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use simnet::table::IdTable;
use simnet::telemetry::Fnv1a;
use simnet::{NodeId, SimTime};

use crate::config::SecurityConfig;
use crate::connection::{AppConnection, ConnKind};
use crate::error::ErrorCode;
use crate::ids::{ConnectionId, DeviceAddress};
use crate::resilience::CircuitBreaker;

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

/// Security rejections (or dead bridge routes) a peer may accrue before its
/// neighbour reports are ignored entirely. Penalties are only ever recorded
/// at the sanity tier, so below it nobody reaches the limit.
pub const REPORTER_PENALTY_LIMIT: u32 = 3;

/// One peer's row of the [`PeerTable`]: a column per defence.
#[derive(Debug, Clone, Default)]
pub struct Peer {
    window: ReplayWindow,
    /// Reputation penalties: a peer whose frames triggered security
    /// rejections, or whose bridge routes failed to dial, accrues them here.
    /// They outlive the peer's storage row; only a restart forgives.
    pub(crate) penalties: u32,
    /// The circuit breaker towards the peer (resilience layer 1).
    pub(crate) breaker: CircuitBreaker,
    /// When the peer's recent incoming connections were admitted, oldest
    /// first (resilience layer 3).
    pub(crate) admits: VecDeque<SimTime>,
}

/// Every defence's per-peer state, one [`Peer`] row per address.
pub type PeerTable = IdTable<DeviceAddress, Peer>;

simnet::counter_table! {
    /// Counters of everything the hardening layer did — the per-node raw
    /// material of the E19 security scorecard, mirrored as the `security/*`
    /// series.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct SecurityStats in "security" {
        /// Outbound frames that received an auth trailer.
        pub frames_authenticated: u64 => counter "frames_authenticated",
        /// Trailer bytes added to outbound frames (the bandwidth overhead).
        pub auth_bytes: u64 => counter "auth_bytes",
        /// Inbound frames dropped because their MAC did not verify.
        pub auth_rejected: u64 => counter "auth_rejected",
        /// Inbound frames dropped by the per-sender replay window.
        pub replay_rejected: u64 => counter "replay_rejected",
        /// Connection requests rejected because their connection id was
        /// allocated by a different device than the requester.
        pub foreign_conn_rejected: u64 => counter "foreign_conn_rejected",
        /// Connection requests rejected because their reply context did not
        /// refer back to a connection this node initiated.
        pub bad_reply_context: u64 => counter "bad_reply_context",
        /// Session Accepts dropped because the session was not awaiting one.
        pub duplicate_accepts: u64 => counter "duplicate_accepts",
        /// Frames dropped because their connection id did not match the
        /// connection classified on the arrival link.
        pub conn_mismatch_dropped: u64 => counter "conn_mismatch_dropped",
        /// Neighbour reports ignored because the reporter's reputation was
        /// exhausted.
        pub reports_skipped: u64 => counter "reports_skipped",
        /// Reputation penalties recorded against misbehaving peers.
        pub penalties_recorded: u64 => counter "penalties_recorded",
    }
}

impl SecurityStats {
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
/// outbound sequence counter, the peer table, the counters, and a verdict per
/// frame-path step that checks its tier, counts its reason and charges its
/// penalty.
#[derive(Debug)]
pub struct Security {
    config: SecurityConfig,
    send_seq: u64,
    /// Every defence's per-peer state.
    pub(crate) peers: PeerTable,
    stats: SecurityStats,
}

impl Security {
    /// Builds the runtime for the given configuration.
    pub fn new(config: SecurityConfig) -> Self {
        Security {
            config,
            send_seq: 0,
            peers: PeerTable::default(),
            stats: SecurityStats::default(),
        }
    }

    /// Whether outbound frames must carry the auth trailer.
    pub fn frame_auth(&self) -> bool {
        self.config.frame_auth
    }

    /// The counters so far.
    pub fn stats(&self) -> SecurityStats {
        self.stats
    }

    /// Records a reputation penalty against a peer one of the defences
    /// caught misbehaving (no-op below the sanity tier).
    pub(crate) fn penalize(&mut self, peer: DeviceAddress) {
        if self.config.sanity_checks {
            let penalties = &mut self.peers.get_or_insert_with(peer, Peer::default).penalties;
            *penalties = penalties.saturating_add(1);
            self.stats.penalties_recorded += 1;
        }
    }

    /// The inbound auth step: `frame` from `sender` without its trailer, or
    /// `None` when [`Security::verify_and_strip`] fails it and the sender is
    /// penalised. Without frame auth the frame is already bare.
    pub(crate) fn open<'a>(&mut self, sender: DeviceAddress, frame: &'a [u8]) -> Option<&'a [u8]> {
        if !self.config.frame_auth {
            return Some(frame);
        }
        let body = self.verify_and_strip(sender, frame).ok();
        if body.is_none() {
            self.penalize(sender);
        }
        body
    }

    /// The outbound auth step: appends the trailer to the encoded frame when
    /// frame auth is on.
    pub(crate) fn seal(&mut self, sender: DeviceAddress, frame: &mut Vec<u8>) {
        if self.config.frame_auth {
            self.append_trailer(sender, frame);
        }
    }

    /// The sanity check of a connection request from `client` to `me`: a §5.3
    /// reply context must name a session `me` allocated, and a session `me`
    /// does not know an id `client` allocated. Anything else is a forged or
    /// replayed frame hijacking or pre-poisoning someone else's session.
    pub(crate) fn admits_connect_request(
        &mut self,
        me: DeviceAddress,
        client: DeviceAddress,
        conn_id: ConnectionId,
        reply_context: Option<ConnectionId>,
        known: bool,
    ) -> bool {
        if !self.config.sanity_checks {
            return true;
        }
        let counter = match reply_context {
            Some(orig) if orig.initiator() != me => &mut self.stats.bad_reply_context,
            None if !known && conn_id.initiator() != client => &mut self.stats.foreign_conn_rejected,
            _ => return true,
        };
        *counter += 1;
        self.penalize(client);
        false
    }

    /// The routing-loop check of a bridge request from `from`: whether its
    /// next `hop` leads back to `from`, bouncing the frame between the two
    /// until bridge capacity runs out. Forged neighbour reports make exactly
    /// such cycles (a hostile's advertised provider resolves to itself).
    pub(crate) fn refuses_reflection(&self, hop: DeviceAddress, from: NodeId) -> bool {
        self.config.sanity_checks && hop.node_id() == from
    }

    /// The session check of a frame on `conn`'s link: one that `names`
    /// another session is spliced or tampered, and is dropped and counted.
    pub(crate) fn admits_session_frame(&mut self, conn: ConnectionId, names: Option<ConnectionId>) -> bool {
        let spliced = self.config.sanity_checks && names.is_some_and(|id| id != conn);
        self.stats.conn_mismatch_dropped += u64::from(spliced);
        !spliced
    }

    /// Counts an `Accept` for a session that awaited none: a replay, which
    /// the state machine ignores anyway.
    pub(crate) fn note_unawaited_accept(&mut self) {
        self.stats.duplicate_accepts += u64::from(self.config.sanity_checks);
    }

    /// Reporter reputation: whether the neighbour report of `reporter` may be
    /// integrated. One with [`REPORTER_PENALTY_LIMIT`] penalties keeps its
    /// direct entry, but a caught node cannot go on poisoning routes.
    pub(crate) fn admits_report(&mut self, reporter: DeviceAddress) -> bool {
        let blocked = self.peers.get(&reporter).map_or(0, |row| row.penalties) >= REPORTER_PENALTY_LIMIT;
        self.stats.reports_skipped += u64::from(blocked);
        !blocked
    }

    /// Charges whoever vouched for an outgoing `attempt` refused with `code`:
    /// the bridge of one that died downstream advertised a hop it cannot
    /// reach, and the first hop of one refused a service spoofed it.
    pub(crate) fn blame_refusal(&mut self, code: &ErrorCode, attempt: &AppConnection) {
        let blamed = match (code, &attempt.kind) {
            (ErrorCode::DownstreamFailed | ErrorCode::NoRouteToDestination, ConnKind::OutgoingBridged { bridge }) => {
                Some(*bridge)
            }
            (ErrorCode::ServiceUnavailable, kind) => kind.first_hop(attempt.remote),
            _ => None,
        };
        if let Some(peer) = blamed {
            self.penalize(peer);
        }
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
        if !self.peers.get_or_insert_with(sender, Peer::default).window.accept(seq) {
            self.stats.replay_rejected += 1;
            return Err(AuthReject::Replayed);
        }
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{
        BreakerState, Resilience, ResilienceConfig, ResilienceStats, COOLDOWN, FAILURE_THRESHOLD, FLAP_THRESHOLD,
        FLAP_WINDOW, MAX_SESSIONS, PER_PEER_RATE, PER_PEER_WINDOW, PROBE_SUCCESSES,
    };
    use simnet::rng::SimRng;
    use simnet::SimDuration;
    use std::collections::{BTreeMap, BTreeSet};

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
    fn without_frame_auth_frames_pass_bare_and_nothing_is_counted() {
        let mut sanity = Security::new(SecurityConfig::sanity());
        let mut frame = b"bare".to_vec();
        sanity.seal(addr(1), &mut frame);
        assert_eq!(frame, b"bare");
        assert_eq!(sanity.open(addr(1), &frame), Some(&b"bare"[..]));
        assert_eq!(sanity.open(addr(1), b""), Some(&b""[..]));
        assert_eq!(sanity.stats, SecurityStats::default());
        assert!(sanity.peers.is_empty());
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
    fn reputation_penalties_block_reporters_only_when_armed() {
        // Penalties (recorded only at the sanity tier, which is what arms
        // the defence) accrue; the one that reaches REPORTER_PENALTY_LIMIT
        // blocks.
        let mut armed = Security::new(SecurityConfig::sanity());
        armed.penalize(addr(9));
        armed.penalize(addr(9));
        assert_eq!(armed.peers.get(&addr(9)).map(|row| row.penalties), Some(2));
        assert!(armed.admits_report(addr(9)));
        armed.penalize(addr(9));
        assert!(!armed.admits_report(addr(9)));
        assert!(armed.admits_report(addr(10)), "other peers unaffected");
        assert_eq!(armed.stats.penalties_recorded, 3);
        assert_eq!(armed.stats.reports_skipped, 1);
        // Below the tier none is recorded, and no row is created.
        let mut off = Security::new(SecurityConfig::off());
        for _ in 0..=REPORTER_PENALTY_LIMIT {
            off.penalize(addr(9));
        }
        assert!(off.admits_report(addr(9)));
        assert!(off.peers.is_empty());
        assert_eq!(off.stats, SecurityStats::default());
    }

    #[test]
    fn a_peer_row_stays_120_bytes() {
        let size = std::mem::size_of::<(DeviceAddress, Peer)>();
        assert_eq!(
            size, 120,
            "a peer-table entry is {size} bytes. A row is never evicted: at the end of a seed-20080815 \
             city_hostile run the nodes hold ~134 k of them, so every byte here is paid that often (see the \
             census in ROADMAP item 11)."
        );
    }

    /// The circuit breaker as it was kept in its own map: the flap log
    /// pruned by microsecond arithmetic measured from the epoch.
    struct MapBreaker {
        state: BreakerState,
        failures: u32,
        breaks: VecDeque<SimTime>,
        opened_at: SimTime,
        probes: u32,
    }

    impl MapBreaker {
        fn new() -> Self {
            MapBreaker {
                state: BreakerState::Closed,
                failures: 0,
                breaks: VecDeque::new(),
                opened_at: SimTime::ZERO,
                probes: 0,
            }
        }

        fn trip(&mut self, now: SimTime) -> bool {
            (self.state, self.opened_at, self.failures, self.probes) = (BreakerState::Open, now, 0, 0);
            true
        }

        fn allow(&mut self, now: SimTime) -> bool {
            if self.state != BreakerState::Open {
                return true;
            }
            if now.saturating_since(self.opened_at) < COOLDOWN {
                return false;
            }
            (self.state, self.probes) = (BreakerState::HalfOpen, 0);
            true
        }

        fn success(&mut self) {
            match self.state {
                BreakerState::Closed => self.failures = 0,
                BreakerState::HalfOpen => {
                    self.probes += 1;
                    if self.probes >= PROBE_SUCCESSES {
                        (self.state, self.failures) = (BreakerState::Closed, 0);
                        self.breaks.clear();
                    }
                }
                BreakerState::Open => {}
            }
        }

        fn failure(&mut self, now: SimTime) -> bool {
            match self.state {
                BreakerState::HalfOpen => self.trip(now),
                BreakerState::Closed => {
                    self.failures += 1;
                    self.failures >= FAILURE_THRESHOLD && self.trip(now)
                }
                BreakerState::Open => false,
            }
        }

        fn flap(&mut self, now: SimTime) -> bool {
            let horizon = now.saturating_since(SimTime::ZERO).as_micros();
            while let Some(first) = self.breaks.front() {
                if horizon.saturating_sub(first.saturating_since(SimTime::ZERO).as_micros()) > FLAP_WINDOW.as_micros() {
                    self.breaks.pop_front();
                } else {
                    break;
                }
            }
            self.breaks.push_back(now);
            match self.state {
                BreakerState::HalfOpen => self.trip(now),
                BreakerState::Closed => self.breaks.len() >= FLAP_THRESHOLD && self.trip(now),
                BreakerState::Open => false,
            }
        }
    }

    /// The per-peer state as four maps, each with its own lifetime: the
    /// replay windows, the penalties, the breakers and the admission logs.
    struct FourMaps {
        sanity: bool,
        pipeline: bool,
        windows: BTreeMap<DeviceAddress, ReplayWindow>,
        penalties: BTreeMap<DeviceAddress, u32>,
        breakers: BTreeMap<DeviceAddress, MapBreaker>,
        admits: BTreeMap<DeviceAddress, VecDeque<SimTime>>,
        security: SecurityStats,
        resilience: ResilienceStats,
    }

    impl FourMaps {
        fn verify(&mut self, key: u64, sender: DeviceAddress, frame: &[u8]) -> Result<Vec<u8>, AuthReject> {
            let Some(body_len) = frame.len().checked_sub(AUTH_TRAILER_LEN) else {
                self.security.auth_rejected += 1;
                return Err(AuthReject::BadMac);
            };
            let (body, trailer) = frame.split_at(body_len);
            let seq = u64::from_be_bytes(trailer[..8].try_into().unwrap());
            if frame_mac(key, sender, seq, body) != u64::from_be_bytes(trailer[8..].try_into().unwrap()) {
                self.security.auth_rejected += 1;
                return Err(AuthReject::BadMac);
            }
            if !self.windows.entry(sender).or_default().accept(seq) {
                self.security.replay_rejected += 1;
                return Err(AuthReject::Replayed);
            }
            Ok(body.to_vec())
        }

        fn penalize(&mut self, peer: DeviceAddress) {
            if self.sanity {
                *self.penalties.entry(peer).or_default() += 1;
                self.security.penalties_recorded += 1;
            }
        }

        fn blocked(&self, peer: DeviceAddress) -> bool {
            self.penalties.get(&peer).is_some_and(|p| *p >= REPORTER_PENALTY_LIMIT)
        }

        /// The node's inbound auth step as it was written in the handler.
        fn open(&mut self, key: u64, sender: DeviceAddress, frame: &[u8]) -> Result<Vec<u8>, AuthReject> {
            let verdict = self.verify(key, sender, frame);
            if verdict.is_err() {
                self.penalize(sender);
            }
            verdict
        }

        // The sanity checks as the protocol handlers wrote them inline.

        fn connect_request(
            &mut self,
            me: DeviceAddress,
            client: DeviceAddress,
            conn_id: ConnectionId,
            reply_context: Option<ConnectionId>,
            known: bool,
        ) -> bool {
            if self.sanity {
                if let Some(orig) = reply_context {
                    if orig.initiator() != me {
                        self.security.bad_reply_context += 1;
                        self.penalize(client);
                        return false;
                    }
                } else if !known && conn_id.initiator() != client {
                    self.security.foreign_conn_rejected += 1;
                    self.penalize(client);
                    return false;
                }
            }
            true
        }

        fn session_frame(&mut self, conn: ConnectionId, names: Option<ConnectionId>) -> bool {
            if self.sanity && names.is_some_and(|id| id != conn) {
                self.security.conn_mismatch_dropped += 1;
                return false;
            }
            true
        }

        fn unawaited_accept(&mut self) {
            if self.sanity {
                self.security.duplicate_accepts += 1;
            }
        }

        fn report(&mut self, reporter: DeviceAddress) -> bool {
            let blocked = self.blocked(reporter);
            if blocked {
                self.security.reports_skipped += 1;
            }
            !blocked
        }

        fn refusal(&mut self, code: &ErrorCode, c: &AppConnection) {
            let blame = match code {
                ErrorCode::DownstreamFailed | ErrorCode::NoRouteToDestination => match &c.kind {
                    ConnKind::OutgoingBridged { bridge } => Some(*bridge),
                    _ => None,
                },
                ErrorCode::ServiceUnavailable => c.kind.first_hop(c.remote),
                _ => None,
            };
            if let Some(peer) = blame {
                self.penalize(peer);
            }
        }

        fn allow_dial(&mut self, peer: DeviceAddress, now: SimTime) -> bool {
            if !self.pipeline {
                return true;
            }
            let breaker = self.breakers.entry(peer).or_insert_with(MapBreaker::new);
            let was_open = breaker.state == BreakerState::Open;
            let ok = breaker.allow(now);
            match (ok, was_open) {
                (true, true) => self.resilience.breaker_probes += 1,
                (false, _) => self.resilience.breaker_blocked += 1,
                _ => {}
            }
            ok
        }

        fn dial_success(&mut self, peer: DeviceAddress) {
            if let Some(breaker) = self.breakers.get_mut(&peer).filter(|_| self.pipeline) {
                breaker.success();
            }
        }

        fn dial_failure(&mut self, peer: DeviceAddress, now: SimTime) {
            if self.pipeline && self.breakers.entry(peer).or_insert_with(MapBreaker::new).failure(now) {
                self.resilience.breaker_trips += 1;
            }
        }

        fn link_break(&mut self, peer: DeviceAddress, now: SimTime) {
            if self.pipeline && self.breakers.entry(peer).or_insert_with(MapBreaker::new).flap(now) {
                self.resilience.breaker_trips += 1;
            }
        }

        fn admit(&mut self, peer: DeviceAddress, now: SimTime, sessions: usize) -> bool {
            if !self.pipeline {
                return true;
            }
            if sessions >= MAX_SESSIONS {
                self.resilience.rejected_sessions += 1;
                return false;
            }
            let recent = self.admits.entry(peer).or_default();
            while let Some(first) = recent.front() {
                if now.saturating_since(*first) > PER_PEER_WINDOW {
                    recent.pop_front();
                } else {
                    break;
                }
            }
            if recent.len() >= PER_PEER_RATE {
                self.resilience.rejected_rate += 1;
                return false;
            }
            recent.push_back(now);
            self.resilience.admitted += 1;
            true
        }

        fn resilience_stats(&self) -> ResilienceStats {
            let population = |state| self.breakers.values().filter(|b| b.state == state).count();
            ResilienceStats {
                breakers_open: population(BreakerState::Open),
                breakers_half_open: population(BreakerState::HalfOpen),
                ..self.resilience.clone()
            }
        }

        fn keys(&self) -> BTreeSet<DeviceAddress> {
            let windows = self.windows.keys().chain(self.penalties.keys());
            windows
                .chain(self.breakers.keys())
                .chain(self.admits.keys())
                .copied()
                .collect()
        }
    }

    /// The one peer table against the four maps it replaced, over 16 peers
    /// and an advancing clock, with the sanity tier and the resilience
    /// pipeline each on and off: every verdict, both stats snapshots, every
    /// breaker's state and the set of peers with a row must agree after
    /// every step. The model decides the sanity checks as the protocol
    /// handlers once did inline, so the verdicts are held to that too.
    #[test]
    fn the_peer_table_answers_what_four_maps_answered() {
        let mut reached = ResilienceStats::default();
        let (mut replays, mut blocks, mut sanity_refusals) = (0, 0, 0);
        for (sanity, pipeline) in [(true, true), (true, false), (false, true), (false, false)] {
            for seed in 0..3 {
                let mut rng = SimRng::new(0x9EE5 + seed);
                let config = SecurityConfig {
                    sanity_checks: sanity,
                    ..SecurityConfig::auth()
                };
                let key = config.auth_key;
                let mut security = Security::new(config);
                let mut resilience = Resilience::new(ResilienceConfig { enabled: pipeline });
                let mut m = FourMaps {
                    sanity,
                    pipeline,
                    windows: BTreeMap::new(),
                    penalties: BTreeMap::new(),
                    breakers: BTreeMap::new(),
                    admits: BTreeMap::new(),
                    security: SecurityStats::default(),
                    resilience: ResilienceStats::default(),
                };
                // Each peer signs with its own sequence counter; `sent` keeps
                // recent frames, delivered or held back, for replays and
                // forgeries.
                let mut senders: Vec<Security> = (0..=16).map(|_| auth_security()).collect();
                let mut sent: Vec<(DeviceAddress, Vec<u8>)> = Vec::new();
                let mut now = SimTime::ZERO;
                for step in 0..1_500 {
                    now += match rng.range(0u8..50) {
                        0 => SimDuration::from_secs(rng.range(30u64..90)),
                        _ => SimDuration::from_millis(250 * rng.range(0u64..8)),
                    };
                    // A few peers are busy; a burst repeats one step.
                    let raw = if rng.chance(0.5) {
                        rng.range(1u64..=4)
                    } else {
                        rng.range(1u64..=16)
                    };
                    let peer = addr(raw);
                    let burst = if rng.chance(0.2) { rng.range(2usize..9) } else { 1 };
                    let op = rng.range(0u8..16);
                    for _ in 0..burst {
                        now += SimDuration::from_millis(250 * rng.range(0u64..3));
                        let at = format!("sanity {sanity} pipeline {pipeline} seed {seed} step {step} op {op}");
                        match op {
                            0..=2 => {
                                let (sender, frame) = match op {
                                    // A fresh frame, delivered now or held back.
                                    0 => {
                                        let mut frame = vec![step as u8, raw as u8];
                                        senders[raw as usize].append_trailer(peer, &mut frame);
                                        sent.push((peer, frame.clone()));
                                        if rng.chance(0.3) {
                                            continue;
                                        }
                                        (peer, frame)
                                    }
                                    // A replay, or a late delivery of a held frame.
                                    1 if !sent.is_empty() => sent[rng.index(sent.len())].clone(),
                                    // A forgery: tampered, misattributed or truncated.
                                    _ if !sent.is_empty() => {
                                        let (sender, mut frame) = sent[rng.index(sent.len())].clone();
                                        match rng.range(0u8..3) {
                                            0 => frame[0] ^= 0x5A,
                                            1 => *frame.last_mut().unwrap() ^= 1,
                                            _ => frame.truncate(rng.index(AUTH_TRAILER_LEN)),
                                        }
                                        let sender = if rng.chance(0.3) {
                                            addr(rng.range(1u64..=16))
                                        } else {
                                            sender
                                        };
                                        (sender, frame)
                                    }
                                    _ => continue,
                                };
                                let verdict = security.open(sender, &frame).map(<[u8]>::to_vec);
                                let expected = m.open(key, sender, &frame);
                                assert_eq!(verdict, expected.clone().ok(), "{at}");
                                replays += usize::from(expected == Err(AuthReject::Replayed));
                                if sent.len() > 48 {
                                    sent.remove(0);
                                }
                            }
                            3 => {
                                let allowed = resilience.allow_dial(&mut security.peers, peer, now);
                                assert_eq!(allowed, m.allow_dial(peer, now), "{at}");
                            }
                            4 => {
                                resilience.record_dial_success(&mut security.peers, peer);
                                m.dial_success(peer);
                            }
                            // A failed dial, or a crash, which the node books as one.
                            5 | 6 => {
                                resilience.record_dial_failure(&mut security.peers, peer, now);
                                m.dial_failure(peer, now);
                            }
                            7 => {
                                resilience.record_link_break(&mut security.peers, peer, now);
                                m.link_break(peer, now);
                            }
                            8 => {
                                let sessions = if rng.chance(0.9) {
                                    rng.range(0..MAX_SESSIONS)
                                } else {
                                    rng.range(MAX_SESSIONS..MAX_SESSIONS + 3)
                                };
                                let admitted = resilience.admit(&mut security.peers, peer, now, || sessions);
                                assert_eq!(admitted, m.admit(peer, now, sessions), "{at}");
                            }
                            9 => {
                                security.penalize(peer);
                                m.penalize(peer);
                            }
                            10 => {
                                let admitted = security.admits_report(peer);
                                assert_eq!(admitted, m.report(peer), "{at}");
                                blocks += usize::from(!admitted);
                            }
                            // A connection request from `peer`, with ids of
                            // four allocators, this node's among them.
                            11 => {
                                let id = |rng: &mut SimRng| ConnectionId::new(addr(rng.range(0u64..4)), 1);
                                let conn_id = id(&mut rng);
                                let reply_context = rng.chance(0.5).then(|| id(&mut rng));
                                let known = rng.chance(0.3);
                                let me = addr(0);
                                let admitted = security.admits_connect_request(me, peer, conn_id, reply_context, known);
                                let expected = m.connect_request(me, peer, conn_id, reply_context, known);
                                assert_eq!(admitted, expected, "{at}");
                                sanity_refusals += usize::from(!admitted);
                            }
                            12 => {
                                let conn = ConnectionId::new(peer, 1);
                                let names = match rng.range(0u8..3) {
                                    0 => None,
                                    1 => Some(conn),
                                    _ => Some(ConnectionId::new(peer, 2)),
                                };
                                let admitted = security.admits_session_frame(conn, names);
                                assert_eq!(admitted, m.session_frame(conn, names), "{at}");
                            }
                            13 => {
                                security.note_unawaited_accept();
                                m.unawaited_accept();
                            }
                            14 => {
                                let from = addr(rng.range(1u64..=4)).node_id();
                                let reflected = sanity && peer.node_id() == from;
                                assert_eq!(security.refuses_reflection(peer, from), reflected, "{at}");
                            }
                            // A refused outgoing attempt, dialled directly or
                            // through a bridge.
                            _ => {
                                let code = [
                                    ErrorCode::DownstreamFailed,
                                    ErrorCode::NoRouteToDestination,
                                    ErrorCode::ServiceUnavailable,
                                    ErrorCode::BridgeBusy,
                                ][rng.index(4)];
                                let bridge = rng.chance(0.5).then(|| addr(rng.range(1u64..=16)));
                                let kind = crate::connection::ConnKind::outgoing(bridge);
                                let attempt =
                                    AppConnection::outgoing(ConnectionId::new(addr(0), 1), peer, "svc", kind, None);
                                security.blame_refusal(&code, &attempt);
                                m.refusal(&code, &attempt);
                            }
                        }
                        assert_eq!(security.stats(), m.security, "{at}");
                        let stats = resilience.stats(&security.peers);
                        assert_eq!(stats, m.resilience_stats(), "{at}");
                        let peers = &security.peers;
                        for (address, row) in peers.iter() {
                            let model = m.breakers.get(&address).map_or(BreakerState::Closed, |b| b.state);
                            assert_eq!(row.breaker.state(), model, "{at}: {address}");
                        }
                        assert!(
                            peers.keys().eq(m.keys()),
                            "{at}: rows {:?}",
                            peers.keys().collect::<Vec<_>>()
                        );
                    }
                }
                reached.absorb(&resilience.stats(&security.peers));
            }
        }
        // What the generators must have reached.
        assert!(
            replays > 50 && blocks > 50 && sanity_refusals > 50,
            "{replays} replays, {blocks} blocked reports, {sanity_refusals} refused connection requests"
        );
        for (what, count) in [
            ("trips", reached.breaker_trips),
            ("blocked dials", reached.breaker_blocked),
            ("probes", reached.breaker_probes),
            ("session rejections", reached.rejected_sessions),
            ("rate rejections", reached.rejected_rate),
        ] {
            assert!(count > 20, "{count} {what}");
        }
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
