//! The bridge (interconnection) service of Ch. 4.
//!
//! Every PeerHood device runs a hidden bridge service started with the
//! daemon. It accepts PH_BRIDGE requests, opens a second connection towards
//! the next hop (or the final destination), pairs the two legs — the
//! original keeps them as *even* and *odd* entries of one connection list —
//! and from then on relays every payload between them without interpreting
//! it, with the exception of disconnects, which tear the pair down
//! (Fig. 4.4).
//!
//! This module holds the pair table; the node glue performs the actual
//! connects and sends.

use serde::{Deserialize, Serialize};
use simnet::table::IdTable;
use simnet::LinkId;

use crate::device::DeviceInfo;
use crate::ids::{ConnectionId, DeviceAddress};

/// Which side of a relayed pair a link belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BridgeSide {
    /// The leg towards the original requester (the *even* entry).
    Upstream,
    /// The leg towards the destination (the *odd* entry).
    Downstream,
}

impl BridgeSide {
    /// The opposite side.
    pub fn other(self) -> BridgeSide {
        match self {
            BridgeSide::Upstream => BridgeSide::Downstream,
            BridgeSide::Downstream => BridgeSide::Upstream,
        }
    }
}

/// One relayed connection: a pair of legs identified by the end-to-end
/// connection id.
#[derive(Debug, Clone)]
pub struct BridgePair {
    /// End-to-end connection identity.
    pub conn_id: ConnectionId,
    /// Link towards the requester.
    pub upstream: LinkId,
    /// Link towards the destination (absent while the downstream leg is still
    /// being established).
    pub downstream: Option<LinkId>,
    /// Final destination device.
    pub destination: DeviceAddress,
    /// Target service on the destination.
    pub service: String,
    /// The original client's parameters, forwarded unchanged.
    pub client: DeviceInfo,
    /// Forwarded reply-context (result routing).
    pub reply_context: Option<ConnectionId>,
    /// True once the end-to-end PH_OK has passed through.
    pub established: bool,
    /// Bytes relayed through this pair (for the experiments' accounting).
    pub relayed_bytes: u64,
    /// Messages relayed through this pair.
    pub relayed_messages: u64,
}

/// The bridge service state: the capacity-limited pair table.
#[derive(Debug, Clone, Default)]
pub struct BridgeService {
    pairs: IdTable<ConnectionId, BridgePair>,
    max_connections: usize,
    total_relayed_messages: u64,
    total_relayed_bytes: u64,
    refused: u64,
}

impl BridgeService {
    /// Creates a bridge service with the given capacity.
    pub fn new(max_connections: usize) -> Self {
        BridgeService {
            pairs: IdTable::default(),
            max_connections,
            total_relayed_messages: 0,
            total_relayed_bytes: 0,
            refused: 0,
        }
    }

    /// Number of active pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if no pair is active.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// True if a further pair can be accepted.
    pub fn has_capacity(&self) -> bool {
        self.pairs.len() < self.max_connections
    }

    /// Load as a percentage of capacity (advertised during discovery so that
    /// loaded bridges are de-preferred, §4).
    pub fn load_percent(&self) -> u8 {
        if self.max_connections == 0 {
            return 100;
        }
        ((self.pairs.len() * 100) / self.max_connections).min(100) as u8
    }

    /// Records a refused request (capacity or routing failure).
    pub fn record_refusal(&mut self) {
        self.refused += 1;
    }

    /// Number of refused bridge requests.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// Total messages relayed by this node.
    pub fn total_relayed_messages(&self) -> u64 {
        self.total_relayed_messages
    }

    /// Total payload bytes relayed by this node.
    pub fn total_relayed_bytes(&self) -> u64 {
        self.total_relayed_bytes
    }

    /// Registers a new pair whose downstream leg is not yet connected.
    pub fn insert_pending(
        &mut self,
        conn_id: ConnectionId,
        upstream: LinkId,
        destination: DeviceAddress,
        service: impl Into<String>,
        client: DeviceInfo,
        reply_context: Option<ConnectionId>,
    ) {
        self.pairs.insert(
            conn_id,
            BridgePair {
                conn_id,
                upstream,
                downstream: None,
                destination,
                service: service.into(),
                client,
                reply_context,
                established: false,
                relayed_bytes: 0,
                relayed_messages: 0,
            },
        );
    }

    /// Looks up a pair by connection id.
    pub fn get(&self, conn_id: ConnectionId) -> Option<&BridgePair> {
        self.pairs.get(&conn_id)
    }

    /// Mutable lookup by connection id.
    pub fn get_mut(&mut self, conn_id: ConnectionId) -> Option<&mut BridgePair> {
        self.pairs.get_mut(&conn_id)
    }

    /// Finds the pair one of whose legs is `link`, together with which side
    /// the link is.
    pub fn by_link(&self, link: LinkId) -> Option<(&BridgePair, BridgeSide)> {
        self.pairs.values().find_map(|p| {
            if p.upstream == link {
                Some((p, BridgeSide::Upstream))
            } else if p.downstream == Some(link) {
                Some((p, BridgeSide::Downstream))
            } else {
                None
            }
        })
    }

    /// The link on the opposite side of `link` within its pair, if the pair
    /// is complete.
    pub fn relay_target(&self, link: LinkId) -> Option<(ConnectionId, LinkId, BridgeSide)> {
        let (pair, side) = self.by_link(link)?;
        let other = match side {
            BridgeSide::Upstream => pair.downstream?,
            BridgeSide::Downstream => pair.upstream,
        };
        Some((pair.conn_id, other, side))
    }

    /// Accounts one relayed payload.
    pub fn record_relay(&mut self, conn_id: ConnectionId, bytes: usize) {
        if let Some(pair) = self.pairs.get_mut(&conn_id) {
            pair.relayed_messages += 1;
            pair.relayed_bytes += bytes as u64;
        }
        self.total_relayed_messages += 1;
        self.total_relayed_bytes += bytes as u64;
    }

    /// Removes a pair, returning it.
    pub fn remove(&mut self, conn_id: ConnectionId) -> Option<BridgePair> {
        self.pairs.remove(&conn_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MobilityClass;
    use simnet::{NodeId, RadioTech};

    fn addr(n: u64) -> DeviceAddress {
        DeviceAddress::from_node_raw(n)
    }

    fn conn(n: u64, c: u32) -> ConnectionId {
        ConnectionId::new(addr(n), c)
    }

    fn client() -> DeviceInfo {
        DeviceInfo::new(
            NodeId::from_raw(1),
            "client",
            MobilityClass::Dynamic,
            &[RadioTech::Bluetooth],
        )
    }

    fn service_with_one_pair() -> (BridgeService, ConnectionId) {
        let mut b = BridgeService::new(4);
        let id = conn(1, 0);
        b.insert_pending(id, LinkId(10), addr(9), "echo", client(), None);
        (b, id)
    }

    #[test]
    fn capacity_and_load() {
        let mut b = BridgeService::new(2);
        assert!(b.has_capacity());
        assert_eq!(b.load_percent(), 0);
        b.insert_pending(conn(1, 0), LinkId(1), addr(9), "s", client(), None);
        assert_eq!(b.load_percent(), 50);
        b.insert_pending(conn(1, 1), LinkId(2), addr(9), "s", client(), None);
        assert!(!b.has_capacity());
        assert_eq!(b.load_percent(), 100);
        b.record_refusal();
        assert_eq!(b.refused(), 1);
        let zero_cap = BridgeService::new(0);
        assert_eq!(zero_cap.load_percent(), 100);
    }

    #[test]
    fn pending_pair_has_no_relay_target_until_downstream_connects() {
        let (mut b, id) = service_with_one_pair();
        assert!(b.relay_target(LinkId(10)).is_none());
        b.get_mut(id).unwrap().downstream = Some(LinkId(20));
        let (cid, other, side) = b.relay_target(LinkId(10)).unwrap();
        assert_eq!(cid, id);
        assert_eq!(other, LinkId(20));
        assert_eq!(side, BridgeSide::Upstream);
        let (_, other, side) = b.relay_target(LinkId(20)).unwrap();
        assert_eq!(other, LinkId(10));
        assert_eq!(side, BridgeSide::Downstream);
        assert!(b.relay_target(LinkId(99)).is_none());
    }

    #[test]
    fn by_link_identifies_sides() {
        let (mut b, id) = service_with_one_pair();
        b.get_mut(id).unwrap().downstream = Some(LinkId(20));
        assert_eq!(b.by_link(LinkId(10)).unwrap().1, BridgeSide::Upstream);
        assert_eq!(b.by_link(LinkId(20)).unwrap().1, BridgeSide::Downstream);
        assert!(b.by_link(LinkId(5)).is_none());
        assert_eq!(BridgeSide::Upstream.other(), BridgeSide::Downstream);
        assert_eq!(BridgeSide::Downstream.other(), BridgeSide::Upstream);
    }

    #[test]
    fn relay_accounting() {
        let (mut b, id) = service_with_one_pair();
        b.record_relay(id, 100);
        b.record_relay(id, 50);
        // Unknown pair still counts towards node totals (defensive).
        b.record_relay(conn(2, 0), 10);
        let pair = b.get(id).unwrap();
        assert_eq!(pair.relayed_messages, 2);
        assert_eq!(pair.relayed_bytes, 150);
        assert_eq!(b.total_relayed_messages(), 3);
        assert_eq!(b.total_relayed_bytes(), 160);
    }

    #[test]
    fn remove_frees_capacity() {
        let (mut b, id) = service_with_one_pair();
        assert_eq!(b.len(), 1);
        let pair = b.remove(id).unwrap();
        assert_eq!(pair.destination, addr(9));
        assert!(b.is_empty());
        assert!(b.remove(id).is_none());
    }
}
