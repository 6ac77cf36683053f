//! Link roles and the physical connection-attempt ledger.
//!
//! Every radio connect the node starts goes through `Core::dial` and is
//! recorded with the `LinkRole` the link takes once it is up, so the
//! success and failure callbacks resume the right protocol flow: a daemon
//! information fetch, the first hop of an application connection or of a
//! server-initiated reply reconnection (§5.3), a bridge leg or a handover
//! replacement route. Once up, the link is classified by the same role in
//! `Core::roles`.

use simnet::{AttemptId, ConnectError, Ctx, LinkId, NodeId, RadioTech, SimDuration};

use crate::connection::{ConnKind, ConnState};
use crate::device::DeviceInfo;
use crate::error::{ErrorCode, PeerHoodError};
use crate::ids::{ConnectionId, DeviceAddress};
use crate::proto::Message;

use super::{Core, PeerHoodEvent, Timer};

/// Reconnect attempts a server makes to return results to a disconnected
/// client (result routing, §5.3) before it gives the connection up.
pub const MAX_REPLY_ATTEMPTS: u32 = 5;
/// Delay between those reconnect attempts.
pub const REPLY_RETRY_INTERVAL: SimDuration = SimDuration::from_secs(15);

/// What a radio link is used for: the role a dialled link takes once it is
/// up, and the role `Core::roles` classifies every live link by — §4.1's
/// engine, which identifies an incoming link's intention from its first
/// command, so that payloads and disconnects reach the daemon, the
/// connection table or the bridge service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkRole {
    /// An accepted incoming link whose first command has not arrived yet.
    IncomingUnidentified,
    /// A short daemon connection we opened to fetch device information.
    DaemonFetch {
        /// The device being interrogated.
        peer: DeviceAddress,
        /// The radio the inquiry that found the device ran on (the plugin
        /// whose fetch accounting this link belongs to).
        tech: RadioTech,
        /// Quality sampled during the inquiry that found the device.
        quality: u8,
    },
    /// A short daemon connection we are serving (we answered an inquiry).
    DaemonServe,
    /// The link carries an application connection (ours or a peer's).
    AppConnection(ConnectionId),
    /// The link is a replacement route being established by the handover
    /// machinery for the given connection; it becomes `AppConnection` once
    /// the end-to-end acknowledgement arrives.
    HandoverPending {
        /// The connection being re-routed.
        conn: ConnectionId,
        /// The device this replacement link physically connects to — the
        /// bridge the new route goes through, or the destination itself for
        /// a direct re-route. Recorded here (not recovered from the
        /// handover monitor) so the connection's `ConnKind` reflects the
        /// route actually built even when the monitor's candidate has been
        /// refreshed while the switch was in flight.
        via: DeviceAddress,
        /// True when the quality monitor started the switch while the old
        /// link was up, false for a repair after the break.
        before_break: bool,
    },
    /// Upstream leg (towards the requester) of a relayed bridge pair.
    BridgeUpstream(ConnectionId),
    /// Downstream leg (towards the destination) of a relayed bridge pair.
    BridgeDownstream(ConnectionId),
}

/// The request that opens `conn_id` over a freshly connected first hop: a
/// `ConnectRequest` when that hop is the destination itself, otherwise a
/// `BridgeRequest` the hop relays towards `destination`.
fn open_request(
    conn_id: ConnectionId,
    hop_is_destination: bool,
    destination: DeviceAddress,
    service: String,
    client: DeviceInfo,
    reply_context: Option<ConnectionId>,
) -> Message {
    if hop_is_destination {
        Message::ConnectRequest {
            conn_id,
            service,
            client,
            reply_context,
        }
    } else {
        Message::BridgeRequest {
            conn_id,
            destination,
            service,
            client,
            reply_context,
        }
    }
}

impl Core {
    /// Starts one radio connect towards `hop` for a link that takes `role`
    /// once it is up, unless the hop's circuit breaker refuses the dial;
    /// returns whether the attempt was started. Callers handle a refusal
    /// their own way.
    pub(crate) fn dial(&mut self, ctx: &mut dyn Ctx, hop: DeviceAddress, role: LinkRole) -> bool {
        if !self.resilience.allow_dial(&mut self.security.peers, hop, ctx.now()) {
            return false;
        }
        self.connect_hop(ctx, hop, role);
        true
    }

    /// [`Core::dial`] without the breaker: the one place the node starts a
    /// radio connect. Two dials take it directly. `op_connect_to` asks the
    /// breaker itself, before it allocates a connection id, so a refused
    /// dial costs nothing. A relay's downstream leg is not gated at all: it
    /// dials on a peer's behalf and answers only with the leg's own failure,
    /// which still feeds the hop's breaker.
    pub(crate) fn connect_hop(&mut self, ctx: &mut dyn Ctx, hop: DeviceAddress, role: LinkRole) {
        let tech = match role {
            // A fetch goes back out on the radio whose inquiry heard the device.
            LinkRole::DaemonFetch { tech, .. } => tech,
            _ => self.tech_towards(hop),
        };
        let attempt = ctx.connect(hop.node_id(), tech);
        self.pending.insert(attempt, role);
    }

    pub(crate) fn handle_connected(
        &mut self,
        ctx: &mut dyn Ctx,
        attempt: AttemptId,
        link: LinkId,
        peer: NodeId,
        tech: RadioTech,
    ) {
        let role = match self.pending.remove(&attempt) {
            Some(r) => r,
            None => return,
        };
        let peer = DeviceAddress::from_node(peer);
        // The radio link came up: the circuit breaker towards that physical
        // hop records the success (closing a half-open breaker).
        self.resilience.record_dial_success(&mut self.security.peers, peer);
        let request = match role {
            LinkRole::DaemonFetch { .. } => Some(Message::InquiryRequest {
                requester: self.my_info(),
            }),
            LinkRole::AppConnection(conn) => {
                // An id this node allocated is its own outgoing connection;
                // any other is a server reconnecting to its client (§5.3).
                let reply = conn.initiator() != self.my_address();
                let client = self.my_info();
                self.connections.get_mut(&conn).map(|c| {
                    c.state = ConnState::AwaitingAccept(link);
                    let direct = if reply {
                        peer == c.remote
                    } else {
                        c.kind == ConnKind::OutgoingDirect
                    };
                    open_request(conn, direct, c.remote, c.service.clone(), client, reply.then_some(conn))
                })
            }
            LinkRole::BridgeDownstream(conn) => self.bridge.get_mut(conn).map(|pair| {
                pair.downstream = Some(link);
                open_request(
                    conn,
                    peer == pair.destination,
                    pair.destination,
                    pair.service.clone(),
                    pair.client.clone(),
                    pair.reply_context,
                )
            }),
            LinkRole::HandoverPending { conn, via, .. } if self.switch_in_flight(conn) => {
                self.connections.get(&conn).map(|c| {
                    let target = self.handover_destination(c);
                    open_request(conn, via == target, target, c.service.clone(), self.my_info(), None)
                })
            }
            LinkRole::HandoverPending { .. } => None,
            // Never dialled.
            LinkRole::IncomingUnidentified | LinkRole::DaemonServe | LinkRole::BridgeUpstream(_) => None,
        };
        match request {
            Some(request) => {
                self.roles.insert(link, (role, tech));
                self.send_frame(ctx, link, &request);
            }
            // The connection, its switch or the relayed pair went away
            // during the dial.
            None => self.drop_link(ctx, link),
        }
    }

    pub(crate) fn handle_connect_failed(
        &mut self,
        ctx: &mut dyn Ctx,
        attempt: AttemptId,
        peer: NodeId,
        tech: RadioTech,
        error: ConnectError,
    ) {
        let role = match self.pending.remove(&attempt) {
            Some(r) => r,
            None => return,
        };
        let peer = DeviceAddress::from_node(peer);
        if error == ConnectError::OutOfRange {
            // The radio has lost the hop: stop offering it, and what is
            // routed through it, until it is heard again. Absence is not
            // failure, so its breaker is not charged.
            self.storage.mark_absent(peer);
        } else {
            // Any other refusal of a physical hop feeds its circuit breaker,
            // whatever protocol flow the attempt belonged to. A downed link
            // (a flap, a partition) refuses an in-range peer, which stays
            // offered.
            self.resilience
                .record_dial_failure(&mut self.security.peers, peer, ctx.now());
        }
        match role {
            LinkRole::DaemonFetch { .. } => {
                self.note_fetch_finished(ctx, tech);
            }
            // Our own connection: a provider switch takes a second chance if
            // it has one left; otherwise the app hears the failure, even if
            // it closed the connection while the radio was dialling.
            LinkRole::AppConnection(conn) if conn.initiator() == self.my_address() => {
                if !self.second_chance(ctx, conn, peer, tech, error) {
                    self.fail_connection(conn, error.to_string());
                }
            }
            LinkRole::AppConnection(conn) => {
                if let Some(c) = self.connections.get_mut(&conn) {
                    c.mark_closed();
                }
                self.schedule_reply_retry(ctx, conn);
            }
            LinkRole::BridgeDownstream(conn) => {
                // A next hop that was advertised as a route but cannot be
                // dialled is how forged neighbour reports manifest at the
                // bridge: the reputation layer charges the hop so repeated
                // phantom routes eventually stop being followed.
                self.security.penalize(peer);
                self.fail_bridge_pair(ctx, conn, ErrorCode::DownstreamFailed, "bridge leg failed".into());
            }
            LinkRole::HandoverPending { conn, .. } => {
                self.handover_attempt_failed(ctx, conn);
            }
            LinkRole::IncomingUnidentified | LinkRole::DaemonServe | LinkRole::BridgeUpstream(_) => {}
        }
    }

    /// Our own connection `conn` cannot be established: it is failed, and
    /// its app hears `failure`.
    pub(crate) fn fail_connection(&mut self, conn: ConnectionId, failure: String) {
        if let Some(c) = self.connections.get_mut(&conn) {
            c.state = ConnState::Failed;
        }
        self.events.push_back(PeerHoodEvent::ConnectFailed {
            app: self.owner_of(conn),
            conn,
            error: PeerHoodError::Remote(failure),
        });
    }

    /// The dial of `conn` towards `hop` over `tech` failed with `error`. If
    /// the dial was a provider switch's (§5.2.2), the switch takes the
    /// second chance that answers the error, once each (see
    /// [`ProviderSwitch`](crate::connection::ProviderSwitch)): a set-up fault
    /// re-dials the hop, and a refusal that says the hop cannot be reached —
    /// out of range, its link down (a flap, a partition cut) or its stack
    /// down — starts a fresh search on the radio
    /// (`Core::search_for_provider`). Returns whether it took one.
    fn second_chance(
        &mut self,
        ctx: &mut dyn Ctx,
        conn: ConnectionId,
        hop: DeviceAddress,
        tech: RadioTech,
        error: ConnectError,
    ) -> bool {
        let Some(switch) = self
            .connections
            .get_mut(&conn)
            .filter(|c| c.reconnecting)
            .and_then(|c| c.switch.as_mut())
        else {
            return false;
        };
        match error {
            ConnectError::Fault if !switch.retried => {
                switch.retried = true;
                self.dial(ctx, hop, LinkRole::AppConnection(conn))
            }
            ConnectError::OutOfRange | ConnectError::LinkDown | ConnectError::Unreachable if !switch.searched => {
                switch.searched = true;
                self.search_for_provider(ctx, conn, tech, error)
            }
            _ => false,
        }
    }

    pub(crate) fn schedule_reply_retry(&mut self, ctx: &mut dyn Ctx, conn: ConnectionId) {
        let attempts = match self.connections.get_mut(&conn) {
            Some(c) => {
                c.reconnect_attempts += 1;
                c.reconnect_attempts
            }
            None => return,
        };
        if attempts > MAX_REPLY_ATTEMPTS {
            self.end_for_app(conn, false);
            return;
        }
        self.schedule(ctx, REPLY_RETRY_INTERVAL, Timer::ReplyRetry(conn));
    }

    /// Dials the client of the server's connection `conn` to return its
    /// queued results (Fig. 5.10). Only a closed connection with results
    /// queued is dialled: one being dialled or awaiting its `Accept` flushes
    /// them once it is established.
    pub(crate) fn try_reply_reconnect(&mut self, ctx: &mut dyn Ctx, conn: ConnectionId) {
        let remote = match self.connections.get(&conn) {
            Some(c) if c.state == ConnState::Closed && !c.outbox.is_empty() => c.remote,
            _ => return,
        };
        // Fig. 5.10: look the client up in the device storage and reconnect.
        let Some(first_hop) = self.storage.get(remote).map(|entry| entry.route.first_hop(remote)) else {
            self.schedule_reply_retry(ctx, conn);
            return;
        };
        // An open breaker towards the hop turns the dial into a scheduled
        // retry: the bounded retry budget is not burned on a hop known bad.
        if !self.dial(ctx, first_hop, LinkRole::AppConnection(conn)) {
            self.schedule_reply_retry(ctx, conn);
            return;
        }
        if let Some(c) = self.connections.get_mut(&conn) {
            c.state = ConnState::Connecting;
        }
    }
}
