//! The physical connection-attempt ledger.
//!
//! Every radio-level connect the node starts is recorded with a
//! [`PendingPurpose`] so the success and failure callbacks can resume the
//! right protocol flow: a daemon information fetch, the first hop of an
//! application connection, a bridge leg, a handover replacement route or a
//! server-initiated reply reconnection (§5.3).

use simnet::{AttemptId, ConnectError, Ctx, LinkId, NodeId, RadioTech};

use crate::connection::{ConnKind, ConnState};
use crate::error::{ErrorCode, PeerHoodError};
use crate::ids::{ConnectionId, DeviceAddress};
use crate::proto::Message;

use super::{token, Core, PeerHoodEvent, KIND_RETRY};

/// Why a physical connection attempt was started.
#[derive(Debug, Clone)]
pub enum PendingPurpose {
    /// Daemon information fetch towards a device found by an inquiry.
    DaemonFetch {
        /// The device being interrogated.
        peer: DeviceAddress,
        /// The radio the inquiry ran on.
        tech: RadioTech,
        /// Quality sampled during the inquiry.
        quality: u8,
    },
    /// First hop of an outgoing application connection.
    AppConnect {
        /// The logical connection being established.
        conn: ConnectionId,
    },
    /// Downstream leg of a relayed bridge pair.
    BridgeLeg {
        /// The relayed connection.
        conn: ConnectionId,
    },
    /// Replacement route being built by the handover machinery.
    Handover {
        /// The connection being re-routed.
        conn: ConnectionId,
        /// The bridge the replacement route goes through.
        via: DeviceAddress,
    },
    /// Server re-connecting to a client to deliver queued results (§5.3).
    ReplyConnect {
        /// The waiting server-side connection.
        conn: ConnectionId,
    },
}

impl Core {
    pub(crate) fn handle_connected(
        &mut self,
        ctx: &mut dyn Ctx,
        attempt: AttemptId,
        link: LinkId,
        _peer: NodeId,
        _tech: RadioTech,
    ) {
        let purpose = match self.pending.remove(&attempt) {
            Some(p) => p,
            None => return,
        };
        // The radio link came up: the circuit breaker towards that physical
        // hop records the success (closing a half-open breaker).
        self.resilience.record_dial_success(DeviceAddress::from_node(_peer));
        match purpose {
            PendingPurpose::DaemonFetch { peer, tech, quality } => {
                self.engine
                    .set_role(link, crate::engine::LinkRole::DaemonFetch { peer, tech, quality });
                let requester = self.my_info();
                self.send_frame(ctx, link, &Message::InquiryRequest { requester });
            }
            PendingPurpose::AppConnect { conn } => {
                let (message, ok) = match self.connections.get_mut(conn) {
                    Some(c) => {
                        c.link = Some(link);
                        c.state = ConnState::AwaitingAccept;
                        let client = self.daemon.info().clone();
                        let msg = match &c.kind {
                            ConnKind::OutgoingDirect => Message::ConnectRequest {
                                conn_id: conn,
                                service: c.service.clone(),
                                client,
                                reply_context: None,
                            },
                            ConnKind::OutgoingBridged { .. } => Message::BridgeRequest {
                                conn_id: conn,
                                destination: c.remote,
                                service: c.service.clone(),
                                client,
                                reply_context: None,
                            },
                            ConnKind::Incoming { .. } => Message::ConnectRequest {
                                conn_id: conn,
                                service: c.service.clone(),
                                client,
                                reply_context: Some(conn),
                            },
                        };
                        (msg, true)
                    }
                    None => (Message::Disconnect { conn_id: conn }, false),
                };
                if ok {
                    self.engine.set_role(link, crate::engine::LinkRole::AppConnection(conn));
                    self.send_frame(ctx, link, &message);
                } else {
                    ctx.close(link);
                }
            }
            PendingPurpose::BridgeLeg { conn } => {
                let peer_addr = DeviceAddress::from_node(_peer);
                let message = match self.bridge.get_mut(conn) {
                    Some(pair) => {
                        pair.downstream = Some(link);
                        if peer_addr == pair.destination {
                            Message::ConnectRequest {
                                conn_id: conn,
                                service: pair.service.clone(),
                                client: pair.client.clone(),
                                reply_context: pair.reply_context,
                            }
                        } else {
                            Message::BridgeRequest {
                                conn_id: conn,
                                destination: pair.destination,
                                service: pair.service.clone(),
                                client: pair.client.clone(),
                                reply_context: pair.reply_context,
                            }
                        }
                    }
                    None => {
                        ctx.close(link);
                        return;
                    }
                };
                self.engine
                    .set_role(link, crate::engine::LinkRole::BridgeDownstream(conn));
                self.send_frame(ctx, link, &message);
            }
            PendingPurpose::Handover { conn, via } => {
                let message = match self.connections.get(conn) {
                    Some(c) => {
                        let target = self.handover_destination(c);
                        if via == target {
                            Message::ConnectRequest {
                                conn_id: conn,
                                service: c.service.clone(),
                                client: self.daemon.info().clone(),
                                reply_context: None,
                            }
                        } else {
                            Message::BridgeRequest {
                                conn_id: conn,
                                destination: target,
                                service: c.service.clone(),
                                client: self.daemon.info().clone(),
                                reply_context: None,
                            }
                        }
                    }
                    None => {
                        ctx.close(link);
                        return;
                    }
                };
                self.engine
                    .set_role(link, crate::engine::LinkRole::HandoverPending { conn, via });
                self.send_frame(ctx, link, &message);
            }
            PendingPurpose::ReplyConnect { conn } => {
                let message = match self.connections.get_mut(conn) {
                    Some(c) => {
                        c.link = Some(link);
                        c.state = ConnState::AwaitingAccept;
                        let first_hop_is_client = DeviceAddress::from_node(_peer) == c.remote;
                        let client = self.daemon.info().clone();
                        if first_hop_is_client {
                            Message::ConnectRequest {
                                conn_id: conn,
                                service: c.service.clone(),
                                client,
                                reply_context: Some(conn),
                            }
                        } else {
                            Message::BridgeRequest {
                                conn_id: conn,
                                destination: c.remote,
                                service: c.service.clone(),
                                client,
                                reply_context: Some(conn),
                            }
                        }
                    }
                    None => {
                        ctx.close(link);
                        return;
                    }
                };
                self.engine.set_role(link, crate::engine::LinkRole::AppConnection(conn));
                self.send_frame(ctx, link, &message);
            }
        }
    }

    pub(crate) fn handle_connect_failed(
        &mut self,
        ctx: &mut dyn Ctx,
        attempt: AttemptId,
        _peer: NodeId,
        tech: RadioTech,
        _error: ConnectError,
    ) {
        let purpose = match self.pending.remove(&attempt) {
            Some(p) => p,
            None => return,
        };
        // Dial failures towards a physical hop feed its circuit breaker,
        // whatever protocol flow the attempt belonged to.
        self.resilience
            .record_dial_failure(DeviceAddress::from_node(_peer), ctx.now());
        match purpose {
            PendingPurpose::DaemonFetch { .. } => {
                self.note_fetch_finished(ctx, tech);
            }
            PendingPurpose::AppConnect { conn } => {
                if let Some(c) = self.connections.get_mut(conn) {
                    c.state = ConnState::Failed;
                    c.link = None;
                }
                self.events.push_back(PeerHoodEvent::ConnectFailed {
                    app: self.owner_of(conn),
                    conn,
                    error: PeerHoodError::Remote(_error.to_string()),
                });
            }
            PendingPurpose::BridgeLeg { conn } => {
                // A next hop that was advertised as a route but cannot be
                // dialled is how forged neighbour reports manifest at the
                // bridge: the reputation layer charges the hop so repeated
                // phantom routes eventually stop being followed.
                self.note_peer_misbehaved(DeviceAddress::from_node(_peer));
                self.fail_bridge_pair(ctx, conn, ErrorCode::DownstreamFailed);
            }
            PendingPurpose::Handover { conn, .. } => {
                self.handover_attempt_failed(ctx, conn);
            }
            PendingPurpose::ReplyConnect { conn } => {
                if let Some(c) = self.connections.get_mut(conn) {
                    c.state = ConnState::Closed;
                    c.link = None;
                }
                self.schedule_reply_retry(ctx, conn);
            }
        }
    }

    pub(crate) fn schedule_reply_retry(&mut self, ctx: &mut dyn Ctx, conn: ConnectionId) {
        let attempts = match self.connections.get_mut(conn) {
            Some(c) => {
                c.reconnect_attempts += 1;
                c.reconnect_attempts
            }
            None => return,
        };
        if attempts > self.config.handover.max_reply_attempts {
            self.events.push_back(PeerHoodEvent::Disconnected {
                app: self.owner_of(conn),
                conn,
                graceful: false,
            });
            return;
        }
        let token_payload = self.next_retry_token;
        self.next_retry_token += 1;
        self.retry_conns.insert(token_payload, conn);
        ctx.schedule(
            self.config.handover.reply_retry_interval,
            token(KIND_RETRY, token_payload),
        );
    }

    pub(crate) fn try_reply_reconnect(&mut self, ctx: &mut dyn Ctx, conn: ConnectionId) {
        let (established, remote, has_outbox) = match self.connections.get(conn) {
            Some(c) => (c.is_established(), c.remote, !c.outbox.is_empty()),
            None => return,
        };
        if established || !has_outbox {
            return;
        }
        // Fig. 5.10: look the client up in the device storage and reconnect.
        let route = match self.daemon.storage().get(remote) {
            Some(entry) => entry.route,
            None => {
                self.schedule_reply_retry(ctx, conn);
                return;
            }
        };
        let first_hop = if route.is_direct() {
            remote
        } else {
            match route.bridge {
                Some(b) => b,
                None => remote,
            }
        };
        // An open breaker towards the hop turns the dial into a scheduled
        // retry: the bounded retry budget is not burned on a hop known bad.
        if !self.dial(ctx, first_hop, PendingPurpose::ReplyConnect { conn }) {
            self.schedule_reply_retry(ctx, conn);
            return;
        }
        if let Some(c) = self.connections.get_mut(conn) {
            c.state = ConnState::Connecting;
        }
    }
}
