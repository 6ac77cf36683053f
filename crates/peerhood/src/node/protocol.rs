//! Wire-message handling, discovery cycles, bridge relaying and handover.
//!
//! These are the protocol state machines of the middleware: everything that
//! reacts to a decoded [`Message`] on a classified link, plus the
//! timer-driven inquiry loop and the quality-monitoring pass of the
//! HandoverThread (§5.2.1). They mutate the shared `Core` and queue typed
//! [`PeerHoodEvent`]s for the host to dispatch.

use std::collections::VecDeque;

use simnet::{ConnectError, Ctx, DisconnectReason, InquiryHit, LinkId, NodeId, Payload, RadioTech, SimDuration};

use crate::bridge::BridgeSide;
use crate::connection::{AppConnection, ConnKind, ConnState, ProviderSwitch};
use crate::device::DeviceInfo;
use crate::error::{ErrorCode, PeerHoodError};
use crate::handover::{HandoverMonitor, HandoverTarget};
use crate::ids::{ConnectionId, DeviceAddress};
use crate::plugin::{InquiryKind, PluginState};
use crate::proto::Message;
use crate::service::BRIDGE_SERVICE_NAME;
use crate::wire;

use super::pending::LinkRole;
use super::{token, Core, PeerHoodEvent, Timer, KIND_INQUIRY, KIND_MONITOR, KIND_SHIFT, KIND_TABLE, PAYLOAD_MASK};

impl Core {
    pub(crate) fn send_frame(&mut self, ctx: &mut dyn Ctx, link: LinkId, message: &Message) {
        wire::with_encode_buffer(|frame| {
            wire::encode_into(message, frame);
            self.send_encoded(ctx, link, frame);
        });
    }

    /// Sends the bare wire frame `frame`, written in the thread's encode
    /// buffer: the auth trailer (when enabled) is appended to it, and the
    /// one share-copy made here is the allocation the world's delivery
    /// pipeline carries end to end.
    fn send_encoded(&mut self, ctx: &mut dyn Ctx, link: LinkId, frame: &mut Vec<u8>) {
        self.security.seal(self.info.address, frame);
        let _ = ctx.send(link, wire::Frame::copy_from_slice(frame));
    }

    /// Sends the already-encoded bare wire frame `bare`, which `carrier`
    /// holds. With frame authentication off they are the same bytes and the
    /// carrier itself travels on — a cached inquiry response or a relayed
    /// frame costs a reference count. With it on, the trailer is per-send
    /// and per-hop: `bare` gets a fresh sequence number and MAC in the
    /// encode buffer instead of carrying a stale one.
    fn transmit_frame(&mut self, ctx: &mut dyn Ctx, link: LinkId, bare: &[u8], carrier: &wire::Frame) {
        if self.security.frame_auth() {
            wire::with_encode_buffer(|frame| {
                frame.extend_from_slice(bare);
                self.send_encoded(ctx, link, frame);
            });
        } else {
            let _ = ctx.send(link, carrier.clone());
        }
    }

    /// The encoded response to an inquiry request (Fig. 3.5): own device
    /// information, every registered service except the hidden bridge
    /// service, the storage's entries within `max_export_jumps`, and the
    /// current bridge load (§4's "bottle neck" mitigation), written in one
    /// pass from the storage to the bytes [`wire::encode_into`] would
    /// produce for the equivalent message. Encoded once and then reused —
    /// served to every neighbour that asks — until the device storage, the
    /// service registry or the bridge load actually changes (tracked by
    /// generation counters, so the cached bytes are always exactly what a
    /// fresh encode would produce).
    pub(crate) fn inquiry_response_frame(&mut self) -> wire::Frame {
        let key = (
            self.storage.generation(),
            self.registry.generation(),
            self.bridge.load_percent(),
        );
        if let Some((cached_key, frame)) = &self.inquiry_frame {
            if *cached_key == key {
                self.resilience.note_inquiry_served(true);
                return frame.clone();
            }
        }
        let max_jumps = self.config.discovery.max_export_jumps;
        let frame = wire::with_encode_buffer(|buffer| {
            let advertised = self.registry.list().iter().filter(|s| s.name != BRIDGE_SERVICE_NAME);
            let mut reply = wire::InquiryResponseWriter::begin(buffer, &self.info, advertised);
            for row in self.storage.exported(max_jumps) {
                reply.neighbor(row);
            }
            reply.finish(key.2);
            wire::Frame::copy_from_slice(buffer)
        });
        self.inquiry_frame = Some((key, frame.clone()));
        self.resilience.note_inquiry_served(false);
        frame
    }

    pub(crate) fn start(&mut self, ctx: &mut dyn Ctx) {
        // Stagger the plugin inquiry loops a little so co-located devices do
        // not scan in lock-step.
        for idx in 0..self.config.techs.len() {
            let jitter = SimDuration::from_millis(ctx.rng().range(0u64..2_000));
            ctx.schedule(jitter, token(KIND_INQUIRY, idx as u64));
        }
        ctx.schedule(self.config.monitor.interval, token(KIND_MONITOR, 0));
    }

    pub(crate) fn handle_timer(&mut self, ctx: &mut dyn Ctx, timer: simnet::TimerToken) {
        let kind = timer.0 >> KIND_SHIFT;
        let payload = timer.0 & PAYLOAD_MASK;
        match kind {
            KIND_INQUIRY => {
                let tech = match self.config.techs.get(payload as usize).copied() {
                    Some(t) => t,
                    None => return,
                };
                if let Some(plugin) = self.plugin_mut(tech) {
                    if plugin.cycle_active {
                        // The previous cycle is still fetching; retry shortly.
                        ctx.schedule(SimDuration::from_secs(2), timer);
                        return;
                    }
                    plugin.begin_cycle();
                    plugin.inquiries.push_back(InquiryKind::Periodic);
                }
                ctx.start_inquiry(tech);
            }
            KIND_MONITOR => {
                self.monitor_pass(ctx);
                ctx.schedule(self.config.monitor.interval, token(KIND_MONITOR, 0));
            }
            KIND_TABLE => match self.timers.remove(&payload) {
                Some(Timer::App(app, token)) => self.events.push_back(PeerHoodEvent::Timer { app, token }),
                Some(Timer::ReplyRetry(conn)) => self.try_reply_reconnect(ctx, conn),
                None => {}
            },
            _ => {}
        }
    }

    fn schedule_next_inquiry(&mut self, ctx: &mut dyn Ctx, tech: RadioTech) {
        if let Some(idx) = self.config.techs.iter().position(|t| *t == tech) {
            // Random per-cycle jitter keeps co-located devices from scanning
            // in lock-step, which together with the Bluetooth inquiry
            // asymmetry (§3.4.2) would otherwise make them mutually
            // invisible for long stretches.
            let base = self.config.discovery.inquiry_interval;
            let jitter = SimDuration::from_millis(ctx.rng().range(0u64..=base.as_millis().max(1)));
            ctx.schedule(base + jitter, token(KIND_INQUIRY, idx as u64));
        }
    }

    /// An inquiry on `tech` completed: the oldest scan in flight there. A
    /// periodic scan runs its discovery cycle on, and any scan serves the
    /// provider switches searching on the radio.
    pub(crate) fn handle_inquiry_complete(&mut self, ctx: &mut dyn Ctx, tech: RadioTech, hits: Vec<InquiryHit>) {
        let kind = self.plugin_mut(tech).and_then(|p| p.inquiries.pop_front());
        if kind != Some(InquiryKind::Search) {
            self.continue_discovery_cycle(ctx, tech, &hits);
        }
        self.serve_searches(tech, &hits);
    }

    /// Has `conn`'s switch search for another provider after its dial was
    /// refused with `refusal`: it waits for the next inquiry on `tech` to
    /// complete, and one is started unless a scan is in flight there already,
    /// which serves the search instead. The search writes nothing to the
    /// storage and leaves the discovery cycle alone. Returns false when the
    /// node has no plugin for `tech`.
    pub(crate) fn search_for_provider(
        &mut self,
        ctx: &mut dyn Ctx,
        conn: ConnectionId,
        tech: RadioTech,
        refusal: ConnectError,
    ) -> bool {
        let Some(plugin) = self.plugin_mut(tech) else {
            return false;
        };
        if plugin.inquiries.is_empty() {
            plugin.inquiries.push_back(InquiryKind::Search);
            ctx.start_inquiry(tech);
        }
        if let Some(switch) = self.connections.get_mut(&conn).and_then(|c| c.switch.as_mut()) {
            switch.searching = Some((tech, refusal));
        }
        true
    }

    /// Re-aims every switch searching on `tech` at the best-quality hit that
    /// storage knows as offering the session's service, whatever route it
    /// holds for it, other than the provider the session lost, through the
    /// app's approval (`ReconnectRequired`). The hit is kept on the switch as
    /// heard, so the approved dial goes to it directly. A switch with no
    /// such hit fails, and its app hears the refusal that started the
    /// search.
    fn serve_searches(&mut self, tech: RadioTech, hits: &[InquiryHit]) {
        let searching: Vec<ConnectionId> = self
            .connections
            .values()
            .filter(|c| c.switch.is_some_and(|s| s.searching.is_some_and(|(t, _)| t == tech)))
            .map(|c| c.id)
            .collect();
        for conn in searching {
            let Some(c) = self.connections.get_mut(&conn) else {
                continue;
            };
            let Some(switch) = c.switch.as_mut() else {
                continue;
            };
            let Some((_, refusal)) = switch.searching.take() else {
                continue;
            };
            let (lost, service) = (switch.lost, &c.service);
            let mut best: Option<&InquiryHit> = None;
            for hit in hits {
                let address = DeviceAddress::from_node(hit.node);
                let offered = || self.storage.get(address).is_some_and(|d| d.offers(service));
                if address != lost && best.is_none_or(|b| hit.quality > b.quality) && offered() {
                    best = Some(hit);
                }
            }
            match best.map(|hit| DeviceAddress::from_node(hit.node)) {
                Some(provider) => {
                    switch.heard = Some(provider);
                    self.events.push_back(PeerHoodEvent::ReconnectRequired {
                        app: self.owner_of(conn),
                        conn,
                        provider,
                    })
                }
                None => self.fail_connection(conn, refusal),
            }
        }
    }

    /// The periodic discovery cycle's step after its scan: notes the hits,
    /// fetches from the devices that need it and, when none does, completes
    /// the cycle.
    fn continue_discovery_cycle(&mut self, ctx: &mut dyn Ctx, tech: RadioTech, hits: &[InquiryHit]) {
        let now = ctx.now();
        let service_check = self.config.discovery.service_check_interval;
        let mut fetches: Vec<(DeviceAddress, u8)> = Vec::new();
        for hit in hits {
            let addr = DeviceAddress::from_node(hit.node);
            if let Some(plugin) = self.plugin_mut(tech) {
                plugin.note_responder(addr);
            }
            if self.storage.note_inquiry_hit(addr, hit.quality, now, service_check) {
                fetches.push((addr, hit.quality));
            }
        }
        for (peer, quality) in fetches {
            // A flapping or dead neighbour trips its breaker; while the
            // breaker holds, the daemon stops burning multi-second connect
            // attempts on it — the hit stays in the storage and the fetch
            // resumes once a half-open probe succeeds.
            if !self.dial(ctx, peer, LinkRole::DaemonFetch { peer, tech, quality }) {
                continue;
            }
            if let Some(plugin) = self.plugin_mut(tech) {
                plugin.note_fetch_started();
            }
        }
        // If nothing needs fetching the cycle completes immediately.
        if self.plugin_mut(tech).is_none_or(|p| p.pending_fetches == 0) {
            self.finish_discovery_cycle(ctx, tech);
        }
    }

    /// Completes one inquiry cycle for `tech`: ages the storage with the
    /// devices that answered, announces the ones it removed as lost, and
    /// schedules the next inquiry.
    pub(crate) fn finish_discovery_cycle(&mut self, ctx: &mut dyn Ctx, tech: RadioTech) {
        let mut responders = self.plugin_mut(tech).map(PluginState::finish_cycle).unwrap_or_default();
        let discovery = &self.config.discovery;
        let removed = self.storage.age_cycle(
            &mut responders,
            ctx.now(),
            discovery.max_missed_loops,
            discovery.stale_timeout,
        );
        for address in removed {
            self.events.push_back(PeerHoodEvent::DeviceLost { address });
        }
        self.schedule_next_inquiry(ctx, tech);
    }

    pub(crate) fn note_fetch_finished(&mut self, ctx: &mut dyn Ctx, tech: RadioTech) {
        let done = self
            .plugin_mut(tech)
            .is_some_and(|p| p.cycle_active && p.note_fetch_finished());
        if done {
            self.finish_discovery_cycle(ctx, tech);
        }
    }

    pub(crate) fn handle_message(&mut self, ctx: &mut dyn Ctx, link: LinkId, from: NodeId, payload: Payload) {
        // Frame authentication happens before the codec ever sees the bytes:
        // the trailer is verified against the radio the frame physically
        // arrived from, and the rest of the stack (including the bridge
        // relay fast path) works on the bare wire frame — a slice of the
        // payload it arrived in, never a copy.
        let Some(body) = self.security.open(DeviceAddress::from_node(from), payload.as_slice()) else {
            return;
        };
        let role = self
            .roles
            .get(&link)
            .map_or(LinkRole::IncomingUnidentified, |&(role, _)| role);
        // The daemon's frames are read where they lie. On a fetch link the
        // neighbour report is read in the frame it arrived in, and anything
        // but a valid inquiry response is ignored. On a serve link the
        // requester normally just closes, and anything it sends is ignored
        // unread. An inquiry request is answered from the cached response
        // once it is known to decode, without building the requester's
        // description no one reads (the tag is read first, so no other
        // frame is parsed twice).
        match role {
            LinkRole::DaemonFetch { tech, quality, .. } => {
                if let Ok(report) = wire::view_inquiry_response(body) {
                    self.handle_report(ctx, link, tech, quality, &report);
                }
                return;
            }
            LinkRole::DaemonServe => return,
            LinkRole::IncomingUnidentified
                if body.get(1) == Some(&wire::TAG_INQUIRY_REQUEST) && wire::validate(body).is_ok() =>
            {
                let frame = self.inquiry_response_frame();
                self.set_role(link, LinkRole::DaemonServe);
                self.transmit_frame(ctx, link, &frame, &frame);
                return;
            }
            _ => {}
        }
        let message = match wire::decode_like(body, &self.info) {
            Ok(m) => m,
            Err(_) => return,
        };
        match role {
            LinkRole::IncomingUnidentified => self.identify_incoming(ctx, link, from, message),
            // Handled above.
            LinkRole::DaemonFetch { .. } | LinkRole::DaemonServe => {}
            LinkRole::AppConnection(conn) => self.handle_app_message(ctx, link, conn, message),
            LinkRole::HandoverPending {
                conn,
                via,
                before_break,
            } => self.handle_handover_message(ctx, link, conn, via, before_break, message),
            LinkRole::BridgeUpstream(conn) => {
                self.handle_bridge_message(ctx, link, conn, BridgeSide::Upstream, message, body, &payload)
            }
            LinkRole::BridgeDownstream(conn) => {
                self.handle_bridge_message(ctx, link, conn, BridgeSide::Downstream, message, body, &payload)
            }
        }
    }

    /// The first frame on an incoming link other than an inquiry request
    /// (which `handle_message` answers before decoding anything).
    fn identify_incoming(&mut self, ctx: &mut dyn Ctx, link: LinkId, from: NodeId, message: Message) {
        match message {
            Message::ConnectRequest {
                conn_id,
                service,
                client,
                reply_context,
            } => self.handle_connect_request(ctx, link, conn_id, service, client, reply_context),
            Message::BridgeRequest {
                conn_id,
                destination,
                service,
                client,
                reply_context,
            } => self.handle_bridge_request(ctx, link, from, conn_id, destination, service, client, reply_context),
            // Anything else on an unidentified link is a protocol error.
            _ => self.drop_link(ctx, link),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_connect_request(
        &mut self,
        ctx: &mut dyn Ctx,
        link: LinkId,
        conn_id: ConnectionId,
        service: String,
        client: DeviceInfo,
        reply_context: Option<ConnectionId>,
    ) {
        let known = self.connections.get(&conn_id).is_some() || self.bridge.get(conn_id).is_some();
        let (me, security) = (self.info.address, &mut self.security);
        if !security.admits_connect_request(me, client.address, conn_id, reply_context, known) {
            self.drop_link(ctx, link);
            return;
        }
        // Case 1: the server is calling back with the result of a migrated
        // task — attach the link to the waiting session (§5.3).
        // Case 2: re-establishment of a session this device already knows
        // (server side of a routing handover or client re-attachment); its
        // queued results follow on the new link. The route the session
        // leaves stays open: the client is still on it until this `Accept`
        // reaches it, and hangs it up then (Fig. 5.5, state 2: "once it is
        // confirmed substitute the old connection"). Until then frames on it
        // are stale (`handle_app_message`), and if the new route dies first
        // the old one goes with it (`app_link_lost`).
        let known = match reply_context {
            Some(orig) if self.connections.get(&orig).is_some() => Some((orig, false)),
            _ if self.connections.get(&conn_id).is_some() => Some((conn_id, true)),
            _ => None,
        };
        if let Some((conn, flush)) = known {
            if flush {
                self.attach_link(conn, link);
            } else {
                self.adopt_link(ctx, conn, link);
            }
            self.send_frame(ctx, link, &Message::Accept { conn_id });
            self.events.push_back(PeerHoodEvent::ConnectionChanged {
                app: self.owner_of(conn),
                conn,
            });
            if flush {
                self.flush_outbox(ctx, conn);
            }
            return;
        }
        // Case 3: splice of an existing bridge pair's upstream leg (the
        // per-hop handover of §5.2.1's monitoring-limitation discussion).
        // The leg it leaves stays open as Case 2's route does: the requester
        // hangs it up on the `Accept`, frames on it are stale
        // (`handle_bridge_message`), and it goes when the pair goes.
        if let Some(pair) = self.bridge.get_mut(conn_id) {
            pair.upstream = link;
            self.set_role(link, LinkRole::BridgeUpstream(conn_id));
            self.send_frame(ctx, link, &Message::Accept { conn_id });
            return;
        }
        // Case 4: a brand-new incoming connection to one of our services.
        if self.registry.find(&service).is_some() {
            // Route the new connection to the application that registered
            // the service.
            let owner = self.service_owner.get(&service).copied();
            let connection = AppConnection::incoming(conn_id, client.clone(), service.clone(), link, owner);
            self.connections.insert(conn_id, connection);
            self.set_role(link, LinkRole::AppConnection(conn_id));
            self.send_frame(ctx, link, &Message::Accept { conn_id });
            self.events.push_back(PeerHoodEvent::PeerConnected {
                app: owner,
                conn: conn_id,
                client,
                service,
            });
        } else {
            let detail = format!("no service named {service}");
            self.refuse(ctx, link, conn_id, ErrorCode::ServiceUnavailable, detail);
        }
    }

    /// Moves `conn` onto `link` and classifies `link` as the connection's;
    /// returns the link it was on, if another. That link keeps its role.
    fn attach_link(&mut self, conn: ConnectionId, link: LinkId) -> Option<LinkId> {
        let old = self.connections.get_mut(&conn).and_then(|c| {
            let old = c.link;
            c.establish(link);
            old
        });
        self.set_role(link, LinkRole::AppConnection(conn));
        old.filter(|&old| old != link)
    }

    /// Moves `conn` onto `link` and drops the link it was on, if another.
    fn adopt_link(&mut self, ctx: &mut dyn Ctx, conn: ConnectionId, link: LinkId) {
        if let Some(old) = self.attach_link(conn, link) {
            self.drop_link(ctx, old);
        }
    }

    /// Drops every link still classified as `conn`'s session or as the
    /// upstream leg of its relayed pair: the routes a server or a bridge
    /// left for a routing handover the client has not confirmed. Called once
    /// the connection's current link, or the pair, is gone, so the client,
    /// still on an old route, hears the session end instead of pinging into
    /// a link no one reads.
    pub(crate) fn drop_left_routes(&mut self, ctx: &mut dyn Ctx, conn: ConnectionId) {
        self.drop_links(
            ctx,
            |role| matches!(role, LinkRole::AppConnection(c) | LinkRole::BridgeUpstream(c) if c == conn),
        );
    }

    /// Drops the link a routing handover is building for `conn`, if any.
    pub(crate) fn drop_replacement_routes(&mut self, ctx: &mut dyn Ctx, conn: ConnectionId) {
        self.drop_links(
            ctx,
            |role| matches!(role, LinkRole::HandoverPending { conn: c, .. } if c == conn),
        );
    }

    /// Drops every live link whose role `pick` selects.
    fn drop_links(&mut self, ctx: &mut dyn Ctx, pick: impl Fn(LinkRole) -> bool) {
        let picked: Vec<LinkId> = self
            .roles
            .iter()
            .filter(|(_, (role, _))| pick(*role))
            .map(|(link, _)| link)
            .collect();
        for link in picked {
            self.drop_link(ctx, link);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_bridge_request(
        &mut self,
        ctx: &mut dyn Ctx,
        link: LinkId,
        from: NodeId,
        conn_id: ConnectionId,
        destination: DeviceAddress,
        service: String,
        client: DeviceInfo,
        reply_context: Option<ConnectionId>,
    ) {
        // A bridge request whose destination is this very device behaves like
        // a direct connect request (defensive; bridges normally convert it).
        if destination == self.my_address() {
            self.handle_connect_request(ctx, link, conn_id, service, client, reply_context);
            return;
        }
        if !self.config.bridge.enabled || !self.bridge.has_capacity() {
            let detail = "bridge service unavailable or at capacity".into();
            self.refuse(ctx, link, conn_id, ErrorCode::BridgeBusy, detail);
            return;
        }
        // Select the next hop from the device storage (Fig. 4.4: "get devices
        // list, find given address"). A reflection back to the requester is
        // no route, and the originator's reputation layer charges its bridge.
        let next_hop = self
            .storage
            .get(destination)
            .map(|entry| entry.route.first_hop(destination));
        let Some(hop) = next_hop.filter(|&hop| !self.security.refuses_reflection(hop, from)) else {
            let detail = format!("no route to {destination}");
            self.refuse(ctx, link, conn_id, ErrorCode::NoRouteToDestination, detail);
            return;
        };
        self.bridge
            .insert_pending(conn_id, link, destination, service, client, reply_context);
        self.set_role(link, LinkRole::BridgeUpstream(conn_id));
        // Not breaker-gated (see `Core::connect_hop`).
        self.connect_hop(ctx, hop, LinkRole::BridgeDownstream(conn_id));
    }

    fn handle_report(
        &mut self,
        ctx: &mut dyn Ctx,
        link: LinkId,
        tech: RadioTech,
        quality: u8,
        report: &wire::InquiryResponseView<'_>,
    ) {
        let admitted = self.security.admits_report(report.device.address);
        let mode = self.config.discovery.mode;
        let mut discovered = Discovered(&mut self.events);
        self.storage
            .integrate_report_into(report, admitted, quality, mode, ctx.now(), &mut discovered);
        self.drop_link(ctx, link);
        self.note_fetch_finished(ctx, tech);
    }

    fn handle_app_message(&mut self, ctx: &mut dyn Ctx, link: LinkId, conn: ConnectionId, message: Message) {
        // Stale links must not affect the session (the connection may already
        // have been handed over to a different link).
        let is_current = self
            .connections
            .get(&conn)
            .map(|c| c.link == Some(link))
            .unwrap_or(false);
        if !is_current {
            if matches!(message, Message::Disconnect { .. }) {
                self.drop_link(ctx, link);
            }
            return;
        }
        if !self.security.admits_session_frame(conn, message.connection_id()) {
            return;
        }
        match message {
            Message::Accept { .. } => {
                let (fire, reconnected_to) = match self.connections.get_mut(&conn) {
                    Some(c) if c.state == ConnState::AwaitingAccept => {
                        c.establish(link);
                        if c.reconnecting {
                            c.reconnecting = false;
                            (true, Some(c.remote))
                        } else {
                            (true, None)
                        }
                    }
                    _ => (false, None),
                };
                if fire {
                    let is_incoming = self.connections.get(&conn).map(|c| !c.is_outgoing()).unwrap_or(false);
                    let app = self.owner_of(conn);
                    if is_incoming {
                        // Server reply channel established: deliver queued results.
                        self.reply_reconnections += 1;
                        self.events.push_back(PeerHoodEvent::ConnectionChanged { app, conn });
                        self.flush_outbox(ctx, conn);
                    } else if let Some(provider) = reconnected_to {
                        self.events
                            .push_back(PeerHoodEvent::ServiceReconnected { app, conn, provider });
                    } else {
                        self.events.push_back(PeerHoodEvent::Connected { app, conn });
                    }
                } else {
                    self.security.note_unawaited_accept();
                }
            }
            Message::Error { code, detail, .. } => {
                let outgoing = self.connections.get(&conn).map(|c| c.is_outgoing()).unwrap_or(true);
                // A failed outgoing attempt points back at whoever vouched
                // for it (§3.4.3 hardening).
                if let Some(c) = self.connections.get(&conn).filter(|_| outgoing) {
                    self.security.blame_refusal(&code, c);
                }
                if let Some(c) = self.connections.get_mut(&conn) {
                    c.link = None;
                    c.state = if outgoing { ConnState::Failed } else { ConnState::Closed };
                }
                self.drop_link(ctx, link);
                if outgoing {
                    self.events.push_back(PeerHoodEvent::ConnectFailed {
                        app: self.owner_of(conn),
                        conn,
                        error: PeerHoodError::Remote(format!("{code}: {detail}")),
                    });
                } else {
                    self.schedule_reply_retry(ctx, conn);
                }
            }
            Message::Data { payload, .. } => {
                // Backpressure: payloads beyond the owning app's inbound rate
                // are shed here, before the event queue — the overloaded app
                // sees an explicit Shed event instead of a silent drop.
                let app = self.owner_of(conn);
                if !self.resilience.allow_inbound(app, ctx.now()) {
                    self.events.push_back(PeerHoodEvent::Shed {
                        app,
                        conn,
                        dropped_bytes: payload.len(),
                    });
                    return;
                }
                self.events.push_back(PeerHoodEvent::Data { app, conn, payload });
            }
            // The peer hung up: as if it had closed the link.
            Message::Disconnect { .. } => {
                self.drop_link(ctx, link);
                self.app_link_lost(ctx, conn, link, DisconnectReason::PeerClosed);
            }
            _ => {}
        }
    }

    /// The peer closed `conn`: the app hears it, and the switch in flight,
    /// if any, is abandoned — its replacement link dropped and the monitor
    /// back to monitoring — so no late `Accept` brings back a session the
    /// app was told is closed. A dial for the switch still in flight is
    /// dropped once it lands (`handle_connected`).
    fn peer_closed(&mut self, ctx: &mut dyn Ctx, conn: ConnectionId) {
        if let Some(monitor) = self.connections.get_mut(&conn).and_then(|c| c.monitor.as_mut()) {
            if monitor.is_switching() {
                monitor.switch_failed();
                self.drop_replacement_routes(ctx, conn);
            }
        }
        self.events.push_back(PeerHoodEvent::Disconnected {
            app: self.owner_of(conn),
            conn,
            graceful: true,
        });
    }

    fn handle_handover_message(
        &mut self,
        ctx: &mut dyn Ctx,
        link: LinkId,
        conn: ConnectionId,
        via: DeviceAddress,
        before_break: bool,
        message: Message,
    ) {
        match message {
            Message::Accept { .. } => {
                self.adopt_link(ctx, conn, link);
                if let Some(c) = self.connections.get_mut(&conn) {
                    // Record the route actually built. `via` travelled with
                    // the link role from the moment the switch began, so a
                    // candidate refreshed (or consumed) while the replacement
                    // connection was in flight can no longer masquerade as
                    // the bridge in use — and a direct re-route to the
                    // destination correctly sheds the bridged kind.
                    c.kind = ConnKind::outgoing((via != c.remote).then_some(via));
                    if let Some(monitor) = c.monitor.as_mut() {
                        monitor.switch_succeeded();
                    }
                }
                if before_break {
                    self.handovers_before_break += 1;
                } else {
                    self.handovers_after_break += 1;
                }
                self.events.push_back(PeerHoodEvent::ConnectionChanged {
                    app: self.owner_of(conn),
                    conn,
                });
            }
            Message::Error { .. } => {
                self.drop_link(ctx, link);
                self.handover_attempt_failed(ctx, conn);
            }
            _ => {}
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_bridge_message(
        &mut self,
        ctx: &mut dyn Ctx,
        link: LinkId,
        conn: ConnectionId,
        side: BridgeSide,
        message: Message,
        body: &[u8],
        carrier: &Payload,
    ) {
        // The link's role named the pair and the side; traffic on a leg the
        // pair has left is ignored.
        let Some(pair) = self.bridge.get(conn).filter(|pair| pair.leg(side) == Some(link)) else {
            return;
        };
        let (upstream, other) = (pair.upstream, pair.leg(side.other()));
        match message {
            Message::Accept { .. } if side == BridgeSide::Downstream => {
                self.send_frame(ctx, upstream, &Message::Accept { conn_id: conn });
            }
            Message::Error { code, detail, .. } if side == BridgeSide::Downstream => {
                self.fail_bridge_pair(ctx, conn, code, detail);
            }
            Message::Data { conn_id, payload } => {
                if let Some(other) = other {
                    self.bridge.record_relay(payload.len());
                    if conn_id == conn {
                        // The relayed frame would re-encode to exactly the
                        // received bytes, so forward the original shared
                        // frame: a bridge chain of any length carries one
                        // allocation end to end. (With frame auth on, `body`
                        // is the verified frame less its trailer and the
                        // relay re-MACs it for the next hop inside
                        // `transmit_frame`.)
                        self.transmit_frame(ctx, other, body, carrier);
                    } else {
                        // Defensive path (e.g. a corrupted-but-decodable
                        // frame whose conn id no longer matches the pair):
                        // rewrite the id exactly as before.
                        self.send_frame(ctx, other, &Message::Data { conn_id: conn, payload });
                    }
                }
            }
            Message::Disconnect { .. } => {
                self.bridge.remove(conn);
                if let Some(other) = other {
                    self.hang_up(ctx, other, conn);
                }
                self.drop_link(ctx, link);
                self.drop_left_routes(ctx, conn);
            }
            _ => {}
        }
    }

    /// Tears a relayed pair down after its downstream leg failed: the
    /// requester hears `code` and `detail`, and both legs are dropped.
    pub(crate) fn fail_bridge_pair(&mut self, ctx: &mut dyn Ctx, conn: ConnectionId, code: ErrorCode, detail: String) {
        if let Some(pair) = self.bridge.remove(conn) {
            self.refuse(ctx, pair.upstream, conn, code, detail);
            if let Some(down) = pair.downstream {
                self.drop_link(ctx, down);
            }
            self.drop_left_routes(ctx, conn);
        }
    }

    pub(crate) fn handle_disconnected(
        &mut self,
        ctx: &mut dyn Ctx,
        link: LinkId,
        peer: NodeId,
        reason: DisconnectReason,
    ) {
        let address = DeviceAddress::from_node(peer);
        if reason == DisconnectReason::PeerFailed {
            // The peer's whole stack died, not just this link: flag its
            // storage entry so it ages out within one discovery cycle
            // instead of surviving the full missed-loop tolerance. If the
            // device actually comes back it answers the next inquiry and the
            // flag is reset.
            self.storage
                .mark_suspect(address, self.config.discovery.max_missed_loops);
            // A crashed peer counts as a dial failure towards it.
            self.resilience
                .record_dial_failure(&mut self.security.peers, address, ctx.now());
        }
        let Some((role, tech)) = self.roles.remove(&link) else {
            return;
        };
        if reason == DisconnectReason::OutOfRange {
            if ctx.in_range(peer, tech) {
                // The link went down with the peer still in range (a flap,
                // a partition cut, an exhausted quality override, a dark
                // radio): it feeds the flap detector, so a neighbour whose
                // links keep breaking trips its breaker even though every
                // individual dial succeeds.
                self.resilience
                    .record_link_break(&mut self.security.peers, address, ctx.now());
            } else {
                // The radio has lost the peer, as a dial refused out of range
                // says (see `handle_connect_failed`): before the role's flow
                // looks for a new route or provider, the peer and every row
                // bridged through it stop being offered.
                self.storage.mark_absent(address);
            }
        }
        match role {
            LinkRole::IncomingUnidentified | LinkRole::DaemonServe => {}
            LinkRole::DaemonFetch { tech, .. } => {
                self.note_fetch_finished(ctx, tech);
            }
            LinkRole::AppConnection(conn) => self.app_link_lost(ctx, conn, link, reason),
            LinkRole::HandoverPending { conn, .. } => self.handover_attempt_failed(ctx, conn),
            LinkRole::BridgeUpstream(conn) if self.bridge.is_leg(conn, BridgeSide::Upstream, link) => {
                if let Some(down) = self.bridge.remove(conn).and_then(|pair| pair.downstream) {
                    self.hang_up(ctx, down, conn);
                }
                self.drop_left_routes(ctx, conn);
            }
            LinkRole::BridgeDownstream(conn) if self.bridge.is_leg(conn, BridgeSide::Downstream, link) => {
                self.fail_bridge_pair(ctx, conn, ErrorCode::DownstreamFailed, "bridge leg failed".into());
            }
            // A leg the pair has left, or a pair already gone.
            LinkRole::BridgeUpstream(_) | LinkRole::BridgeDownstream(_) => {}
        }
    }

    fn app_link_lost(&mut self, ctx: &mut dyn Ctx, conn: ConnectionId, link: LinkId, reason: DisconnectReason) {
        let is_current = self
            .connections
            .get(&conn)
            .map(|c| c.link == Some(link))
            .unwrap_or(false);
        if !is_current {
            return;
        }
        if let Some(c) = self.connections.get_mut(&conn) {
            c.mark_closed();
        }
        self.drop_left_routes(ctx, conn);
        if reason == DisconnectReason::PeerClosed {
            self.peer_closed(ctx, conn);
            return;
        }
        let (outgoing, sending) = match self.connections.get(&conn) {
            Some(c) => (c.is_outgoing(), c.sending),
            None => return,
        };
        if !outgoing || !sending || !self.config.handover.enabled {
            self.events.push_back(PeerHoodEvent::Disconnected {
                app: self.owner_of(conn),
                conn,
                graceful: false,
            });
            return;
        }
        // The connection broke while still needed: try routing handover
        // first, then service reconnection (Fig. 5.5 / §5.2.2).
        if self.try_routing_handover(ctx, conn) {
            return;
        }
        self.propose_service_reconnection(conn);
    }

    pub(crate) fn handover_destination(&self, c: &AppConnection) -> DeviceAddress {
        match self.config.handover.target {
            HandoverTarget::FinalDestination => c.remote,
            HandoverTarget::LinkPeer => c.kind.first_hop(c.remote).unwrap_or(c.remote),
        }
    }

    fn refresh_handover_candidates(&mut self, conn: ConnectionId) {
        let (target, exclude) = match self.connections.get(&conn) {
            Some(c) => (self.handover_destination(c), c.kind.first_hop(c.remote)),
            None => return,
        };
        // The candidate ranking is a pure function of the device storage
        // (its contents and its absent marks, each generation-tracked), the
        // target and the excluded bridge: when none of them moved since the
        // monitor's last refresh — the steady-state monitoring pass — skip
        // the walk-and-sort entirely. Both counters only grow, so their sum
        // moves exactly when either does.
        let storage = self.storage.generation() + self.storage.presence_generation();
        let key = (storage, target, exclude);
        if self
            .connections
            .get(&conn)
            .and_then(|c| c.monitor.as_ref())
            .and_then(|m| m.refresh_key())
            == Some(key)
        {
            return;
        }
        let mut candidates: Vec<_> = self.storage.handover_candidates_iter(target).collect();
        // Fall back on the stored multi-hop route towards the target if no
        // direct neighbour reports it.
        if candidates.is_empty() {
            if let Some(entry) = self.storage.get(target) {
                if let Some(bridge) = entry.route.bridge {
                    let ours = entry.route.first_hop_quality();
                    let theirs = entry.route.hop_qualities.get(1).copied().unwrap_or(0);
                    candidates.push((bridge, ours, theirs));
                }
            }
        }
        if let Some(c) = self.connections.get_mut(&conn) {
            if let Some(monitor) = c.monitor.as_mut() {
                monitor.refresh_candidates(&candidates, exclude);
                monitor.note_refreshed(key);
            }
        }
    }

    /// True while a replacement route for `conn` is being established.
    pub(crate) fn switch_in_flight(&self, conn: ConnectionId) -> bool {
        self.connections
            .get(&conn)
            .and_then(|c| c.monitor.as_ref())
            .is_some_and(|m| m.is_switching())
    }

    fn try_routing_handover(&mut self, ctx: &mut dyn Ctx, conn: ConnectionId) -> bool {
        // If a replacement route is already being established, let it resolve
        // instead of stacking a second recovery on top of it.
        if self.switch_in_flight(conn) {
            return true;
        }
        self.refresh_handover_candidates(conn);
        self.switch_route(ctx, conn)
    }

    /// Begins a switch to the monitor's candidate route and dials it;
    /// returns whether the replacement route is being dialled. A candidate
    /// behind an open breaker is treated like a failed switch attempt, so
    /// recovery falls through to the next candidate or to service
    /// reconnection instead of dialling a hop known bad.
    fn switch_route(&mut self, ctx: &mut dyn Ctx, conn: ConnectionId) -> bool {
        let max_attempts = self.config.handover.max_routing_attempts;
        let Some(c) = self.connections.get_mut(&conn) else {
            return false;
        };
        let before_break = c.is_established();
        let candidate = c
            .monitor
            .as_mut()
            .filter(|m| !m.attempts_exhausted(max_attempts))
            .and_then(|m| m.begin_switch());
        let via = match candidate {
            Some(c) => c.bridge,
            None => return false,
        };
        let role = LinkRole::HandoverPending {
            conn,
            via,
            before_break,
        };
        if self.dial(ctx, via, role) {
            return true;
        }
        if let Some(m) = self.connections.get_mut(&conn).and_then(|c| c.monitor.as_mut()) {
            m.switch_failed();
        }
        false
    }

    pub(crate) fn handover_attempt_failed(&mut self, ctx: &mut dyn Ctx, conn: ConnectionId) {
        match self.connections.get_mut(&conn).and_then(|c| c.monitor.as_mut()) {
            Some(m) if m.is_switching() => m.switch_failed(),
            // An abandoned switch (`peer_closed`) has nothing left to fail.
            _ => return,
        }
        let still_connected = self.connections.get(&conn).map(|c| c.is_established()).unwrap_or(false);
        if still_connected {
            // The old route is still up; keep monitoring.
            return;
        }
        // The connection is down and the handover attempt failed: retry or
        // fall back to service reconnection.
        if self.try_routing_handover(ctx, conn) {
            return;
        }
        self.propose_service_reconnection(conn);
    }

    fn propose_service_reconnection(&mut self, conn: ConnectionId) {
        let (service, remote, sending) = match self.connections.get(&conn) {
            Some(c) => (c.service.clone(), c.remote, c.sending),
            None => return,
        };
        let app = self.owner_of(conn);
        if !sending {
            self.events.push_back(PeerHoodEvent::Disconnected {
                app,
                conn,
                graceful: false,
            });
            return;
        }
        match self.storage.best_service_provider(&service, Some(remote)) {
            Some((provider, _)) => self
                .events
                .push_back(PeerHoodEvent::ReconnectRequired { app, conn, provider }),
            None => self.events.push_back(PeerHoodEvent::Disconnected {
                app,
                conn,
                graceful: false,
            }),
        }
    }

    /// Dials `provider` for `conn`'s switch, as the app approved. A provider
    /// the switch's fresh search heard is dialled directly; any other follows
    /// its stored route.
    pub(crate) fn start_service_reconnection(
        &mut self,
        ctx: &mut dyn Ctx,
        conn: ConnectionId,
        provider: DeviceAddress,
    ) {
        let Some(route) = self.storage.get(provider).map(|entry| entry.route) else {
            self.abandon_connection(conn);
            return;
        };
        // A connection its app closed before approving the switch is not
        // dialled, and its hop's breaker is not asked.
        let Some(c) = self.connections.get(&conn) else {
            return;
        };
        let heard = c.reconnecting && c.switch.is_some_and(|s| s.heard == Some(provider));
        let bridge = if heard { None } else { route.bridge };
        if !self.dial(ctx, bridge.unwrap_or(provider), LinkRole::AppConnection(conn)) {
            self.abandon_connection(conn);
            return;
        }
        if let Some(c) = self.connections.get_mut(&conn) {
            // A switch re-aimed by its fresh search keeps what it has spent.
            if !c.reconnecting {
                c.switch = Some(ProviderSwitch::away_from(c.remote));
            }
            c.remote = provider;
            c.kind = ConnKind::outgoing(bridge);
            c.state = ConnState::Connecting;
            c.link = None;
            c.reconnecting = true;
            c.monitor = Some(HandoverMonitor::new(self.config.monitor.quality_threshold));
        }
    }

    pub(crate) fn abandon_connection(&mut self, conn: ConnectionId) {
        if let Some(c) = self.connections.get_mut(&conn) {
            c.mark_closed();
        }
        self.events.push_back(PeerHoodEvent::Disconnected {
            app: self.owner_of(conn),
            conn,
            graceful: false,
        });
    }

    fn monitor_pass(&mut self, ctx: &mut dyn Ctx) {
        if !self.config.handover.enabled {
            return;
        }
        let ids: Vec<ConnectionId> = self.connections.keys().collect();
        for conn in ids {
            let (established, outgoing, sending, link) = match self.connections.get(&conn) {
                Some(c) => (c.is_established(), c.is_outgoing(), c.sending, c.link),
                None => continue,
            };
            if !established || !outgoing || !sending {
                continue;
            }
            // State 0: keep the alternative-route candidate fresh.
            self.refresh_handover_candidates(conn);
            // State 1: sample quality and count consecutive low readings.
            let quality = link.and_then(|l| ctx.link_quality(l));
            let trigger = match self.connections.get_mut(&conn).and_then(|c| c.monitor.as_mut()) {
                Some(m) => m.record_quality(quality),
                None => false,
            };
            if trigger {
                // State 2: establish the replacement route. While the old
                // route is up a refused dial only aborts this switch, and
                // monitoring goes on.
                self.switch_route(ctx, conn);
            }
        }
    }

    pub(crate) fn flush_outbox(&mut self, ctx: &mut dyn Ctx, conn: ConnectionId) {
        let (link, payloads) = match self.connections.get_mut(&conn) {
            Some(c) if c.is_established() => (c.link, std::mem::take(&mut c.outbox)),
            _ => return,
        };
        if let Some(link) = link {
            for payload in payloads {
                self.send_frame(ctx, link, &Message::Data { conn_id: conn, payload });
            }
        }
    }
}

/// Announces each device the storage learns as found, straight onto the
/// event queue: no list of addresses is built to be turned into events.
struct Discovered<'a>(&'a mut VecDeque<PeerHoodEvent>);

impl Extend<DeviceAddress> for Discovered<'_> {
    fn extend<I: IntoIterator<Item = DeviceAddress>>(&mut self, found: I) {
        let events = found
            .into_iter()
            .map(|address| PeerHoodEvent::DeviceDiscovered { address });
        self.0.extend(events);
    }
}
