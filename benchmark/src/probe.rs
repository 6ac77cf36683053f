//! Session bookkeeping for the sharded city's probes.
//!
//! `ShardCityAgent` keeps its attachment private and times nothing, so the
//! two simulated end-to-end figures (`sim_attached_pct`, `sim_reconnect_s`)
//! would not exist on `city_sharded`. [`ProbeWatch`] forwards every callback
//! unchanged and mirrors the probe's own attach rule beside it — the same
//! bookkeeping `MetroApp` does for the full-stack cities. It draws no
//! randomness and touches no context, so the run is the run of the bare probe.

use std::any::Any;

use scenarios::experiments::sharded::ShardCityAgent;
use simnet::prelude::*;

/// A `ShardCityAgent` plus a record of when it was attached.
pub struct ProbeWatch {
    probe: ShardCityAgent,
    attached: Option<LinkId>,
    down_since: Option<SimTime>,
    /// Summed simulated seconds from losing the attached link to the next attach.
    pub reconnect_secs_total: f64,
    /// Samples in `reconnect_secs_total`.
    pub reconnects: u64,
    /// Attachments established (first attach, re-attach and handover).
    pub sessions_established: u64,
}

impl ProbeWatch {
    /// Watches `probe`.
    pub fn new(probe: ShardCityAgent) -> Self {
        ProbeWatch {
            probe,
            attached: None,
            down_since: None,
            reconnect_secs_total: 0.0,
            reconnects: 0,
            sessions_established: 0,
        }
    }

    /// True while the probe holds its attached link.
    pub fn attached(&self) -> bool {
        self.attached.is_some()
    }
}

impl ShardAgent for ProbeWatch {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn on_start(&mut self, ctx: &mut ShardCtx<'_>) {
        self.probe.on_start(ctx);
    }
    fn on_restart(&mut self, ctx: &mut ShardCtx<'_>) {
        // A reboot loses the link table; like `MetroApp`, the outage a crash
        // causes is not a reconnect sample.
        self.attached = None;
        self.probe.on_restart(ctx);
    }
    fn on_timer(&mut self, ctx: &mut ShardCtx<'_>, token: TimerToken) {
        self.probe.on_timer(ctx, token);
    }
    fn on_inquiry_complete(&mut self, ctx: &mut ShardCtx<'_>, tech: RadioTech, hits: Vec<InquiryHit>) {
        self.probe.on_inquiry_complete(ctx, tech, hits);
    }
    fn on_incoming_connection(&mut self, ctx: &mut ShardCtx<'_>, incoming: IncomingConnection) -> bool {
        self.probe.on_incoming_connection(ctx, incoming)
    }
    fn on_connected(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        attempt: AttemptId,
        link: LinkId,
        peer: NodeId,
        tech: RadioTech,
    ) {
        self.attached = Some(link);
        self.sessions_established += 1;
        if let Some(t0) = self.down_since.take() {
            self.reconnect_secs_total += ctx.now().saturating_since(t0).as_secs_f64();
            self.reconnects += 1;
        }
        self.probe.on_connected(ctx, attempt, link, peer, tech);
    }
    fn on_connect_failed(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        attempt: AttemptId,
        peer: NodeId,
        tech: RadioTech,
        error: ConnectError,
    ) {
        self.probe.on_connect_failed(ctx, attempt, peer, tech, error);
    }
    fn on_message(&mut self, ctx: &mut ShardCtx<'_>, link: LinkId, from: NodeId, payload: SharedPayload) {
        self.probe.on_message(ctx, link, from, payload);
    }
    fn on_disconnected(&mut self, ctx: &mut ShardCtx<'_>, link: LinkId, peer: NodeId, reason: DisconnectReason) {
        if self.attached == Some(link) {
            self.attached = None;
            self.down_since = Some(ctx.now());
        }
        self.probe.on_disconnected(ctx, link, peer, reason);
    }
}
