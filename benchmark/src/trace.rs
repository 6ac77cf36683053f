//! The traced run's recorder: spans around every call into `peerhood::node`.
//!
//! A [`TracedHost`] wraps each `FullStackHost` of a traced city and times the
//! eight `NodeAgent` entry points from outside, so no crate under test carries
//! a span of the benchmark's. Spans are aggregated in memory as
//! `(parent phase, entry) -> calls, busy_ns, allocs, alloc_bytes` and written
//! out once, after the run. The wrapper is passive — it forwards every
//! argument unchanged and keeps only a reference-counted clone of each inbound
//! frame for the replay — so a traced run must reproduce the untraced
//! `sim_digest`, and the benchmark fails if it does not.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use scenarios::experiments::full_stack::FullStackHost;
use simnet::prelude::*;

use crate::alloc;

/// The entry points of `peerhood::node` the simulator calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `on_start` and `on_restart`.
    Start,
    /// `on_timer`.
    Timer,
    /// `on_inquiry_complete`.
    InquiryComplete,
    /// `on_incoming_connection`.
    IncomingConnection,
    /// `on_connected`.
    Connected,
    /// `on_connect_failed`.
    ConnectFailed,
    /// `on_message`.
    Message,
    /// `on_disconnected`.
    Disconnected,
}

impl Entry {
    /// Every entry, in metric order.
    pub const ALL: [Entry; 8] = [
        Entry::Start,
        Entry::Timer,
        Entry::InquiryComplete,
        Entry::IncomingConnection,
        Entry::Connected,
        Entry::ConnectFailed,
        Entry::Message,
        Entry::Disconnected,
    ];

    /// The name used in metric names and the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Entry::Start => "on_start",
            Entry::Timer => "on_timer",
            Entry::InquiryComplete => "on_inquiry_complete",
            Entry::IncomingConnection => "on_incoming_connection",
            Entry::Connected => "on_connected",
            Entry::ConnectFailed => "on_connect_failed",
            Entry::Message => "on_message",
            Entry::Disconnected => "on_disconnected",
        }
    }
}

/// What one `(parent phase, entry)` pair cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Calls made.
    pub calls: u64,
    /// Wall nanoseconds inside the calls.
    pub busy_ns: u64,
    /// Heap allocations made inside the calls.
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub alloc_bytes: u64,
}

impl Span {
    fn add(&mut self, other: &Span) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
    }
}

/// One inbound frame as a node received it, kept for the frame-path replay.
pub struct KeptFrame {
    /// The receiving node.
    pub to: NodeId,
    /// The radio the frame arrived from.
    pub from: NodeId,
    /// Simulated arrival time.
    pub at: SimTime,
    /// The bytes, shared with the run (a reference-count bump, not a copy).
    pub payload: Payload,
}

/// The recorder every [`TracedHost`] of one world reports into.
#[derive(Default)]
pub struct Trace {
    spans: RefCell<[[Span; Entry::ALL.len()]; Phase::ALL.len()]>,
    frames: RefCell<Vec<KeptFrame>>,
    frame_bytes: Cell<u64>,
}

/// An open span: when it started and what the allocator had counted by then.
struct Open {
    started: Instant,
    allocs: (u64, u64),
}

impl Trace {
    fn begin(&self) -> Open {
        Open {
            allocs: alloc::snapshot(),
            started: Instant::now(),
        }
    }

    fn end(&self, parent: Phase, entry: Entry, open: Open) {
        let busy_ns = open.started.elapsed().as_nanos() as u64;
        let (allocs, bytes) = alloc::snapshot();
        self.spans.borrow_mut()[parent as usize][entry as usize].add(&Span {
            calls: 1,
            busy_ns,
            allocs: allocs - open.allocs.0,
            alloc_bytes: bytes - open.allocs.1,
        });
    }

    /// The span of one `(parent phase, entry)` pair.
    pub fn span(&self, parent: Phase, entry: Entry) -> Span {
        self.spans.borrow()[parent as usize][entry as usize]
    }

    /// One entry's span summed over its parent phases.
    pub fn entry_total(&self, entry: Entry) -> Span {
        let mut total = Span::default();
        for row in self.spans.borrow().iter() {
            total.add(&row[entry as usize]);
        }
        total
    }

    /// Wall nanoseconds of every child span under one simnet phase.
    pub fn children_ns(&self, parent: Phase) -> u64 {
        self.spans.borrow()[parent as usize].iter().map(|s| s.busy_ns).sum()
    }

    /// Payload bytes `on_message` has been handed so far.
    pub fn frame_bytes(&self) -> u64 {
        self.frame_bytes.get()
    }

    /// Takes the kept inbound frames, in arrival order.
    pub fn take_frames(&self) -> Vec<KeptFrame> {
        std::mem::take(&mut self.frames.borrow_mut())
    }
}

/// The simnet phase that makes each call — the parent span. Only
/// `on_disconnected` has several callers; its reason tells them apart (a
/// partition cut reports `OutOfRange` from the fault phase and is filed under
/// `link-check` with the coverage losses it imitates).
fn disconnect_parent(reason: DisconnectReason) -> Phase {
    match reason {
        DisconnectReason::OutOfRange => Phase::LinkCheck,
        DisconnectReason::PeerFailed => Phase::Faults,
        DisconnectReason::PeerClosed | DisconnectReason::LocalClosed => Phase::Disconnect,
    }
}

/// A `FullStackHost` with a span around every entry point.
pub struct TracedHost {
    inner: FullStackHost,
    trace: Rc<Trace>,
}

impl TracedHost {
    /// Wraps `inner`, reporting into `trace`.
    pub fn new(inner: FullStackHost, trace: Rc<Trace>) -> Self {
        TracedHost { inner, trace }
    }
}

impl NodeAgent for TracedHost {
    // Downcasts reach the wrapped host, so `World::with_agent::<FullStackHost>`
    // reads a traced city exactly as it reads an untraced one.
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let open = self.trace.begin();
        self.inner.on_start(ctx);
        self.trace.end(Phase::AgentStart, Entry::Start, open);
    }
    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        let open = self.trace.begin();
        self.inner.on_restart(ctx);
        self.trace.end(Phase::Faults, Entry::Start, open);
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: TimerToken) {
        let open = self.trace.begin();
        self.inner.on_timer(ctx, timer);
        self.trace.end(Phase::Timers, Entry::Timer, open);
    }
    fn on_inquiry_complete(&mut self, ctx: &mut NodeCtx<'_>, tech: RadioTech, hits: Vec<InquiryHit>) {
        let open = self.trace.begin();
        self.inner.on_inquiry_complete(ctx, tech, hits);
        self.trace.end(Phase::Discovery, Entry::InquiryComplete, open);
    }
    fn on_incoming_connection(&mut self, ctx: &mut NodeCtx<'_>, incoming: IncomingConnection) -> bool {
        let open = self.trace.begin();
        let accepted = self.inner.on_incoming_connection(ctx, incoming);
        self.trace.end(Phase::Connect, Entry::IncomingConnection, open);
        accepted
    }
    fn on_connected(&mut self, ctx: &mut NodeCtx<'_>, attempt: AttemptId, link: LinkId, peer: NodeId, tech: RadioTech) {
        let open = self.trace.begin();
        self.inner.on_connected(ctx, attempt, link, peer, tech);
        self.trace.end(Phase::Connect, Entry::Connected, open);
    }
    fn on_connect_failed(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        attempt: AttemptId,
        peer: NodeId,
        tech: RadioTech,
        error: ConnectError,
    ) {
        let open = self.trace.begin();
        self.inner.on_connect_failed(ctx, attempt, peer, tech, error);
        self.trace.end(Phase::Connect, Entry::ConnectFailed, open);
    }
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, from: NodeId, payload: Payload) {
        // Kept before the span opens, so the recorder's own push is not
        // charged to the middleware.
        self.trace
            .frame_bytes
            .set(self.trace.frame_bytes.get() + payload.len() as u64);
        self.trace.frames.borrow_mut().push(KeptFrame {
            to: ctx.node_id(),
            from,
            at: ctx.now(),
            payload: payload.clone(),
        });
        let open = self.trace.begin();
        self.inner.on_message(ctx, link, from, payload);
        self.trace.end(Phase::Delivery, Entry::Message, open);
    }
    fn on_disconnected(&mut self, ctx: &mut NodeCtx<'_>, link: LinkId, peer: NodeId, reason: DisconnectReason) {
        let open = self.trace.begin();
        self.inner.on_disconnected(ctx, link, peer, reason);
        self.trace.end(disconnect_parent(reason), Entry::Disconnected, open);
    }
}
