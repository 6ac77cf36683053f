//! E12: dense-city discovery and handover at 1k–10k nodes.
//!
//! The thesis evaluates PeerHood on a handful of devices; E12 is the scale
//! family the spatially-indexed world opens up: a city block populated at a
//! configurable density where every device periodically scans its
//! neighbourhood, attaches to the best peer and hands over when the link
//! quality degrades below the "signal low" threshold.
//!
//! The experiment deliberately drives the `simnet` substrate with a
//! lightweight agent instead of the full middleware stack: its purpose is to
//! measure that the *world* — discovery, link checks, delivery — sustains
//! thousands of concurrent devices, which is exactly what the grid index
//! accelerates. Every reported number is deterministic in the seed.

use std::any::Any;
use std::rc::Rc;

use simnet::prelude::*;

use crate::experiments::city::City;
use crate::experiments::full_stack::{metro_configs, FullStackHost, StackMode};
use crate::experiments::params::{count, Param};
use crate::report::ExperimentReport;

const SCAN: TimerToken = TimerToken(0xE121);
const QCHECK: TimerToken = TimerToken(0xE122);

/// Settings for the E12 dense-city scale runs.
#[derive(Debug, Clone)]
pub struct ScaleSettings {
    /// The shared city core (seed 12).
    pub city: City,
    /// Total node counts to sweep.
    pub node_counts: Vec<usize>,
    /// Which agent populates the city: the lightweight probe (byte-identical
    /// to the historical reports) or the real PeerHood middleware stack.
    pub stack: StackMode,
}

impl ScaleSettings {
    /// The full sizes (`repro` without `--quick`): 1k–10k nodes.
    pub fn full() -> Self {
        ScaleSettings {
            city: City {
                seed: 12,
                density_per_km2: 2_000.0,
                mobile_fraction: 0.25,
                duration: SimDuration::from_secs(300),
                inquiry_interval: SimDuration::from_secs(8),
                // E12 installs no churn.
                mean_downtime: SimDuration::ZERO,
            },
            node_counts: vec![1_000, 2_500, 5_000, 10_000],
            stack: StackMode::Lightweight,
        }
    }

    /// A reduced variant for CI and `cargo test`.
    pub fn quick() -> Self {
        let mut quick = ScaleSettings::full();
        quick.node_counts = vec![150, 400];
        quick.city.duration = SimDuration::from_secs(90);
        quick.city.inquiry_interval = SimDuration::from_secs(10);
        quick
    }

    /// The grid parameters of E12.
    pub const PARAMS: &'static [Param<Self>] = &[
        Param::new("nodes", "city population (replaces the node-count sweep)", |s, v| {
            count(v).map(|n| s.node_counts = vec![n])
        }),
        City::density(),
        City::mobile_fraction(),
        City::duration_s().help("simulated seconds per run"),
        Param::new("stack", "lightweight probe or full PeerHood stack", |s, v| {
            v.parse().map(|mode| s.stack = mode)
        }),
    ];
}

impl AsMut<City> for ScaleSettings {
    fn as_mut(&mut self) -> &mut City {
        &mut self.city
    }
}

/// A city device: scans periodically, attaches to its best-quality
/// neighbour, and hands over when the monitored quality falls below the
/// "signal low" threshold of the thesis.
struct CityAgent {
    inquiry_interval: SimDuration,
    attached: Option<(LinkId, NodeId)>,
    handover_from: Option<LinkId>,
    connecting: bool,
    last_hits: Vec<InquiryHit>,
    handovers: u64,
    drops: u64,
}

impl CityAgent {
    fn new(inquiry_interval: SimDuration) -> Self {
        CityAgent {
            inquiry_interval,
            attached: None,
            handover_from: None,
            connecting: false,
            last_hits: Vec::new(),
            handovers: 0,
            drops: 0,
        }
    }

    /// Best candidate by quality (ties broken towards the lower id, so the
    /// choice is deterministic), excluding `except`.
    fn best_candidate(&self, except: Option<NodeId>) -> Option<InquiryHit> {
        self.last_hits
            .iter()
            .filter(|h| Some(h.node) != except)
            .max_by_key(|h| (h.quality, std::cmp::Reverse(h.node)))
            .copied()
    }
}

impl NodeAgent for CityAgent {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        // Stagger scans so the city is not phase-locked on one instant.
        let jitter_ms = ctx.rng().range(0..self.inquiry_interval.as_millis().max(1));
        ctx.schedule(SimDuration::from_millis(jitter_ms), SCAN);
        ctx.schedule(SimDuration::from_millis(5_000 + jitter_ms), QCHECK);
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: TimerToken) {
        match token {
            SCAN => {
                ctx.start_inquiry(RadioTech::Wlan);
                ctx.schedule(self.inquiry_interval, SCAN);
            }
            QCHECK => {
                if let Some((link, peer)) = self.attached {
                    let quality = ctx.link_quality(link);
                    if quality.map(|q| q < QUALITY_LOW_THRESHOLD).unwrap_or(true) && !self.connecting {
                        if let Some(target) = self.best_candidate(Some(peer)) {
                            self.handover_from = Some(link);
                            self.connecting = true;
                            ctx.connect(target.node, RadioTech::Wlan);
                        }
                    }
                }
                ctx.schedule(SimDuration::from_secs(5), QCHECK);
            }
            _ => {}
        }
    }
    fn on_inquiry_complete(&mut self, ctx: &mut NodeCtx<'_>, _tech: RadioTech, hits: Vec<InquiryHit>) {
        self.last_hits = hits;
        if self.attached.is_none() && !self.connecting {
            if let Some(best) = self.best_candidate(None) {
                self.connecting = true;
                ctx.connect(best.node, RadioTech::Wlan);
            }
        }
    }
    fn on_incoming_connection(&mut self, _ctx: &mut NodeCtx<'_>, _incoming: IncomingConnection) -> bool {
        true
    }
    fn on_connected(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        _attempt: AttemptId,
        link: LinkId,
        peer: NodeId,
        _tech: RadioTech,
    ) {
        self.connecting = false;
        if let Some(old) = self.handover_from.take() {
            ctx.close(old);
            self.handovers += 1;
        }
        self.attached = Some((link, peer));
    }
    fn on_connect_failed(
        &mut self,
        _ctx: &mut NodeCtx<'_>,
        _attempt: AttemptId,
        _peer: NodeId,
        _tech: RadioTech,
        _error: ConnectError,
    ) {
        self.connecting = false;
        self.handover_from = None;
    }
    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _link: LinkId, _from: NodeId, _payload: Payload) {}
    fn on_disconnected(&mut self, _ctx: &mut NodeCtx<'_>, link: LinkId, _peer: NodeId, reason: DisconnectReason) {
        if self.handover_from == Some(link) {
            // The old link died before the handover connect resolved: the
            // in-flight attempt becomes a plain re-attach, not a handover.
            self.handover_from = None;
        }
        if self.attached.map(|(l, _)| l) == Some(link) {
            self.attached = None;
            if reason != DisconnectReason::PeerClosed {
                self.drops += 1;
            }
        }
    }
}

/// One dense-city run; returns the populated world after `duration`.
/// Honours the thread's [`telemetry`](crate::telemetry) settings.
fn city_run(settings: &ScaleSettings, nodes: usize) -> World {
    let city = &settings.city;
    let mut world = city.world(nodes);
    // Two configuration allocations (static/mobile) for the whole
    // full-stack city.
    let shared = match settings.stack {
        StackMode::Full => Some(metro_configs(city.inquiry_interval)),
        StackMode::Lightweight => None,
    };
    for (i, mobility, is_mobile) in city.placement(nodes, 0xC17F) {
        let agent: Box<dyn NodeAgent> = match &shared {
            None => Box::new(CityAgent::new(city.inquiry_interval)),
            Some((static_cfg, mobile_cfg)) => {
                let cfg = if is_mobile { mobile_cfg } else { static_cfg };
                Box::new(FullStackHost::new(Rc::clone(cfg)))
            }
        };
        world.add_node(format!("c{i}"), mobility, &[RadioTech::Wlan], agent);
    }
    let scope = format!("E12 nodes={nodes}");
    crate::telemetry::observe(&mut world, &scope, city.duration);
    world
}

/// E12 (beyond the thesis): dense-city discovery and handover at scale.
pub fn e12_dense_city(settings: &ScaleSettings) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "E12",
        "Dense-city discovery and handover at scale",
        "Beyond the thesis: the spatially-indexed world sustains the paper's discovery/monitoring/\
         handover loop at city scale (1k-10k devices at constant density), where the original \
         full-scan world was quadratic in the population.",
        &[
            "nodes",
            "side (m)",
            "avg neighbors",
            "inquiries",
            "links established",
            "handovers",
            "coverage drops",
        ],
    );
    for &nodes in &settings.node_counts {
        let mut world = city_run(settings, nodes);
        let ids: Vec<NodeId> = world.node_ids().collect();
        // Ground-truth neighbourhood size, sampled over a deterministic
        // subset to keep the report cheap at 10k nodes.
        let sample: Vec<NodeId> = ids.iter().step_by((ids.len() / 100).max(1)).copied().collect();
        let avg_neighbors = sample
            .iter()
            .map(|id| world.neighbors_in_range(*id, RadioTech::Wlan).len() as f64)
            .sum::<f64>()
            / sample.len() as f64;
        let (mut handovers, mut drops) = (0u64, 0u64);
        for id in &ids {
            let counted = match settings.stack {
                StackMode::Lightweight => world.with_agent::<CityAgent, _>(*id, |a, _| (a.handovers, a.drops)),
                // Full stack: completed routing handovers from the
                // middleware counter; drops are session routes lost to
                // coverage, as classified by the host wrapper.
                StackMode::Full => world
                    .with_agent::<FullStackHost, _>(*id, |a, _| (a.node().handover_completions(), a.broken_by_range)),
            };
            if let Some((h, d)) = counted {
                handovers += h;
                drops += d;
            }
        }
        let g = world.metrics().global();
        report.push_row([
            nodes.to_string(),
            format!("{:.0}", settings.city.side_m(nodes)),
            ExperimentReport::f(avg_neighbors),
            g.inquiries_started.to_string(),
            g.connects_established.to_string(),
            handovers.to_string(),
            drops.to_string(),
        ]);
    }
    report.push_note(format!(
        "constant density {} nodes/km^2, {:.0}% mobile, {}s simulated per row",
        settings.city.density_per_km2,
        settings.city.mobile_fraction * 100.0,
        settings.city.duration.as_secs_f64()
    ));
    if settings.stack == StackMode::Full {
        report.push_note(
            "full PeerHood stack on every node (StackMode::Full): handovers are completed routing \
             handovers, drops are session routes lost to coverage"
                .to_string(),
        );
    }
    report
}
