//! The light city probe of E12–E14, E17 and E18: the thesis' mobility
//! behaviours at substrate level — scan, attach to the best-quality
//! neighbour, hand over when the monitored quality falls below "signal low",
//! re-attach after a loss (§3.4, §5.2.1) — written once against
//! [`simnet::agent::Ctx`] and run on both engines. Its counters are
//! [`FullStats`], the ones [`FullStackHost`](super::full_stack::FullStackHost)
//! reports, so a city is tallied the same way whichever agent populates it.

use simnet::agent::{Agent, Ctx};
use simnet::prelude::*;

use crate::experiments::full_stack::FullStats;

const SCAN: TimerToken = TimerToken(0xE121);
const QCHECK: TimerToken = TimerToken(0xE122);
const PING: TimerToken = TimerToken(0xE123);

const PING_PAYLOAD: &[u8] = b"city-ping";

/// How often an attached probe that hands over samples its link.
const QCHECK_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// A city device: scans periodically, attaches to its best-quality
/// neighbour and re-attaches after every loss; optionally hands over when
/// the monitored quality falls below the thesis' "signal low" threshold, and
/// optionally pings the peer it is attached to. Counters survive crashes (the
/// probe is the measurement instrument, not the subject); session state is
/// reset when the node reboots.
pub struct CityProbe {
    inquiry_interval: SimDuration,
    ping_interval: Option<SimDuration>,
    hands_over: bool,
    attached: Option<(LinkId, NodeId)>,
    handover_from: Option<LinkId>,
    connecting: bool,
    /// The last scan's two best hits, best first, by `CityProbe::rank`:
    /// all that "best hit" and "best hit that is not my peer" ever read.
    best_hits: [Option<InquiryHit>; 2],
    /// Set when a session is lost (or the node reboots); consumed by the
    /// next successful attachment to measure reconnection latency.
    down_since: Option<SimTime>,
    /// `attached` is filled in by [`CityProbe::stats`].
    counts: FullStats,
}

impl CityProbe {
    /// The E17/E18 probe: hands over and pings its peer every
    /// `ping_interval`.
    pub fn new(inquiry_interval: SimDuration, ping_interval: SimDuration) -> Self {
        CityProbe::with(inquiry_interval, Some(ping_interval), true)
    }

    /// A probe that pings every `ping_interval` if given one, and hands over
    /// if `hands_over` (E12 does, E13/E14 measure re-attachment alone).
    pub fn with(inquiry_interval: SimDuration, ping_interval: Option<SimDuration>, hands_over: bool) -> Self {
        CityProbe {
            inquiry_interval,
            ping_interval,
            hands_over,
            attached: None,
            handover_from: None,
            connecting: false,
            best_hits: [None; 2],
            down_since: None,
            counts: FullStats::default(),
        }
    }

    /// The probe's counters: a handover is a completed one, a ping received
    /// is a payload received, and a break is classified by the radio-level
    /// reason exactly as `FullStackHost` classifies its session route's.
    pub fn stats(&self) -> FullStats {
        self.counts
    }

    /// True while the probe holds a session.
    pub fn attached(&self) -> bool {
        self.attached.is_some()
    }

    /// The order candidates are chosen in: by quality, ties broken towards
    /// the lower id, so the choice is deterministic.
    fn rank(hit: &InquiryHit) -> (u8, std::cmp::Reverse<NodeId>) {
        (hit.quality, std::cmp::Reverse(hit.node))
    }

    /// Keeps the two best of a scan's hits. A scan reports a node at most
    /// once, so one of the two is never `except` for any single node.
    fn remember(&mut self, hits: &[InquiryHit]) {
        self.best_hits = [None; 2];
        for &hit in hits {
            let [best, second] = &mut self.best_hits;
            if best.is_none_or(|b| Self::rank(&hit) > Self::rank(&b)) {
                *second = best.replace(hit);
            } else if second.is_none_or(|s| Self::rank(&hit) > Self::rank(&s)) {
                *second = Some(hit);
            }
        }
    }

    /// Best candidate of the last scan, excluding `except`.
    fn best_candidate(&self, except: Option<NodeId>) -> Option<InquiryHit> {
        self.best_hits.into_iter().flatten().find(|h| Some(h.node) != except)
    }
}

impl Agent for CityProbe {
    fn on_start<C: Ctx>(&mut self, ctx: &mut C) {
        // Stagger scans so the city is not phase-locked on one instant.
        let jitter = SimDuration::from_millis(ctx.rng().range(0..self.inquiry_interval.as_millis().max(1)));
        ctx.schedule(jitter, SCAN);
        if self.hands_over {
            ctx.schedule(QCHECK_INTERVAL + jitter, QCHECK);
        }
        if let Some(interval) = self.ping_interval {
            ctx.schedule(interval + jitter, PING);
        }
    }

    fn on_restart<C: Ctx>(&mut self, ctx: &mut C) {
        // Reboot: the link table and the scan cache are gone (the epoch guard
        // already killed the old timers and attempts). Time spent dead does
        // not count as reconnection latency.
        self.attached = None;
        self.handover_from = None;
        self.connecting = false;
        self.best_hits = [None; 2];
        self.down_since = Some(ctx.now());
        // By path: with the prelude's `ShardAgent` in scope too, method syntax
        // would be ambiguous on a type that is both.
        Agent::on_start(self, ctx);
    }

    fn on_timer<C: Ctx>(&mut self, ctx: &mut C, token: TimerToken) {
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
                ctx.schedule(QCHECK_INTERVAL, QCHECK);
            }
            PING => {
                if let Some((link, _)) = self.attached {
                    let _ = ctx.send(link, PING_PAYLOAD.into());
                }
                ctx.schedule(self.ping_interval.expect("only a pinging probe arms PING"), PING);
            }
            _ => {}
        }
    }

    fn on_inquiry_complete<C: Ctx>(&mut self, ctx: &mut C, _tech: RadioTech, hits: Vec<InquiryHit>) {
        self.remember(&hits);
        if self.attached.is_none() && !self.connecting {
            if let Some(best) = self.best_candidate(None) {
                self.connecting = true;
                ctx.connect(best.node, RadioTech::Wlan);
            }
        }
    }

    fn on_incoming_connection<C: Ctx>(&mut self, _ctx: &mut C, _incoming: IncomingConnection) -> bool {
        true
    }

    fn on_connected<C: Ctx>(&mut self, ctx: &mut C, _attempt: AttemptId, link: LinkId, peer: NodeId, _tech: RadioTech) {
        self.connecting = false;
        if let Some(old) = self.handover_from.take() {
            ctx.close(old);
            self.counts.handover_completions += 1;
        }
        self.attached = Some((link, peer));
        self.counts.sessions_established += 1;
        if let Some(t0) = self.down_since.take() {
            self.counts.reconnect_secs_total += ctx.now().saturating_since(t0).as_secs_f64();
            self.counts.reconnects += 1;
        }
    }

    fn on_connect_failed<C: Ctx>(
        &mut self,
        _ctx: &mut C,
        _attempt: AttemptId,
        _peer: NodeId,
        _tech: RadioTech,
        _error: ConnectError,
    ) {
        self.connecting = false;
        self.handover_from = None;
    }

    fn on_message<C: Ctx>(&mut self, _ctx: &mut C, _link: LinkId, _from: NodeId, payload: Payload) {
        if payload.as_slice() == PING_PAYLOAD {
            self.counts.payloads_received += 1;
        }
    }

    fn on_disconnected<C: Ctx>(&mut self, ctx: &mut C, link: LinkId, _peer: NodeId, reason: DisconnectReason) {
        if self.handover_from == Some(link) {
            // The old link died before the handover connect resolved: the
            // in-flight attempt becomes a plain re-attach, not a handover.
            self.handover_from = None;
        }
        if self.attached.map(|(l, _)| l) == Some(link) {
            self.attached = None;
            match reason {
                DisconnectReason::PeerClosed | DisconnectReason::LocalClosed => return,
                DisconnectReason::PeerFailed => self.counts.broken_by_crash += 1,
                DisconnectReason::OutOfRange => self.counts.broken_by_range += 1,
            }
            self.down_since = Some(ctx.now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rule the probe applied to its whole last scan before it kept only
    /// the two best hits.
    fn whole_scan_best(hits: &[InquiryHit], except: Option<NodeId>) -> Option<InquiryHit> {
        hits.iter()
            .filter(|h| Some(h.node) != except)
            .max_by_key(|h| (h.quality, std::cmp::Reverse(h.node)))
            .copied()
    }

    #[test]
    fn the_two_best_hits_answer_what_the_whole_scan_answered() {
        let mut rng = SimRng::new(0xB357);
        let mut probe = CityProbe::with(SimDuration::from_secs(10), None, true);
        let mut nodes: Vec<u64> = (0..40).collect();
        for round in 0..3_000 {
            // A scan reports each node at most once, in no particular order;
            // a narrow quality range makes ties common.
            rng.shuffle(&mut nodes);
            let len = rng.range(0..16usize);
            let top: u8 = if round % 2 == 0 { 3 } else { 255 };
            let hits: Vec<InquiryHit> = nodes[..len]
                .iter()
                .map(|&raw| InquiryHit {
                    node: NodeId::from_raw(raw),
                    tech: RadioTech::Wlan,
                    quality: rng.range(0..=top),
                })
                .collect();
            probe.remember(&hits);
            let absent = NodeId::from_raw(nodes[len]);
            let excepts = [None, Some(absent)]
                .into_iter()
                .chain(hits.iter().map(|h| Some(h.node)));
            for except in excepts {
                assert_eq!(
                    probe.best_candidate(except),
                    whole_scan_best(&hits, except),
                    "round {round}, except {except:?}, scan {hits:?}"
                );
            }
        }
    }
}
