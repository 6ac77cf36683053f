//! E19: the hostile city — network partitions and Byzantine insiders run
//! against the `peerhood::security` defence tiers.
//!
//! The scenario reuses the E16 crowd (clients pinging `"hotspot"`
//! providers) and plants compromised insiders in it: each hostile node runs
//! the honest middleware stack *and* an [`AdversaryPlan`] compromise window
//! that tampers its outbound frames and injects forged ones built by
//! [`ProtocolForge`] — replayed Accepts, foreign connection ids, hijacked
//! reply contexts and poisoned neighbour reports advertising phantom
//! `"hotspot"` providers. Midway through, a seeded partition window splits
//! the city and heals it again. The same world seed (and therefore the
//! same attack schedule, byte for byte) is run once per defence tier:
//!
//! * **off** — the thesis stack verbatim: every forged frame that parses is
//!   acted on, phantom providers enter the §3.4.3 ranking and are kept
//!   fresh by re-poisoning, and the scorecard counts how far the rot
//!   spreads.
//! * **sanity** — structural checks plus reporter reputation
//!   ([`SecurityConfig::sanity`]): foreign connection ids, bad reply
//!   contexts, duplicate Accepts and conn/link mismatches are dropped and
//!   charged to the sender, so the insiders talk themselves onto every
//!   victim's blocklist and their stale phantoms age out of storage.
//! * **auth** — sanity plus keyed frame authentication
//!   ([`SecurityConfig::auth`]): forged and tampered frames fail the MAC
//!   before they are even decoded, at a measured per-frame byte cost.
//!
//! Determinism: the adversary draws from its own RNG stream, the defences
//! draw none, and the world seed is independent of the tier — one seed
//! gives one byte-identical report per tier, and the *plan digest* printed
//! in the report notes is identical across tiers (CI diffs it between the
//! `off` and `auth` runs).

use std::sync::Arc;

use peerhood::config::{PeerHoodConfig, SecurityConfig};
use peerhood::hostile::{ProtocolForge, HOSTILE_BASE};
use peerhood::security::SecurityStats;
use simnet::prelude::*;
use simnet::telemetry::Fnv1a;

use crate::experiments::city::wlan_world;
use crate::experiments::crowd::{Crowd, CrowdTally, HotspotApp, HOTSPOT_SERVICE};
use crate::experiments::full_stack::{add_stack, wlan_city_config};
use crate::experiments::params::{count, Param};
use crate::report::ExperimentReport;

/// One defence tier of the scorecard grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defense {
    /// The thesis stack verbatim: no hardening at all.
    Off,
    /// Structural sanity checks plus reporter reputation.
    Sanity,
    /// Sanity plus keyed frame authentication.
    Auth,
}

impl Defense {
    /// Every tier, in scorecard order.
    pub const ALL: [Defense; 3] = [Defense::Off, Defense::Sanity, Defense::Auth];

    /// The tier's grid value (`off` / `sanity` / `auth`).
    pub fn name(self) -> &'static str {
        match self {
            Defense::Off => "off",
            Defense::Sanity => "sanity",
            Defense::Auth => "auth",
        }
    }

    /// The node configuration the tier switches on.
    pub fn security(self) -> SecurityConfig {
        match self {
            Defense::Off => SecurityConfig::off(),
            Defense::Sanity => SecurityConfig::sanity(),
            Defense::Auth => SecurityConfig::auth(),
        }
    }
}

impl std::str::FromStr for Defense {
    type Err = String;

    /// Parses a `defenses=` grid value.
    fn from_str(value: &str) -> Result<Self, String> {
        Defense::ALL
            .into_iter()
            .find(|tier| tier.name() == value)
            .ok_or_else(|| format!("`{value}` is not a defence tier (off|sanity|auth)"))
    }
}

/// What E19 adds to its crowd: honest providers, planted insiders and the
/// attack and partition schedule. Every defence tier runs the same seed, so
/// the same schedule.
#[derive(Debug, Clone)]
pub struct AdversarySettings {
    /// Honest `"hotspot"` providers.
    pub providers: usize,
    /// Compromised insiders (run the honest stack; their radio is hostile).
    pub hostiles: usize,
    /// When the insiders' compromise windows open.
    pub compromise_at: SimDuration,
    /// Spacing of injection attempts per insider.
    pub inject_interval: SimDuration,
    /// Partition window start.
    pub partition_from: SimDuration,
    /// Partition window end (the heal instant).
    pub partition_until: SimDuration,
}

/// E19 at full size (`repro` without `--quick`). The inquiry interval is
/// deliberately short so victims keep daemon-fetch links towards the
/// insiders open (the poisoning delivery channel).
pub fn full() -> Crowd<AdversarySettings> {
    Crowd {
        seed: 19,
        clients: 18,
        duration: SimDuration::from_secs(240),
        inquiry_interval: SimDuration::from_secs(4),
        warmup: SimDuration::from_secs(30),
        ping_interval: SimDuration::from_secs(2),
        pings_per_tick: 2,
        extra: AdversarySettings {
            providers: 3,
            hostiles: 3,
            compromise_at: SimDuration::from_secs(40),
            inject_interval: SimDuration::from_millis(900),
            partition_from: SimDuration::from_secs(120),
            partition_until: SimDuration::from_secs(160),
        },
    }
}

/// E19's CI variant: a smaller crowd over a shorter horizon.
pub fn quick() -> Crowd<AdversarySettings> {
    let full = full();
    Crowd {
        clients: 12,
        duration: SimDuration::from_secs(180),
        extra: AdversarySettings {
            hostiles: 2,
            partition_from: SimDuration::from_secs(90),
            partition_until: SimDuration::from_secs(120),
            ..full.extra
        },
        ..full
    }
}

/// The grid parameters of E19, over the crowd and the defence tiers to run
/// (one report row each).
pub const PARAMS: &[Param<(Crowd<AdversarySettings>, Vec<Defense>)>] = &[
    Param::new(
        "defenses",
        "run only one tier (default: off, sanity and auth rows)",
        |(_, tiers), v| v.parse().map(|tier| *tiers = vec![tier]),
    ),
    Crowd::clients().help("honest crowd size"),
    Param::new("hostiles", "compromised insiders planted in the crowd", |(s, _), v| {
        count(v).map(|n| s.extra.hostiles = n)
    }),
    Crowd::duration_s().help("simulated seconds per tier"),
];

/// The shared node configuration of the hostile city: the E16 crowd tuning
/// with one-hop neighbour re-export switched on (so poisoned reports
/// spread the way the thesis intends honest ones to) and the tier's
/// security configuration applied fleet-wide.
fn city_config(crowd: &Crowd<AdversarySettings>, defense: Defense) -> Arc<PeerHoodConfig> {
    let mut cfg = wlan_city_config("hostile-city", crowd.inquiry_interval);
    // Short re-fetch and staleness horizons: neighbours keep re-reading
    // each other all run, so poisoned reports keep landing (off) — and stop
    // being refreshed once their reporter is blocked, at which point the
    // phantoms age out within the run (sanity/auth).
    cfg.discovery.service_check_interval = SimDuration::from_secs(20);
    cfg.discovery.stale_timeout = SimDuration::from_secs(40);
    // Direct entries age out after three missed inquiry loops: partitioned
    // clients drop their unreachable providers mid-window and fall back to
    // the insider's phantom routes — the §3.4.3 ranking prefers direct
    // providers, so the poison only bites once the real thing is gone.
    cfg.discovery.max_missed_loops = 3;
    cfg.discovery.max_export_jumps = 1;
    cfg.security = defense.security();
    Arc::new(cfg)
}

/// Seed-stable FNV-1a digest of an [`AdversaryPlan`] — identical across
/// defence tiers by construction, so CI can diff the printed value between
/// the `off` and `auth` rows as an invariant.
pub fn plan_digest(plan: &AdversaryPlan) -> u64 {
    let mut digest = Fnv1a::default();
    let mut fold = |value: u64| digest.write(&value.to_be_bytes());
    for window in plan.partitions() {
        fold(window.from.as_micros());
        fold(window.until.as_micros());
        for &node in &window.island {
            fold(node.as_raw());
        }
    }
    for c in plan.compromised() {
        fold(c.node.as_raw());
        fold(c.from.as_micros());
        fold(c.until.as_micros());
        fold(c.inject_interval.as_micros());
    }
    digest.finish()
}

/// The hostile city, built and run in one defence tier. Returns the world,
/// the honest node ids (providers then clients), the hostile node ids and
/// the plan digest.
///
/// Geometry (metres, everything inside one WLAN disc): providers along the
/// top edge, the crowd gridded below them, the insiders planted inside the
/// crowd so every client keeps them within one radio hop. The partition
/// window islands the left crowd columns together with the first insider
/// (and no provider), then heals the city again.
pub fn adversary_run(crowd: &Crowd<AdversarySettings>, defense: Defense) -> (World, Vec<NodeId>, Vec<NodeId>, u64) {
    let mut world = wlan_world(crowd.seed ^ 0x0E19_0000);
    let cfg = city_config(crowd, defense);
    let attack = &crowd.extra;

    let mut honest = Vec::with_capacity(attack.providers + crowd.clients);
    for p in 0..attack.providers {
        let at = Point::new(20.0 * p as f64, 20.0);
        honest.push(add_stack(&mut world, format!("hs{p}"), at, &cfg, HotspotApp::default()));
    }
    let mut left_clients = Vec::new();
    for i in 0..crowd.clients {
        let pos = Point::new(3.0 + (i % 6) as f64 * 6.0, 4.0 + (i / 6) as f64 * 4.0);
        let id = add_stack(&mut world, format!("c{i}"), pos, &cfg, crowd.app());
        honest.push(id);
        if i % 6 < 2 {
            left_clients.push(id);
        }
    }
    // The insiders run the honest stack and the honest crowd application —
    // their persistent hotspot session guarantees the injector always finds
    // an open link, and gives the tamper pass real data traffic to corrupt.
    let mut hostiles = Vec::with_capacity(attack.hostiles);
    for h in 0..attack.hostiles {
        let pos = Point::new(10.0 + 8.0 * h as f64, 14.0);
        hostiles.push(add_stack(&mut world, format!("x{h}"), pos, &cfg, crowd.app()));
    }

    let compromise_from = SimTime::ZERO + attack.compromise_at;
    let compromise_until = SimTime::ZERO + crowd.duration;
    let mut plan = AdversaryPlan::new();
    for &node in &hostiles {
        plan = plan.compromise(node, compromise_from, compromise_until, attack.inject_interval);
    }
    // The island holds crowd members and one insider but no provider: the
    // cut tears the islanders' sessions down and leaves the insider's
    // phantom routes as the only advertised way back to the service.
    let mut island = vec![hostiles[0]];
    island.extend_from_slice(&left_clients);
    plan = plan.partition(
        SimTime::ZERO + attack.partition_from,
        SimTime::ZERO + attack.partition_until,
        island,
    );
    let digest = plan_digest(&plan);
    world.install_adversary_plan(plan);
    world.set_frame_forge(Box::new(ProtocolForge::new(HOTSPOT_SERVICE)));

    let scope = format!("E19 defenses={}", defense.name());
    // Mirror the hardening layer's counters (summed over the honest city)
    // into the `security` gauges between frames.
    crowd.run(
        &mut world,
        &scope,
        &honest,
        |total: &mut SecurityStats, node| total.absorb(&node.security_stats()),
        SecurityStats::export,
    );
    (world, honest, hostiles, digest)
}

/// The security scorecard of one defence tier.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryOutcome {
    /// Client sessions established across the honest crowd.
    pub sessions: u64,
    /// Sessions that survived: established minus lost.
    pub survived: u64,
    /// Echo payloads delivered back to honest clients.
    pub goodput: u64,
    /// Phantom routes resident in honest device storages at the end of the
    /// run (entries whose address is in the hostile range).
    pub routes_poisoned: u64,
    /// Hostile frames the adversary produced (tampered + injected).
    pub hostile_frames: u64,
    /// Hostile frames demonstrably refused by some defence.
    pub hostile_rejected: u64,
    /// Hostile frames nothing refused (delivered and acted on, or at least
    /// parsed): `hostile_frames - hostile_rejected`.
    pub hostile_accepted: u64,
    /// Summed hardening counters across the honest city.
    pub security: SecurityStats,
    /// The simulator-side adversary counters.
    pub adversary: AdversaryStats,
    /// Digest of the attack schedule (tier-invariant per seed).
    pub plan_digest: u64,
}

/// Runs one tier and aggregates the scorecard.
pub fn adversary_outcome(crowd: &Crowd<AdversarySettings>, defense: Defense) -> AdversaryOutcome {
    let (mut world, honest, _hostiles, digest) = adversary_run(crowd, defense);
    let mut routes_poisoned = 0u64;
    let mut security = SecurityStats::default();
    let tally = CrowdTally::of(&mut world, &honest, |node| {
        routes_poisoned += node
            .known_devices()
            .iter()
            .filter(|d| d.info.address.node_id().as_raw() >= HOSTILE_BASE)
            .count() as u64;
        security.absorb(&node.security_stats());
    });
    let adversary = world.adversary_stats();
    let hostile_frames = adversary.frames_hostile();
    let hostile_rejected = security.frames_rejected();
    AdversaryOutcome {
        sessions: tally.total.sessions_established,
        survived: tally
            .total
            .sessions_established
            .saturating_sub(tally.total.sessions_lost),
        goodput: tally.total.delivered,
        routes_poisoned,
        hostile_frames,
        hostile_rejected,
        hostile_accepted: hostile_frames.saturating_sub(hostile_rejected),
        security,
        adversary,
        plan_digest: digest,
    }
}

/// E19 (beyond the thesis): the hostile city, one scorecard row per
/// defence tier in `defenses`.
pub fn e19_hostile_city(crowd: &Crowd<AdversarySettings>, defenses: &[Defense]) -> ExperimentReport {
    let mut report = ExperimentReport::new(&[
        "defenses",
        "sessions",
        "survived",
        "goodput",
        "routes poisoned",
        "hostile frames",
        "hostile accepted",
        "hostile rejected",
        "reports skipped",
        "auth bytes",
    ]);
    let mut digest = None;
    for &defense in defenses {
        let o = adversary_outcome(crowd, defense);
        digest = Some(o.plan_digest);
        report.push_row([
            defense.name().to_string(),
            o.sessions.to_string(),
            o.survived.to_string(),
            o.goodput.to_string(),
            o.routes_poisoned.to_string(),
            o.hostile_frames.to_string(),
            o.hostile_accepted.to_string(),
            o.hostile_rejected.to_string(),
            o.security.reports_skipped.to_string(),
            o.security.auth_bytes.to_string(),
        ]);
    }
    report.push_note(format!(
        "{} providers, {} clients and {} compromised insiders in one WLAN disc; compromise opens \
         at {}s (injection every {:.1}s per insider), a partition islands the left third over \
         [{}s, {}s), {}s simulated; identical world seed in every tier — only the defences differ",
        crowd.extra.providers,
        crowd.clients,
        crowd.extra.hostiles,
        crowd.extra.compromise_at.as_secs(),
        crowd.extra.inject_interval.as_secs_f64(),
        crowd.extra.partition_from.as_secs(),
        crowd.extra.partition_until.as_secs(),
        crowd.duration.as_secs_f64(),
    ));
    if let Some(digest) = digest {
        report.push_note(format!("plan digest {digest:016x}"));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A debug-build hostile city: two providers, eight clients and two
    /// insiders, compromised at 30 s and cut over [70 s, 100 s) of 150 s.
    fn small() -> Crowd<AdversarySettings> {
        let full = full();
        Crowd {
            clients: 8,
            duration: SimDuration::from_secs(150),
            extra: AdversarySettings {
                providers: 2,
                hostiles: 2,
                compromise_at: SimDuration::from_secs(30),
                partition_from: SimDuration::from_secs(70),
                partition_until: SimDuration::from_secs(100),
                ..full.extra
            },
            ..full
        }
    }

    /// Same seed ⇒ identical scorecard per tier — the adversary draws from
    /// its own RNG stream and the defences draw none.
    #[test]
    fn hostile_city_is_deterministic_per_tier() {
        let settings = small();
        for defense in Defense::ALL {
            let a = adversary_outcome(&settings, defense);
            let b = adversary_outcome(&settings, defense);
            assert_eq!(a, b, "tier {} must reproduce exactly", defense.name());
        }
        let r1 = e19_hostile_city(&settings, &Defense::ALL).to_string();
        let r2 = e19_hostile_city(&settings, &Defense::ALL).to_string();
        assert_eq!(r1, r2, "the report must be byte-identical per seed");
    }

    /// Acceptance: on every seed of the sweep, each defence tier strictly
    /// lowers both routes-poisoned and hostile-frames-accepted relative to
    /// the undefended stack, and the attack schedule digest is
    /// tier-invariant.
    #[test]
    fn defences_strictly_lower_poison_and_acceptance_across_seeds() {
        for seed in [19u64, 42, 77, 20080815] {
            let settings = Crowd { seed, ..small() };
            let off = adversary_outcome(&settings, Defense::Off);
            let sanity = adversary_outcome(&settings, Defense::Sanity);
            let auth = adversary_outcome(&settings, Defense::Auth);

            assert_eq!(
                off.plan_digest, sanity.plan_digest,
                "seed {seed}: plan digest is tier-invariant"
            );
            assert_eq!(
                off.plan_digest, auth.plan_digest,
                "seed {seed}: plan digest is tier-invariant"
            );
            assert!(off.hostile_frames > 0, "seed {seed}: the insiders must actually attack");

            // The undefended stack rejects nothing and accumulates poison.
            assert_eq!(off.hostile_rejected, 0, "seed {seed}: no defences, no rejections");
            assert_eq!(
                off.security,
                SecurityStats::default(),
                "seed {seed}: off counts nothing"
            );
            assert!(off.routes_poisoned > 0, "seed {seed}: phantom providers must take root");

            for (name, tier) in [("sanity", &sanity), ("auth", &auth)] {
                assert!(
                    tier.routes_poisoned < off.routes_poisoned,
                    "seed {seed}: {name} routes_poisoned {} must be below off {}",
                    tier.routes_poisoned,
                    off.routes_poisoned
                );
                assert!(
                    tier.hostile_accepted < off.hostile_accepted,
                    "seed {seed}: {name} hostile_accepted {} must be below off {}",
                    tier.hostile_accepted,
                    off.hostile_accepted
                );
                assert!(tier.hostile_rejected > 0, "seed {seed}: {name} must reject something");
            }
            assert!(
                auth.security.auth_rejected > 0,
                "seed {seed}: forged frames must fail the MAC"
            );
            assert!(
                auth.security.auth_bytes > 0,
                "seed {seed}: the auth tier must pay its trailer bytes"
            );
        }
    }
}
