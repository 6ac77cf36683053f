//! What a finished run produced: the simulated results, which repeat exactly.
//!
//! Everything here is read from the world after the run loop stopped, through
//! the crates' public getters. None of it is wall-clock: the same seed gives
//! the same [`Outcome`] on any machine, traced or not, so two runs compare
//! with `==` and a change that claims speed or simplicity alone must leave it
//! untouched.

use std::collections::BTreeMap;

use peerhood::hostile::HOSTILE_BASE;
use peerhood::resilience::ResilienceStats;
use peerhood::security::SecurityStats;
use scenarios::experiments::full_stack::FullStackHost;
use scenarios::experiments::metropolis::aggregate_full_stats;
use scenarios::experiments::sharded::sharded_world_digest;
use simnet::prelude::*;
use simnet::telemetry::fnv1a;

use crate::probe::ProbeWatch;
use crate::workloads::{City, Spec};

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// The simulated results of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// FNV-1a over every counter the world can report. No better or worse,
    /// only equal.
    pub digest: u64,
    /// Share of nodes holding an established session when the run stopped.
    pub attached_pct: f64,
    /// Mean simulated seconds from losing a session to the next one.
    pub reconnect_s: f64,
    /// Simulated operations tried: `connect_attempts + messages_sent`.
    pub ops_attempted: u64,
    /// Simulated operations the radio model failed: `connect_failures + messages_lost`.
    pub ops_failed: u64,
    /// Routes to forged (`HOSTILE_BASE`+) devices still stored by honest nodes.
    pub poisoned_routes: u64,
    /// The exactly repeating per-layer counts, by metric name.
    pub counts: Metrics,
}

impl Outcome {
    /// True when `other` reports the same simulated results: every scalar, and
    /// every count `self` carries (a traced run's outcome carries its span
    /// figures on top, so call this on the untraced one).
    pub fn agrees_with(&self, other: &Outcome) -> bool {
        let scalars = |o: &Outcome| {
            (
                o.digest,
                o.attached_pct.to_bits(),
                o.reconnect_s.to_bits(),
                o.ops_attempted,
                o.ops_failed,
                o.poisoned_routes,
            )
        };
        scalars(self) == scalars(other)
            && self
                .counts
                .iter()
                .all(|(name, value)| other.counts.get(name) == Some(value))
    }
}

/// The bytes `sim_digest` hashes: every folded value, little-endian.
#[derive(Default)]
struct Folded(Vec<u8>);

impl Folded {
    fn fold(&mut self, values: impl IntoIterator<Item = u64>) {
        for value in values {
            self.0.extend_from_slice(&value.to_le_bytes());
        }
    }

    fn fold_counters(&mut self, c: &Counters) {
        self.fold([
            c.inquiries_started,
            c.inquiry_hits,
            c.connect_attempts,
            c.connect_failures,
            c.connects_established,
            c.messages_sent,
            c.bytes_sent,
            c.messages_delivered,
            c.messages_lost,
            c.links_broken,
            c.quality_samples,
        ]);
    }

    fn digest(&self) -> u64 {
        fnv1a(&self.0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn named<const N: usize>(counts: [(&str, u64); N]) -> impl Iterator<Item = (String, f64)> + '_ {
    counts.into_iter().map(|(name, value)| (name.to_string(), value as f64))
}

/// Reads the results of a finished full-stack city.
pub fn of_city(spec: &Spec, city: &mut City) -> Outcome {
    let world = &mut city.world;
    let mut folded = Folded::default();
    let g = *world.metrics().global();
    folded.fold_counters(&g);
    for (id, counters) in world.metrics().iter_nodes() {
        folded.fold([id.as_raw()]);
        folded.fold_counters(counters);
    }
    let fault = world.fault_stats();
    folded.fold([fault.crashes, fault.restarts, fault.radio_outages, fault.radio_restores]);
    let adv = world.adversary_stats();
    folded.fold([
        adv.partitions_started,
        adv.partitions_healed,
        adv.partition_drops,
        adv.cut_links_broken,
        adv.frames_tampered,
        adv.frames_injected,
    ]);
    let (stats, attached) = aggregate_full_stats(world);
    folded.fold([
        stats.sessions_established,
        stats.broken_by_crash,
        stats.broken_by_range,
        stats.handover_completions,
        stats.route_changes,
        stats.pings_sent,
        stats.payloads_received,
        stats.reconnects,
        stats.reconnect_secs_total.to_bits(),
        attached as u64,
    ]);

    // Per-node middleware state beneath the application, summed over the nodes
    // that are up (a crashed node's stack is gone until it reboots). Only a
    // city under attack can hold forged routes, so only there is every stored
    // device looked at.
    let mut security = SecurityStats::default();
    let mut resilience = ResilienceStats::default();
    let (mut up, mut known, mut direct, mut poisoned_routes) = (0u64, 0u64, 0u64, 0u64);
    for id in world.node_ids().collect::<Vec<_>>() {
        let count_poison = spec.attack.is_some() && city.insiders.binary_search(&id).is_err();
        let read = world.with_agent::<FullStackHost, _>(id, |host, _| {
            let node = host.node();
            let poisoned = match count_poison {
                true => node
                    .known_devices()
                    .iter()
                    .filter(|d| d.info.address.node_id().as_raw() >= HOSTILE_BASE)
                    .count(),
                false => 0,
            };
            (
                node.security_stats(),
                node.resilience_stats(),
                node.storage_stats(),
                poisoned,
            )
        });
        if let Some((sec, res, storage, poisoned)) = read {
            up += 1;
            security.absorb(&sec);
            resilience.absorb(&res);
            known += storage.known_devices as u64;
            direct += storage.direct_neighbors as u64;
            poisoned_routes += poisoned as u64;
        }
    }

    let mut counts: Metrics = named([
        ("simnet.world.msgs_sent", g.messages_sent),
        ("simnet.world.bytes_sent", g.bytes_sent),
        ("simnet.world.msgs_delivered", g.messages_delivered),
        ("simnet.world.msgs_lost", g.messages_lost),
        ("simnet.world.connect_attempts", g.connect_attempts),
        ("simnet.world.connect_failures", g.connect_failures),
        ("simnet.world.links_broken", g.links_broken),
        ("simnet.world.inquiries", g.inquiries_started),
        ("simnet.world.inquiry_hits", g.inquiry_hits),
        ("simnet.world.links_open_end", world.open_link_count() as u64),
        ("simnet.world.links_retired_end", world.retired_link_count() as u64),
        ("simnet.faults.crashes", fault.crashes),
        ("simnet.faults.restarts", fault.restarts),
        ("simnet.adversary.frames_injected", adv.frames_injected),
        ("simnet.adversary.frames_tampered", adv.frames_tampered),
        ("simnet.adversary.cut_links_broken", adv.cut_links_broken),
        ("peerhood.security.frames_authenticated", security.frames_authenticated),
        ("peerhood.security.auth_rejected", security.auth_rejected),
        ("peerhood.security.replay_rejected", security.replay_rejected),
        (
            "peerhood.security.sanity_rejected",
            security.foreign_conn_rejected
                + security.bad_reply_context
                + security.duplicate_accepts
                + security.conn_mismatch_dropped,
        ),
        ("peerhood.security.penalties_recorded", security.penalties_recorded),
        ("peerhood.resilience.breaker_trips", resilience.breaker_trips),
        ("peerhood.resilience.breaker_blocked", resilience.breaker_blocked),
        ("peerhood.resilience.admitted", resilience.admitted),
        (
            "peerhood.resilience.shed",
            resilience.inbound_shed
                + resilience.outbound_shed
                + resilience.queue_shed
                + resilience.rejected_sessions
                + resilience.rejected_rate,
        ),
        ("peerhood.handover.completions", stats.handover_completions),
        ("peerhood.handover.route_changes", stats.route_changes),
        ("peerhood.handover.broken_by_range", stats.broken_by_range),
        ("peerhood.handover.broken_by_crash", stats.broken_by_crash),
        ("peerhood.app.sessions_established", stats.sessions_established),
        ("peerhood.app.pings_sent", stats.pings_sent),
        ("peerhood.app.payloads_received", stats.payloads_received),
        ("peerhood.app.reconnects", stats.reconnects),
    ])
    .collect();
    let served = (resilience.inquiries_cached + resilience.inquiries_encoded) as f64;
    for (name, value) in [
        (
            "peerhood.resilience.inquiry_cache_hit_pct",
            100.0 * ratio(resilience.inquiries_cached as f64, served),
        ),
        ("peerhood.storage.known_devices_mean", ratio(known as f64, up as f64)),
        (
            "peerhood.storage.direct_neighbors_mean",
            ratio(direct as f64, up as f64),
        ),
    ] {
        counts.insert(name.to_string(), value);
    }

    Outcome {
        digest: folded.digest(),
        attached_pct: 100.0 * ratio(attached as f64, spec.nodes as f64),
        reconnect_s: ratio(stats.reconnect_secs_total, stats.reconnects as f64),
        ops_attempted: g.connect_attempts + g.messages_sent,
        ops_failed: g.connect_failures + g.messages_lost,
        poisoned_routes,
        counts,
    }
}

/// Reads the results of a finished sharded probe city.
pub fn of_probe_city(spec: &Spec, world: &mut ShardedWorld) -> Outcome {
    let (mut attached, mut reconnects, mut sessions) = (0u64, 0u64, 0u64);
    let mut reconnect_secs = 0.0f64;
    for id in world.node_ids().collect::<Vec<_>>() {
        let alive = world.is_alive(id);
        let read = world.with_agent::<ProbeWatch, _>(id, |w| {
            (
                w.attached(),
                w.reconnects,
                w.reconnect_secs_total,
                w.sessions_established,
            )
        });
        if let Some((is_attached, n, secs, established)) = read {
            attached += (alive && is_attached) as u64;
            reconnects += n;
            reconnect_secs += secs;
            sessions += established;
        }
    }
    let mut folded = Folded::default();
    folded.fold([
        sharded_world_digest(world),
        attached,
        reconnects,
        reconnect_secs.to_bits(),
        sessions,
    ]);
    let g = *world.metrics().global();
    let fault = world.fault_stats();
    Outcome {
        digest: folded.digest(),
        attached_pct: 100.0 * ratio(attached as f64, spec.nodes as f64),
        reconnect_s: ratio(reconnect_secs, reconnects as f64),
        ops_attempted: g.connect_attempts + g.messages_sent,
        ops_failed: g.connect_failures + g.messages_lost,
        poisoned_routes: 0,
        counts: named([
            ("simnet.shard.msgs_sent", g.messages_sent),
            ("simnet.shard.msgs_delivered", g.messages_delivered),
            ("simnet.shard.msgs_lost", g.messages_lost),
            ("simnet.shard.connect_attempts", g.connect_attempts),
            ("simnet.shard.sessions_established", sessions),
            ("simnet.faults.crashes", fault.crashes),
            ("simnet.faults.restarts", fault.restarts),
        ])
        .collect(),
    }
}
