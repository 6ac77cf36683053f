//! The per-layer metric catalogue: every name the traced run reports.
//!
//! Layers are the repo's modules. `BENCHMARK.json` lists exactly these names
//! (`tests/smoke.rs` holds the two together), and a traced run reports every
//! one of them on every workload: a layer the workload does not use reads 0,
//! which is itself the "bypass" prediction made checkable.

use simnet::prelude::Phase;

use crate::trace::Entry;

/// One per-layer metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerMetric {
    /// Metric name, `<crate>.<module>.<what>`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// The sequential engine's event-loop phases.
pub const WORLD_PHASES: [Phase; 9] = [
    Phase::AgentStart,
    Phase::Timers,
    Phase::Discovery,
    Phase::GridRefresh,
    Phase::Connect,
    Phase::Delivery,
    Phase::LinkCheck,
    Phase::Disconnect,
    Phase::Faults,
];

/// The sharded engine's per-event phases that carry load in the probe city.
pub const SHARD_EVENT_PHASES: [Phase; 5] = [
    Phase::Timers,
    Phase::Discovery,
    Phase::Connect,
    Phase::Delivery,
    Phase::LinkCheck,
];

/// The sharded engine's coordinator spans.
pub const SHARD_COORDINATOR_PHASES: [Phase; 4] = [
    Phase::Snapshot,
    Phase::GridRefresh,
    Phase::ShardWindows,
    Phase::BarrierMerge,
];

/// Entries whose allocations are reported: the three that build or integrate
/// neighbourhood state.
pub const ALLOC_ENTRIES: [Entry; 3] = [Entry::Message, Entry::Timer, Entry::InquiryComplete];

/// Every per-layer metric, in ledger order.
pub fn catalog() -> Vec<LayerMetric> {
    let mut out = Vec::new();
    let mut add = |name: String, unit: &'static str, better: &'static str| out.push(LayerMetric { name, unit, better });
    let lower = "lower";
    let higher = "higher";

    for phase in WORLD_PHASES {
        add(format!("simnet.world.{}.calls", phase.name()), "count", lower);
        add(format!("simnet.world.{}.busy_ns", phase.name()), "ns", lower);
    }
    for (what, unit) in [
        ("events", "count"),
        ("self_ns", "ns"),
        ("unattributed_ns", "ns"),
        ("slice_ms_p50", "ms"),
        ("slice_ms_p95", "ms"),
        ("slice_ms_max", "ms"),
        ("msgs_sent", "count"),
        ("bytes_sent", "B"),
        ("msgs_lost", "count"),
        ("connect_attempts", "count"),
        ("connect_failures", "count"),
        ("links_broken", "count"),
        ("inquiries", "count"),
        ("inquiry_hits", "count"),
        ("links_open_end", "count"),
        ("links_retired_end", "count"),
    ] {
        add(format!("simnet.world.{what}"), unit, lower);
    }

    for phase in SHARD_EVENT_PHASES {
        add(format!("simnet.shard.{}.calls", phase.name()), "count", lower);
        add(format!("simnet.shard.{}.busy_ns", phase.name()), "ns", lower);
    }
    for phase in SHARD_COORDINATOR_PHASES {
        add(format!("simnet.shard.{}.busy_ns", phase.name()), "ns", lower);
    }
    for (what, unit) in [
        ("serial_ns", "ns"),
        ("unattributed_ns", "ns"),
        ("events", "count"),
        ("windows", "count"),
        ("recuts", "count"),
        ("imbalance_last", "ratio"),
        ("msgs_sent", "count"),
        ("connect_attempts", "count"),
    ] {
        add(format!("simnet.shard.{what}"), unit, lower);
    }

    for name in [
        "simnet.faults.crashes",
        "simnet.faults.restarts",
        "simnet.adversary.frames_injected",
        "simnet.adversary.cut_links_broken",
    ] {
        add(name.to_string(), "count", lower);
    }

    for entry in Entry::ALL {
        add(format!("peerhood.node.{}.calls", entry.name()), "count", lower);
        add(format!("peerhood.node.{}.busy_ns", entry.name()), "ns", lower);
    }
    for entry in ALLOC_ENTRIES {
        add(format!("peerhood.node.{}.allocs", entry.name()), "count", lower);
        add(format!("peerhood.node.{}.alloc_bytes", entry.name()), "B", lower);
    }

    for (what, unit) in [
        ("frames", "count"),
        ("bytes", "B"),
        ("records", "count"),
        ("decode_ns", "ns"),
        ("encode_ns", "ns"),
        ("decode_allocs", "count"),
    ] {
        add(format!("peerhood.wire.{what}"), unit, lower);
    }
    add("peerhood.security.verify_ns".into(), "ns", lower);
    add("peerhood.security.sign_ns".into(), "ns", lower);
    add("peerhood.storage.integrate_ns".into(), "ns", lower);
    add("peerhood.storage.reports".into(), "count", lower);

    for what in [
        "frames_authenticated",
        "auth_rejected",
        "replay_rejected",
        "sanity_rejected",
    ] {
        add(format!("peerhood.security.{what}"), "count", lower);
    }
    for what in ["breaker_trips", "breaker_blocked", "shed"] {
        add(format!("peerhood.resilience.{what}"), "count", lower);
    }
    add("peerhood.resilience.admitted".into(), "count", higher);
    add("peerhood.resilience.inquiry_cache_hit_pct".into(), "%", higher);
    add("peerhood.storage.known_devices_mean".into(), "count", lower);
    add("peerhood.storage.direct_neighbors_mean".into(), "count", lower);
    add("peerhood.handover.completions".into(), "count", higher);
    add("peerhood.handover.route_changes".into(), "count", higher);
    add("peerhood.handover.broken_by_range".into(), "count", lower);
    add("peerhood.handover.broken_by_crash".into(), "count", lower);
    for what in ["sessions_established", "pings_sent", "payloads_received", "reconnects"] {
        add(format!("peerhood.app.{what}"), "count", higher);
    }

    add("bench.trace_overhead_pct".into(), "%", lower);
    add("bench.setup.add_node_ns".into(), "ns", lower);
    add("bench.replay_frames".into(), "count", lower);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_within_the_contract() {
        let all = catalog();
        assert_eq!(all.len(), 114);
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "every name is used once");
        for m in &all {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
        }
    }
}
