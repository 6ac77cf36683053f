//! One repetition of one workload, in this process: set up, run, read out.
//!
//! The parent (`measure`, `run`) starts every repetition as a fresh child of
//! the same binary, so peak memory and allocator state belong to exactly one
//! run; `check` calls [`run`] directly. A traced repetition is the same run
//! with the profiler on, [`TracedHost`](crate::trace::TracedHost) wrappers in
//! and the allocator counting, followed by the frame-path replay.

use std::rc::Rc;
use std::time::Instant;

use simnet::prelude::*;

use crate::json::{obj, Value};
use crate::layers::{ALLOC_ENTRIES, SHARD_COORDINATOR_PHASES, SHARD_EVENT_PHASES, WORLD_PHASES};
use crate::outcome::{self, Outcome};
use crate::replay::{self, Replay};
use crate::stats::percentile;
use crate::trace::{Entry, Trace};
use crate::workloads::{build_city, build_probe_city, Kind, Spec};
use crate::{alloc, checks};

/// What one repetition measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Workload entry to the first `run_for`, seconds.
    pub setup_s: f64,
    /// Wall seconds of the run loop, cold start included.
    pub run_s: f64,
    /// The process's `VmHWM` in MB; filled in by the child as it exits.
    pub peak_rss_mb: f64,
    /// Wall nanoseconds per `add_node` call during set-up.
    pub add_node_ns: f64,
    /// The simulated results. When traced, its `counts` also hold every
    /// span-derived per-layer figure.
    pub outcome: Outcome,
    /// Output checks that failed, one line each.
    pub failures: Vec<String>,
    /// The trace file's content (traced repetitions only; not in the JSON form).
    pub trace: Option<Value>,
}

impl Rep {
    /// The one-line form a child prints for its parent.
    pub fn to_json(&self) -> Value {
        let o = &self.outcome;
        obj([
            ("setup_s", Value::from(self.setup_s)),
            ("run_s", Value::from(self.run_s)),
            ("peak_rss_mb", Value::from(self.peak_rss_mb)),
            ("add_node_ns", Value::from(self.add_node_ns)),
            ("sim_digest", Value::from(format!("{:016x}", o.digest))),
            ("attached_pct", Value::from(o.attached_pct)),
            ("reconnect_s", Value::from(o.reconnect_s)),
            ("ops_attempted", Value::from(o.ops_attempted)),
            ("ops_failed", Value::from(o.ops_failed)),
            ("poisoned_routes", Value::from(o.poisoned_routes)),
            (
                "failures",
                Value::Arr(self.failures.iter().map(|f| Value::from(f.as_str())).collect()),
            ),
            (
                "counts",
                obj(o.counts.iter().map(|(k, v)| (k.as_str(), Value::from(*v)))),
            ),
        ])
    }

    /// Reads back what [`Rep::to_json`] wrote.
    pub fn from_json(v: &Value) -> Result<Rep, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("child result lacks `{key}`"))
        };
        let digest = v
            .get("sim_digest")
            .and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("child result lacks `sim_digest`")?;
        let counts = v.get("counts").ok_or("child result lacks `counts`")?;
        Ok(Rep {
            setup_s: num("setup_s")?,
            run_s: num("run_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            add_node_ns: num("add_node_ns")?,
            outcome: Outcome {
                digest,
                attached_pct: num("attached_pct")?,
                reconnect_s: num("reconnect_s")?,
                ops_attempted: num("ops_attempted")? as u64,
                ops_failed: num("ops_failed")? as u64,
                poisoned_routes: num("poisoned_routes")? as u64,
                counts: counts
                    .members()
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect(),
            },
            failures: v
                .get("failures")
                .map(|f| {
                    f.elements()
                        .iter()
                        .filter_map(Value::as_str)
                        .map(String::from)
                        .collect()
                })
                .unwrap_or_default(),
            trace: None,
        })
    }
}

/// The event-loop phases whose spans are whole events (the sequential
/// engine's grid refresh is a sub-span inside discovery; the sharded
/// engine's is coordinator work).
fn event_phases() -> impl Iterator<Item = Phase> {
    WORLD_PHASES.into_iter().filter(|p| *p != Phase::GridRefresh)
}

/// `<engine>.<phase>.{calls,busy_ns}` for each of `phases`.
fn phase_layers<'a>(
    engine: &'a str,
    profiler: &'a Profiler,
    phases: &'a [Phase],
) -> impl Iterator<Item = (String, f64)> + 'a {
    phases.iter().flat_map(move |&phase| {
        [
            (format!("{engine}.{}.calls", phase.name()), profiler.calls(phase) as f64),
            (
                format!("{engine}.{}.busy_ns", phase.name()),
                profiler.nanos(phase) as f64,
            ),
        ]
    })
}

fn phase_rows(profiler: &Profiler, child_ns: impl Fn(Phase) -> u64) -> Value {
    Value::Arr(
        Phase::ALL
            .into_iter()
            .filter(|&p| profiler.calls(p) > 0)
            .map(|p| {
                obj([
                    ("phase", Value::from(p.name())),
                    ("calls", Value::from(profiler.calls(p))),
                    ("busy_ns", Value::from(profiler.nanos(p))),
                    ("child_ns", Value::from(child_ns(p))),
                    ("self_ns", Value::from(profiler.nanos(p).saturating_sub(child_ns(p)))),
                ])
            })
            .collect(),
    )
}

/// Running totals at the end of one simulated second of a traced sequential run.
struct Slice {
    wall_ms: f64,
    events: u64,
    on_message_ns: u64,
    frames: u64,
    bytes: u64,
}

/// The span-derived per-layer metrics of a traced sequential run.
fn city_layers(profiler: &Profiler, trace: &Trace, run_s: f64, slices: &[Slice]) -> Vec<(String, f64)> {
    let busy_ns: u64 = event_phases().map(|p| profiler.nanos(p)).sum();
    let child_ns: u64 = Phase::ALL.into_iter().map(|p| trace.children_ns(p)).sum();
    let events: u64 = event_phases().map(|p| profiler.calls(p)).sum();
    let walls: Vec<f64> = slices.iter().map(|s| s.wall_ms).collect();
    let mut layers: Vec<(String, f64)> = phase_layers("simnet.world", profiler, &WORLD_PHASES).collect();
    for (what, value) in [
        ("events", events as f64),
        ("self_ns", busy_ns.saturating_sub(child_ns) as f64),
        ("unattributed_ns", (run_s * 1e9 - busy_ns as f64).max(0.0)),
        ("slice_ms_p50", percentile(&walls, 0.5)),
        ("slice_ms_p95", percentile(&walls, 0.95)),
        ("slice_ms_max", percentile(&walls, 1.0)),
    ] {
        layers.push((format!("simnet.world.{what}"), value));
    }
    for entry in Entry::ALL {
        let span = trace.entry_total(entry);
        let name = entry.name();
        layers.push((format!("peerhood.node.{name}.calls"), span.calls as f64));
        layers.push((format!("peerhood.node.{name}.busy_ns"), span.busy_ns as f64));
        if ALLOC_ENTRIES.contains(&entry) {
            layers.push((format!("peerhood.node.{name}.allocs"), span.allocs as f64));
            layers.push((format!("peerhood.node.{name}.alloc_bytes"), span.alloc_bytes as f64));
        }
    }
    layers
}

/// The replay's per-layer metrics.
fn replay_layers(r: &Replay) -> [(&'static str, f64); 11] {
    [
        ("peerhood.wire.frames", r.frames as f64),
        ("peerhood.wire.bytes", r.bytes as f64),
        ("peerhood.wire.records", r.records as f64),
        ("peerhood.wire.decode_ns", r.decode_ns),
        ("peerhood.wire.encode_ns", r.encode_ns),
        ("peerhood.wire.decode_allocs", r.decode_allocs as f64),
        ("peerhood.security.verify_ns", r.verify_ns),
        ("peerhood.security.sign_ns", r.sign_ns),
        ("peerhood.storage.integrate_ns", r.integrate_ns),
        ("peerhood.storage.reports", r.reports as f64),
        ("bench.replay_frames", r.frames as f64),
    ]
}

/// The trace file of a sequential run: the span table, the phases with their
/// self time, and one row per simulated second.
fn city_trace_doc(spec: &Spec, seed: u64, profiler: &Profiler, trace: &Trace, slices: &[Slice]) -> Value {
    let mut spans = Vec::new();
    for parent in Phase::ALL {
        for entry in Entry::ALL {
            let span = trace.span(parent, entry);
            if span.calls > 0 {
                spans.push(obj([
                    ("parent", Value::from(parent.name())),
                    ("entry", Value::from(entry.name())),
                    ("calls", Value::from(span.calls)),
                    ("busy_ns", Value::from(span.busy_ns)),
                    ("allocs", Value::from(span.allocs)),
                    ("alloc_bytes", Value::from(span.alloc_bytes)),
                ]));
            }
        }
    }
    // A slice holds running totals; a row holds what its second added.
    let mut previous = (0u64, 0u64, 0u64, 0u64);
    let rows = slices
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let row = [
                Value::from(i as u64 + 1),
                Value::from(s.wall_ms),
                Value::from(s.events - previous.0),
                Value::from(s.on_message_ns - previous.1),
                Value::from(s.frames - previous.2),
                Value::from(s.bytes - previous.3),
            ];
            previous = (s.events, s.on_message_ns, s.frames, s.bytes);
            Value::Arr(row.to_vec())
        })
        .collect();
    let columns = ["sim_t", "wall_ms", "events", "on_message_ns", "frames", "bytes"];
    obj([
        ("workload", Value::from(spec.name)),
        ("seed", Value::from(seed)),
        ("spans", Value::Arr(spans)),
        ("phases", phase_rows(profiler, |p| trace.children_ns(p))),
        ("slice_columns", Value::Arr(columns.map(Value::from).to_vec())),
        ("slices", Value::Arr(rows)),
    ])
}

fn run_city(spec: &Spec, seed: u64, traced: bool) -> Rep {
    let entered = Instant::now();
    let trace = traced.then(|| Rc::new(Trace::default()));
    let mut city = build_city(spec, seed, trace.as_ref());
    if traced {
        city.world.enable_profiling();
    }
    let setup_s = entered.elapsed().as_secs_f64();

    let mut slices: Vec<Slice> = Vec::new();
    alloc::set_counting(traced);
    let run_started = Instant::now();
    for _ in 0..spec.sim_secs {
        let slice_started = Instant::now();
        city.world.run_for(SimDuration::from_secs(1));
        if let Some(trace) = &trace {
            let on_message = trace.entry_total(Entry::Message);
            slices.push(Slice {
                wall_ms: slice_started.elapsed().as_secs_f64() * 1e3,
                events: event_phases().map(|p| city.world.profiler().calls(p)).sum(),
                on_message_ns: on_message.busy_ns,
                frames: on_message.calls,
                bytes: trace.frame_bytes(),
            });
        }
    }
    let run_s = run_started.elapsed().as_secs_f64();
    alloc::set_counting(false);

    let mut outcome = outcome::of_city(spec, &mut city);
    let mut failures = checks::outcome(spec, &outcome);
    let add_node_ns = city.add_node_ns as f64 / spec.nodes as f64;

    let mut trace_doc = None;
    if let Some(trace) = trace {
        let profiler = city.world.profiler();
        outcome.counts.extend(city_layers(profiler, &trace, run_s, &slices));
        let mut doc = city_trace_doc(spec, seed, profiler, &trace, &slices);
        // The world goes before the replay, which measures the layers alone.
        let frames = trace.take_frames();
        let config = Rc::clone(&city.config);
        drop(city);
        let replayed = replay::run(&frames, spec.nodes, &config);
        failures.extend(checks::replay(spec, &outcome, &replayed));
        outcome
            .counts
            .extend(replay_layers(&replayed).map(|(name, value)| (name.to_string(), value)));
        doc.push(
            "replay",
            obj([
                ("bad_mac", Value::from(replayed.bad_mac)),
                ("replayed", Value::from(replayed.replayed)),
                ("undecodable", Value::from(replayed.undecodable)),
            ]),
        );
        trace_doc = Some(doc);
    }
    Rep {
        setup_s,
        run_s,
        peak_rss_mb: 0.0,
        add_node_ns,
        outcome,
        failures,
        trace: trace_doc,
    }
}

fn run_probe_city(spec: &Spec, seed: u64, traced: bool, shards: usize) -> Rep {
    let entered = Instant::now();
    let mut city = build_probe_city(spec, seed, shards);
    if traced {
        city.world.enable_profiling();
        // Shard loads are folded only for a recorder that asks for them; one
        // that never comes due again keeps the sampling itself out of the run.
        let never = SimDuration::from_secs(spec.sim_secs * 1_000);
        city.world
            .enable_telemetry(TelemetryConfig::every(never).with_shard_series());
    }
    let setup_s = entered.elapsed().as_secs_f64();

    // One call: every `run_until` re-assembles O(nodes) aggregates, so slicing
    // the run would measure the slicing.
    let run_started = Instant::now();
    city.world.run_for(SimDuration::from_secs(spec.sim_secs));
    let run_s = run_started.elapsed().as_secs_f64();

    let mut outcome = outcome::of_probe_city(spec, &mut city.world);
    let failures = checks::outcome(spec, &outcome);
    let add_node_ns = city.add_node_ns as f64 / spec.nodes as f64;

    let mut trace_doc = None;
    if traced {
        let profile = city.world.profile();
        outcome
            .counts
            .extend(phase_layers("simnet.shard", &profile, &SHARD_EVENT_PHASES));
        for phase in SHARD_COORDINATOR_PHASES {
            let name = format!("simnet.shard.{}.busy_ns", phase.name());
            outcome.counts.insert(name, profile.nanos(phase) as f64);
        }
        let serial_ns =
            profile.nanos(Phase::Snapshot) + profile.nanos(Phase::GridRefresh) + profile.nanos(Phase::BarrierMerge);
        let event_ns: u64 = event_phases().map(|p| profile.nanos(p)).sum();
        let events: u64 = event_phases().map(|p| profile.calls(p)).sum();
        // Core time inside the window scope that no per-event span covers:
        // window scheduler, queue shell, and waiting for the slower shard.
        let scope_ns = profile.nanos(Phase::ShardWindows) * city.world.shard_count() as u64;
        let pstats = city.world.partition_stats();
        for (name, value) in [
            ("simnet.shard.serial_ns", serial_ns as f64),
            ("simnet.shard.unattributed_ns", scope_ns.saturating_sub(event_ns) as f64),
            ("simnet.shard.events", events as f64),
            ("simnet.shard.windows", profile.calls(Phase::ShardWindows) as f64),
            ("simnet.shard.recuts", pstats.rebalances as f64),
            ("simnet.shard.imbalance_last", pstats.last_imbalance),
        ] {
            outcome.counts.insert(name.into(), value);
        }
        trace_doc = Some(obj([
            ("workload", Value::from(spec.name)),
            ("seed", Value::from(seed)),
            ("shards", Value::from(city.world.shard_count() as u64)),
            ("phases", phase_rows(&profile, |_| 0)),
        ]));
    }
    Rep {
        setup_s,
        run_s,
        peak_rss_mb: 0.0,
        add_node_ns,
        outcome,
        failures,
        trace: trace_doc,
    }
}

/// Runs one repetition of `spec` in this process.
pub fn run(spec: &Spec, seed: u64, traced: bool, shards: usize) -> Rep {
    match spec.kind {
        Kind::FullStack => run_city(spec, seed, traced),
        Kind::Sharded => run_probe_city(spec, seed, traced, shards),
    }
}

/// Worlds one `setup` child builds.
const SETUP_BUILDS: usize = 15;

/// One set-up sample: the fastest of [`SETUP_BUILDS`] consecutive builds of
/// the workload's world, seconds. A build takes milliseconds, so a single one
/// measures the page faults of a fresh heap and whatever else the host was
/// doing; interference only ever adds time, so the fastest build is the work
/// itself, and work moved into set-up moves it just the same. Tearing a world
/// down is not setting one up: the clock is read before each drop. (The cold
/// cost a user pays once is each repetition's own `setup_s`.)
pub fn setup_sample(spec: &Spec, seed: u64, shards: usize) -> f64 {
    (0..SETUP_BUILDS)
        .map(|_| {
            let entered = Instant::now();
            let world: Box<dyn std::any::Any> = match spec.kind {
                Kind::FullStack => Box::new(build_city(spec, seed, None)),
                Kind::Sharded => Box::new(build_probe_city(spec, seed, shards)),
            };
            let setup_s = entered.elapsed().as_secs_f64();
            drop(world);
            setup_s
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parent reads exactly what the child measured: the result line
    /// carries every figure with all its digits.
    #[test]
    fn result_line_roundtrips() {
        let rep = Rep {
            setup_s: 0.012_345_678_9,
            run_s: 8.901_858_509,
            peak_rss_mb: 485.136_718_75,
            add_node_ns: 4669.467,
            outcome: Outcome {
                digest: 0x9b61_3f16_8f46_1c76,
                attached_pct: 87.175,
                reconnect_s: 13.873_679_011_535_316,
                ops_attempted: 504_535,
                ops_failed: 13_661,
                poisoned_routes: 0,
                counts: [("peerhood.app.reconnects".to_string(), 3635.0)].into(),
            },
            failures: vec!["city: something \"quoted\" failed".to_string()],
            trace: None,
        };
        let line = rep.to_json().to_line();
        assert!(!line.contains('\n'));
        assert_eq!(Rep::from_json(&crate::json::parse(&line).unwrap()).unwrap(), rep);
        assert!(Rep::from_json(&obj([("setup_s", Value::from(1.0))])).is_err());
    }
}
