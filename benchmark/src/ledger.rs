//! Sampling a workload and writing the ledger: `measure` and `run`.
//!
//! The system is a batch simulator. There is no arrival process, so the
//! throughput metric is work completed per host second at a stated input
//! size, the "load generator" is the scenario itself, and a sample is one
//! whole repetition in a fresh process.

use std::path::Path;
use std::time::Instant;

use crate::child::{spawn_rep, spawn_setup};
use crate::json::{obj, Value};
use crate::layers::catalog;
use crate::outcome::Metrics;
use crate::rep::Rep;
use crate::stats::{summarize, Summary};
use crate::workloads::{self, shard_threads, Size, Spec};

/// One end-to-end metric as `BENCHMARK.json` declares it.
pub struct E2eMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse before
    /// the change counts as a regression.
    pub bound: f64,
    /// The metric's samples among everything sampled for a workload.
    samples: fn(&Samples) -> Vec<f64>,
}

/// The end-to-end metrics, in ledger order.
///
/// The bounds are what the acceptance rule for a benchmark allows on the
/// 2-core box this was written on, not what one would wish. Ten runs on ten
/// *different* seeds must spread (IQR / median) by less than the bound, and
/// should by less than a third of it. Across seeds the cities themselves
/// differ (`sim_attached_pct` spreads 5 % on `city_mobile`, `sim_reconnect_s`
/// 4-6 %, `peak_rss_mb` up to 4 %), and the host drifts by +-10 % over minutes,
/// which no statistic inside a 15 s run averages away (throughput spread
/// 3-13 % over ten idle runs). On one seed the simulated figures repeat
/// exactly, and `compare` demands an identical `sim_digest`.
pub const E2E: [E2eMetric; 5] = [
    E2eMetric {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        samples: |s| s.setups.clone(),
    },
    E2eMetric {
        name: "node_sim_s_per_s",
        unit: "node-sim-s/s",
        better: "higher",
        bound: 0.25,
        samples: |s| s.per_rep(|r| s.spec.node_sim_secs() as f64 / r.run_s),
    },
    E2eMetric {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
        samples: |s| s.per_rep(|r| r.peak_rss_mb),
    },
    E2eMetric {
        name: "sim_attached_pct",
        unit: "%",
        better: "higher",
        bound: 0.20,
        samples: |s| s.per_rep(|r| r.outcome.attached_pct),
    },
    E2eMetric {
        name: "sim_reconnect_s",
        unit: "sim-s",
        better: "lower",
        bound: 0.20,
        samples: |s| s.per_rep(|r| r.outcome.reconnect_s),
    },
];

/// Everything sampled for one workload.
pub struct Samples {
    /// The workload.
    pub spec: Spec,
    /// Set-up samples, one per `setup` child, seconds.
    pub setups: Vec<f64>,
    /// The untraced repetitions.
    pub reps: Vec<Rep>,
    /// The traced repetition, if one ran.
    pub traced: Option<Rep>,
}

impl Samples {
    /// Nothing sampled yet.
    pub fn new(spec: &Spec) -> Self {
        Samples {
            spec: spec.clone(),
            setups: Vec::new(),
            reps: Vec::new(),
            traced: None,
        }
    }

    /// One more untraced repetition, with a set-up sample taken before it.
    fn sample_rep(&mut self, seed: u64) -> Result<(), String> {
        self.setups.push(spawn_setup(&self.spec, seed)?);
        let rep = spawn_rep(&self.spec, seed, false, None)?;
        eprintln!(
            "{} rep {}: run {:.3} s, cold set-up {:.4} s, peak {:.1} MB",
            self.spec.name,
            self.reps.len() + 1,
            rep.run_s,
            rep.setup_s,
            rep.peak_rss_mb
        );
        self.reps.push(rep);
        Ok(())
    }

    /// The traced repetition; its trace file goes to `trace_dir`.
    fn sample_traced(&mut self, seed: u64, trace_dir: &Path) -> Result<(), String> {
        let path = trace_dir.join(format!("trace_{}.json", self.spec.name));
        let rep = spawn_rep(&self.spec, seed, true, Some(&path))?;
        eprintln!(
            "{} traced: run {:.3} s, trace in {}",
            self.spec.name,
            rep.run_s,
            path.display()
        );
        self.traced = Some(rep);
        Ok(())
    }

    /// One figure from every untraced repetition.
    fn per_rep(&self, f: impl Fn(&Rep) -> f64) -> Vec<f64> {
        self.reps.iter().map(f).collect()
    }

    /// Median, quartiles, minimum and count of one end-to-end metric.
    pub fn summary(&self, metric: &E2eMetric) -> Summary {
        summarize(&(metric.samples)(self)).expect("every workload is sampled at least once")
    }

    /// What tracing cost: traced run-loop wall over the untraced median, minus one.
    fn trace_overhead_pct(&self) -> f64 {
        let untraced: Vec<f64> = self.reps.iter().map(|r| r.run_s).collect();
        match (&self.traced, summarize(&untraced)) {
            (Some(traced), Some(s)) => 100.0 * (traced.run_s / s.median - 1.0),
            _ => 0.0,
        }
    }

    /// Every catalogued per-layer metric from the traced repetition; a layer
    /// the workload does not use reads 0.
    pub fn layers(&self) -> Metrics {
        let traced = self.traced.as_ref().map(|r| &r.outcome.counts);
        catalog()
            .into_iter()
            .map(|m| {
                let value = match m.name.as_str() {
                    "bench.trace_overhead_pct" => self.trace_overhead_pct(),
                    "bench.setup.add_node_ns" => self.traced.as_ref().map_or(0.0, |r| r.add_node_ns),
                    name => traced.and_then(|c| c.get(name)).copied().unwrap_or(0.0),
                };
                (m.name, value)
            })
            .collect()
    }

    /// Every failed check: each repetition's own, plus the ones only the
    /// parent can make across repetitions.
    pub fn failures(&self) -> Vec<String> {
        let name = self.spec.name;
        let all = || self.reps.iter().chain(&self.traced);
        let mut failed: Vec<String> = all().flat_map(|r| r.failures.iter().cloned()).collect();
        failed.sort();
        failed.dedup();
        if let Some(first) = self.reps.first() {
            // One seed, one result: traced or not, first repetition or last.
            if !all().all(|r| first.outcome.agrees_with(&r.outcome)) {
                failed.push(format!(
                    "{name}: repetitions of one seed disagree on the simulated results"
                ));
            }
        }
        failed
    }
}

/// The driver's contract: measure one workload for `seconds` and return the
/// result object (`correct`, `attempted`, `failed`, `metrics`).
///
/// Untraced (`traced == false`) it runs whole repetitions, a set-up sample
/// before each, until `seconds` of measuring have passed, and reports
/// each end-to-end metric's median. Traced, it runs one untraced and one
/// traced repetition and reports every per-layer metric.
pub fn measure(spec: &Spec, seed: u64, seconds: f64, traced: bool, trace_dir: &Path) -> Result<Value, String> {
    let mut samples = Samples::new(spec);
    if traced {
        samples.sample_rep(seed)?;
        samples.sample_traced(seed, trace_dir)?;
    } else {
        let measuring = Instant::now();
        while samples.reps.is_empty() || measuring.elapsed().as_secs_f64() < seconds {
            samples.sample_rep(seed)?;
        }
    }
    let failures = samples.failures();
    for line in &failures {
        eprintln!("FAILED {line}");
    }
    let metric = |name: &str, value: f64, unit: &str| {
        (
            name.to_string(),
            obj([("value", Value::from(value)), ("unit", Value::from(unit))]),
        )
    };
    let metrics = if traced {
        let values = samples.layers();
        obj(catalog().iter().map(|m| metric(&m.name, values[&m.name], m.unit)))
    } else {
        obj(E2E.iter().map(|m| metric(m.name, samples.summary(m).median, m.unit)))
    };
    // The unit of work is one node advanced by one simulated second; a
    // repetition whose output checks fail did none of its work correctly.
    let attempted = samples.reps.len() as u64 * spec.node_sim_secs();
    Ok(obj([
        ("correct", Value::from(failures.is_empty())),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(if failures.is_empty() { 0 } else { attempted })),
        ("metrics", metrics),
    ]))
}

/// How long one driver run measures: two repetitions of every workload on the
/// 2-core authoring box, and never more than this plus one repetition anywhere.
const RUN_SECONDS: u64 = 15;

/// `BENCHMARK.json` as this code defines it: the command, the workloads with
/// their reasons, and every metric with unit, direction and bound. The
/// committed file is this function's output; `tests/smoke.rs` holds them equal.
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "measure",
    ];
    obj([
        ("command", Value::Arr(command.map(Value::from).to_vec())),
        ("paths", Value::Arr(vec![Value::from("benchmark")])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                workloads::all(Size::Full)
                    .iter()
                    .map(|s| obj([("name", Value::from(s.name)), ("why", Value::from(s.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                E2E.iter()
                    .map(|m| {
                        obj([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better)),
                            ("bound", Value::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                catalog()
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Value::from(m.name.as_str())),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The machine a ledger was measured on.
fn fingerprint() -> Value {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    obj([
        (
            "nproc",
            Value::from(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("shard_threads", Value::from(shard_threads() as u64)),
        ("rustc", Value::from(rustc)),
        (
            "profile",
            Value::from(if cfg!(debug_assertions) { "debug" } else { "release" }),
        ),
        ("kernel", Value::from(kernel)),
    ])
}

fn workload_json(samples: &Samples) -> Value {
    let spec = &samples.spec;
    let first = &samples.reps[0].outcome;
    let e2e = E2E.iter().map(|m| {
        let s = samples.summary(m);
        (
            m.name,
            obj([
                ("value", Value::from(s.median)),
                ("q1", Value::from(s.q1)),
                ("q3", Value::from(s.q3)),
                ("min", Value::from(s.min)),
                ("n", Value::from(s.n as u64)),
                ("unit", Value::from(m.unit)),
                ("better", Value::from(m.better)),
                ("bound", Value::from(m.bound)),
            ]),
        )
    });
    obj([
        (
            "params",
            obj(spec.params().into_iter().map(|(k, v)| (k, Value::from(v)))),
        ),
        ("why", Value::from(spec.why)),
        ("e2e", obj(e2e)),
        ("sim_digest", Value::from(format!("{:016x}", first.digest))),
        ("ops_attempted", Value::from(first.ops_attempted)),
        ("ops_failed", Value::from(first.ops_failed)),
        (
            "layers",
            obj(samples.layers().into_iter().map(|(k, v)| (k, Value::from(v)))),
        ),
    ])
}

fn print_workload(samples: &Samples) {
    let spec = &samples.spec;
    let first = &samples.reps[0].outcome;
    println!("\n## {} — {}", spec.name, spec.why);
    println!(
        "sim_digest {:016x}  ops_attempted {}  ops_failed {} ({:.2} %)",
        first.digest,
        first.ops_attempted,
        first.ops_failed,
        100.0 * first.ops_failed as f64 / first.ops_attempted.max(1) as f64
    );
    println!(
        "{:<22} {:>14} {:>14} {:>14} {:>14} {:>3}  unit",
        "end-to-end", "median", "q1", "q3", "min", "n"
    );
    for m in &E2E {
        let s = samples.summary(m);
        println!(
            "{:<22} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>3}  {}",
            m.name, s.median, s.q1, s.q3, s.min, s.n, m.unit
        );
    }
    let values = samples.layers();
    println!("{:<48} {:>18}  unit", "per-layer (one traced run)", "value");
    for m in catalog() {
        println!("{:<48} {:>18.3}  {}", m.name, values[&m.name], m.unit);
    }
}

/// `run`: all four workloads, `reps` untraced repetitions and one traced one
/// each. Prints every metric by name with its unit, writes the ledger to
/// `json` if given, and returns the failed checks.
pub fn run(seed: u64, reps: usize, json: Option<&Path>, trace_dir: &Path) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    let mut workloads = Vec::new();
    println!("# benchmark run: seed {seed}, {reps} untraced repetitions + 1 traced per workload");
    println!("machine {}", fingerprint().to_line());
    for spec in workloads::all(Size::Full) {
        let mut samples = Samples::new(&spec);
        for _ in 0..reps.max(1) {
            samples.sample_rep(seed)?;
        }
        samples.sample_traced(seed, trace_dir)?;
        print_workload(&samples);
        failures.extend(samples.failures());
        workloads.push((spec.name, workload_json(&samples)));
    }
    if let Some(path) = json {
        let ledger = obj([
            ("schema", Value::from("benchmark-ledger-1")),
            ("machine", fingerprint()),
            ("seed", Value::from(seed)),
            ("reps", Value::from(reps as u64)),
            ("workloads", obj(workloads)),
        ]);
        std::fs::write(path, ledger.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("\nledger written to {}", path.display());
    }
    Ok(failures)
}
