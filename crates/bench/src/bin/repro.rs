//! Regenerates every figure-level result of the thesis' evaluation, runs
//! single experiments, and drives multi-seed sweep campaigns.
//!
//! ```text
//! cargo run -p bench --release --bin repro                          # full E1-E19 suite
//! cargo run -p bench --release --bin repro -- --quick --seed 42     # reduced sizes, explicit seed
//! cargo run -p bench --release --bin repro -- --list                # experiments & parameters
//! cargo run -p bench --release --bin repro -- churn --quick         # one experiment (slug or id)
//! cargo run -p bench --release --bin repro -- e8 --seed 7
//! cargo run -p bench --release --bin repro -- metropolis --quick --telemetry --profile
//! cargo run -p bench --release --bin repro -- hotspot --quick --shards 4 --adaptive-shards
//! cargo run -p bench --release --bin repro -- watch overload --quick
//! cargo run -p bench --release --bin repro -- sweep churn --seeds 8 --threads 8 --quick
//! cargo run -p bench --release --bin repro -- sweep churn --quick \
//!     --grid churn=0,60,240 --grid nodes=100 --seeds 4 --json BENCH_sweep.json
//! ```
//!
//! Every subcommand accepts `--seed N` and `--quick` uniformly. Suite and
//! single-experiment output is one markdown table per experiment;
//! `sweep` prints an aggregated statistics table (mean/stddev/min/max/95%
//! CI across seeds, grouped by grid point) and writes the same aggregation
//! as JSON — byte-identical for any `--threads` value.
//!
//! The telemetry plane (`--telemetry`, `--profile`, `watch`) writes to
//! **stderr** and side files only: the stdout report stays byte-identical
//! with the plane on or off (pinned by `integration_telemetry`).

use std::io::{self, ErrorKind, StdoutLock, Write};
use std::process::ExitCode;

use scenarios::experiments::{find, registry, Params};
use scenarios::telemetry::{TelemetryMode, TelemetrySettings};
use scenarios::{run_all, Effort};
use simnet::SimDuration;
use sweep::{aggregate, run_sweep, SweepSpec};

/// Default suite seed (kept from the original evaluation scripts).
const DEFAULT_SUITE_SEED: u64 = 20080815;
/// Default JSON artifact path of `sweep` (CI uploads it).
const DEFAULT_SWEEP_JSON: &str = "BENCH_sweep.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("run `repro --list` for the available experiments and flags");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let quick = args.iter().any(|a| a == "--quick");
    let effort = if quick { Effort::Quick } else { Effort::Full };
    let seed = flag_value(args, "--seed")?
        .map(|s| s.parse::<u64>().map_err(|_| format!("--seed: `{s}` is not a u64")))
        .transpose()?;

    if args.iter().any(|a| a == "--list") {
        return print_out(list);
    }
    match first_positional(args) {
        Some("sweep") => {
            reject_unknown_flags(args, &["--quick", "--seed", "--seeds", "--threads", "--grid", "--json"])?;
            run_sweep_command(args, seed, quick)
        }
        Some("watch") => {
            // Live mode: one experiment with frame streaming forced on.
            reject_unknown_flags(
                args,
                &[
                    "--quick",
                    "--seed",
                    "--shards",
                    "--adaptive-shards",
                    "--imbalance",
                    "--patience",
                    "--shard-series",
                    "--interval",
                    "--telemetry-jsonl",
                    "--profile",
                    "--defenses",
                ],
            )?;
            let watch_at = args.iter().position(|a| a == "watch").expect("dispatched on `watch`");
            let name = first_positional(&args[watch_at + 1..])
                .ok_or("watch needs an experiment, e.g. `repro watch overload`")?;
            run_one(name, args, seed, quick, effort, true)
        }
        Some(name) => {
            // Reject sweep-only (and mistyped) flags instead of silently
            // running something other than what was asked for.
            reject_unknown_flags(
                args,
                &[
                    "--quick",
                    "--seed",
                    "--shards",
                    "--adaptive-shards",
                    "--imbalance",
                    "--patience",
                    "--shard-series",
                    "--telemetry",
                    "--interval",
                    "--telemetry-jsonl",
                    "--profile",
                    "--defenses",
                ],
            )?;
            run_one(name, args, seed, quick, effort, false)
        }
        None => {
            // The full E1-E19 suite.
            reject_unknown_flags(args, &["--quick", "--seed"])?;
            let seed = seed.unwrap_or(DEFAULT_SUITE_SEED);
            eprintln!("running the E1-E19 experiment suite (seed {seed}, {effort:?}) ...");
            let reports = run_all(seed, effort);
            print_out(|out| {
                reports.iter().try_for_each(|report| {
                    writeln!(out, "{report}\n")?;
                    eprintln!("  finished {}", report.id);
                    Ok(())
                })
            })
        }
    }
}

/// Runs a single experiment (`repro <exp>` or `repro watch <exp>`): resolves
/// the slug, applies `--shards`, engages the telemetry plane per the flags
/// and prints the report to stdout and every telemetry artefact to stderr.
fn run_one(
    name: &str,
    args: &[String],
    seed: Option<u64>,
    quick: bool,
    effort: Effort,
    watch: bool,
) -> Result<(), String> {
    let shards = flag_value(args, "--shards")?
        .map(|s| {
            s.parse::<usize>()
                .map_err(|_| format!("--shards: `{s}` is not a count"))
        })
        .transpose()?;
    // `--shards` means the parallel engine: E15's sequential city has
    // no shard knob, so reroute the request to the sharded metropolis.
    let name = if shards.is_some() && find(name).map(|e| e.id() == "E15").unwrap_or(false) {
        eprintln!("note: --shards selects the sharded engine; running E17 (sharded-metropolis) instead of E15");
        "sharded-metropolis"
    } else {
        name
    };
    // A single experiment by slug or id, through the uniform trait.
    let experiment = find(name).ok_or_else(|| format!("unknown experiment `{name}`"))?;
    let mut params = Params::new();
    if let Some(shards) = shards {
        if !experiment.params().iter().any(|p| p.key == "shards") {
            return Err(format!("{} does not take --shards", experiment.id()));
        }
        params.set("shards", shards.to_string());
    }
    // The load-balancing knobs map onto grid parameters of the same name
    // (E18 carries them); like --shards they change wall-clock time only.
    if args.iter().any(|a| a == "--adaptive-shards") {
        if !experiment.params().iter().any(|p| p.key == "adaptive") {
            return Err(format!("{} does not take --adaptive-shards", experiment.id()));
        }
        params.set("adaptive", "on");
    }
    for (flag, key) in [
        ("--imbalance", "imbalance"),
        ("--patience", "patience"),
        ("--defenses", "defenses"),
    ] {
        if let Some(value) = flag_value(args, flag)? {
            let spec = experiment
                .params()
                .iter()
                .find(|p| p.key == key)
                .ok_or_else(|| format!("{} does not take {flag}", experiment.id()))?;
            spec.kind.check(&value).map_err(|e| format!("{flag}: {e}"))?;
            params.set(key, value);
        }
    }

    let jsonl_path = flag_value(args, "--telemetry-jsonl")?;
    let profile = args.iter().any(|a| a == "--profile");
    let record = args.iter().any(|a| a == "--telemetry") || jsonl_path.is_some();
    let interval = match flag_value(args, "--interval")? {
        Some(s) => {
            let secs: f64 = s
                .parse()
                .ok()
                .filter(|v: &f64| v.is_finite() && *v > 0.0)
                .ok_or_else(|| format!("--interval: `{s}` is not a positive number of seconds"))?;
            SimDuration::from_secs_f64(secs)
        }
        None => TelemetrySettings::default().sample_interval,
    };
    let mode = if watch {
        TelemetryMode::Watch
    } else if record {
        TelemetryMode::Record
    } else {
        TelemetryMode::Off
    };
    scenarios::telemetry::configure(TelemetrySettings {
        mode,
        sample_interval: interval,
        profile,
        // Per-shard series are layout-dependent, so they are a deliberate
        // opt-in: the default captures diff clean across --shards values.
        shard_series: args.iter().any(|a| a == "--shard-series"),
    });

    let seed = seed.unwrap_or_else(|| experiment.suite_seed(DEFAULT_SUITE_SEED));
    eprintln!(
        "running {} ({}) with seed {seed} ({effort:?}) ...",
        experiment.id(),
        experiment.slug()
    );
    let report = experiment.run(seed, &params, quick).report;
    print_out(|out| writeln!(out, "{report}"))?;

    let captures = scenarios::telemetry::take_captures();
    scenarios::telemetry::configure(TelemetrySettings::default());
    if (mode != TelemetryMode::Off || profile) && captures.is_empty() {
        eprintln!(
            "note: {} left no telemetry frames (every world-based runner E1-E19 is instrumented; \
             E2/E3 are closed-form)",
            experiment.id()
        );
    }
    let mut jsonl = String::new();
    for capture in &captures {
        if let Some(rollup) = &capture.rollup {
            eprintln!("--- telemetry {} (digest {:016x}) ---", capture.scope, capture.digest);
            eprint!("{rollup}");
            eprintln!();
        }
        if let Some(profile) = &capture.profile {
            eprintln!("--- profile {} ---", capture.scope);
            eprint!("{profile}");
            eprintln!();
        }
        jsonl.push_str(&capture.jsonl);
    }
    if let Some(path) = jsonl_path {
        std::fs::write(&path, jsonl).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("  wrote {path}");
    }
    Ok(())
}

/// Writes to stdout under one lock. A reader that went away
/// (`repro --list | head`) is a clean exit, not an error.
fn print_out(write: impl FnOnce(&mut StdoutLock<'static>) -> io::Result<()>) -> Result<(), String> {
    match write(&mut io::stdout().lock()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("writing stdout: {e}")),
        _ => Ok(()),
    }
}

/// Errors on any `--flag` outside `allowed` — sweep-only flags on other
/// subcommands and typos alike fail loudly instead of being dropped.
fn reject_unknown_flags(args: &[String], allowed: &[&str]) -> Result<(), String> {
    for arg in args {
        if arg.starts_with("--") && !allowed.contains(&arg.as_str()) {
            return Err(format!("unknown flag `{arg}` here (allowed: {})", allowed.join(", ")));
        }
    }
    Ok(())
}

/// First token that is neither a flag nor a flag value — the subcommand,
/// wherever it sits among the flags.
fn first_positional(args: &[String]) -> Option<&str> {
    const VALUE_FLAGS: [&str; 11] = [
        "--seed",
        "--seeds",
        "--threads",
        "--json",
        "--grid",
        "--shards",
        "--imbalance",
        "--patience",
        "--interval",
        "--telemetry-jsonl",
        "--defenses",
    ];
    let mut skip_value = false;
    for arg in args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if arg.starts_with("--") {
            skip_value = VALUE_FLAGS.contains(&arg.as_str());
            continue;
        }
        return Some(arg);
    }
    None
}

/// `repro sweep <experiment> [--seeds N] [--seed BASE] [--threads N]
/// [--grid k=v1,v2,...]... [--quick] [--json PATH]`
fn run_sweep_command(args: &[String], base_seed: Option<u64>, quick: bool) -> Result<(), String> {
    let sweep_at = args.iter().position(|a| a == "sweep").expect("dispatched on `sweep`");
    let experiment =
        first_positional(&args[sweep_at + 1..]).ok_or("sweep needs an experiment, e.g. `repro sweep churn`")?;
    let seeds: usize = match flag_value(args, "--seeds")? {
        Some(s) => s.parse().map_err(|_| format!("--seeds: `{s}` is not a count"))?,
        None => 8,
    };
    let threads: usize = match flag_value(args, "--threads")? {
        Some(s) => s.parse().map_err(|_| format!("--threads: `{s}` is not a count"))?,
        None => std::thread::available_parallelism().map(usize::from).unwrap_or(1),
    };
    let json_path = flag_value(args, "--json")?.unwrap_or_else(|| DEFAULT_SWEEP_JSON.to_string());

    let mut spec = SweepSpec::new(experiment)
        .seed_range(base_seed.unwrap_or(42), seeds.max(1))
        .quick(quick);
    for (i, arg) in args.iter().enumerate() {
        if arg == "--grid" {
            let kv = args.get(i + 1).ok_or("--grid needs a key=v1,v2,... argument")?;
            let (key, values) = kv
                .split_once('=')
                .ok_or_else(|| format!("--grid: `{kv}` is not key=v1,v2,..."))?;
            let values: Vec<String> = values.split(',').map(str::to_string).collect();
            spec = spec.axis(key, values).map_err(|e| e.to_string())?;
        }
    }
    spec.validate().map_err(|e| e.to_string())?;

    eprintln!(
        "sweeping {} over {} seed(s) x {} grid point(s) on {} thread(s) ({}) ...",
        spec.experiment,
        spec.seeds.len(),
        spec.grid_points(),
        threads,
        if quick { "quick" } else { "full" },
    );
    let run = run_sweep(&spec, threads).map_err(|e| e.to_string())?;
    let report = aggregate(&run);
    print_out(|out| out.write_all(report.to_markdown().as_bytes()))?;
    std::fs::write(&json_path, report.to_json()).map_err(|e| format!("writing {json_path}: {e}"))?;
    eprintln!("  wrote {json_path}");
    Ok(())
}

/// Value of `--flag value`, if present.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => args
            .get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
        None => Ok(None),
    }
}

/// The fixed part of `repro --list`; the experiment table follows it.
const USAGE: &str = "\
usage:
  repro [--quick] [--seed N]                 run the full E1-E19 suite
  repro <experiment> [--quick] [--seed N] [--shards N]
        [--adaptive-shards] [--imbalance RATIO] [--patience WINDOWS] [--defenses TIER]
        [--telemetry] [--shard-series] [--interval SECS] [--telemetry-jsonl PATH] [--profile]
                                             run one experiment (slug or id);
                                             --shards selects the parallel engine (E17/E18);
                                             --adaptive-shards enables density-adaptive partitions
                                             (E18; --imbalance / --patience tune the rebalance gate);
                                             --defenses off|sanity|auth pins E19's security tier;
                                             --telemetry records virtual-time series (stderr roll-up,
                                             JSONL side file; --shard-series adds per-shard load gauges),
                                             --profile prints the per-phase breakdown
  repro watch <experiment> [--quick] [--seed N] [--shards N] [--interval SECS]
                                             live mode: stream sampled frames to stderr while running
  repro sweep <experiment> [--seeds N] [--seed BASE] [--threads N]
        [--grid k=v1,v2,...]... [--quick] [--json PATH]
                                             multi-seed statistical campaign
  repro --list                               this overview

experiments:
";

/// `repro --list`: subcommands, experiments and their grid parameters.
fn list(out: &mut StdoutLock<'static>) -> io::Result<()> {
    out.write_all(USAGE.as_bytes())?;
    for experiment in registry() {
        writeln!(
            out,
            "  {:4} {:18} {}",
            experiment.id(),
            experiment.slug(),
            experiment.title()
        )?;
        for p in experiment.params() {
            writeln!(out, "         --grid {:18} {}", p.key, p.description)?;
        }
    }
    Ok(())
}
