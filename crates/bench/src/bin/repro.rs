//! Regenerates every figure-level result of the thesis' evaluation, runs
//! single experiments, and drives multi-seed sweep campaigns.
//!
//! ```text
//! cargo run -p bench --release --bin repro                          # full E1-E19 suite
//! cargo run -p bench --release --bin repro -- --quick --seed 42     # reduced sizes, explicit seed
//! cargo run -p bench --release --bin repro -- --quick --against golden/quick.20080815.md
//! cargo run -p bench --release --bin repro -- --list                # experiments & parameters
//! cargo run -p bench --release --bin repro -- churn --quick         # one experiment (slug or id)
//! cargo run -p bench --release --bin repro -- e8 --seed 7
//! cargo run -p bench --release --bin repro -- churn --quick --nodes 40 --churn 240
//! cargo run -p bench --release --bin repro -- metropolis --quick --telemetry --profile
//! cargo run -p bench --release --bin repro -- hotspot --quick --shards 4
//! cargo run -p bench --release --bin repro -- watch overload --quick
//! cargo run -p bench --release --bin repro -- sweep churn --seeds 8 --threads 8 --quick
//! cargo run -p bench --release --bin repro -- sweep churn --quick \
//!     --grid churn=0,60,240 --grid nodes=100 --seeds 4 --json BENCH_sweep.json
//! ```
//!
//! Every subcommand accepts `--seed N` and `--quick` uniformly, and a single
//! experiment accepts `--<key> <value>` for every parameter `--list` shows
//! under it — the same keys `sweep --grid` takes, checked by the same table
//! row. Suite and single-experiment output is one markdown table per
//! experiment; `sweep` prints an aggregated statistics table
//! (mean/stddev/min/max/95% CI across seeds, grouped by grid point) and
//! writes the same aggregation as JSON — byte-identical for any `--threads`
//! value.
//!
//! `--against FILE` (the suite or one experiment) prints, instead of the
//! reports, every cell in which they differ from FILE's reports of the same
//! experiments — one line each: experiment, row, column, before → after —
//! and exits non-zero if any does; it prints nothing when none does.
//!
//! The telemetry plane (`--telemetry`, `--profile`, `watch`) writes to
//! **stderr** and side files only: the stdout report stays byte-identical
//! with the plane on or off (pinned by `integration_telemetry`).

use std::io::{self, ErrorKind, StdoutLock, Write};
use std::process::ExitCode;
use std::str::FromStr;

use scenarios::experiments::{find, registry, Experiment, Params};
use scenarios::report::{changed_cells, CellChange};
use scenarios::run_all;
use scenarios::telemetry::{TelemetryMode, TelemetrySettings};
use simnet::SimDuration;
use sweep::{aggregate, run_sweep, SweepSpec};

/// Default suite seed (kept from the original evaluation scripts).
const DEFAULT_SUITE_SEED: u64 = 20080815;
/// Default JSON artifact path of `sweep` (CI uploads it).
const DEFAULT_SWEEP_JSON: &str = "BENCH_sweep.json";
/// The flags that stand alone; every other `--flag` is followed by a value.
const SWITCHES: [&str; 5] = ["--quick", "--list", "--telemetry", "--shard-series", "--profile"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match Cli::parse(&args).and_then(run) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("run `repro --list` for the available experiments and flags");
            ExitCode::FAILURE
        }
    }
}

/// The command line, split once into subcommand words, switches and
/// `--flag value` options (flag names without the dashes, in order).
struct Cli<'a> {
    words: Vec<&'a str>,
    switches: Vec<&'a str>,
    options: Vec<(&'a str, &'a str)>,
}

impl<'a> Cli<'a> {
    fn parse(args: &'a [String]) -> Result<Self, String> {
        let mut cli = Cli {
            words: Vec::new(),
            switches: Vec::new(),
            options: Vec::new(),
        };
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                None => cli.words.push(arg),
                Some(_) if SWITCHES.contains(&arg) => cli.switches.push(arg),
                Some(flag) => match args.next().filter(|v| !v.starts_with("--")) {
                    Some(value) => cli.options.push((flag, value)),
                    None => {
                        return Err(format!(
                            "{arg} needs a value (only {} stand alone)",
                            SWITCHES.join(", ")
                        ))
                    }
                },
            }
        }
        Ok(cli)
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// Removes every `--flag value` and returns the values in order.
    fn take_all(&mut self, flag: &str) -> Vec<&'a str> {
        let values = self
            .options
            .iter()
            .filter(|(f, _)| *f == flag)
            .map(|(_, v)| *v)
            .collect();
        self.options.retain(|(f, _)| *f != flag);
        values
    }

    /// Removes `--flag value` and parses the value (the last one given wins);
    /// `what` names the expected type in the error.
    fn take<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<Option<T>, String> {
        self.take_all(flag)
            .pop()
            .map(|s| s.parse().map_err(|_| format!("--{flag}: `{s}` is not {what}")))
            .transpose()
    }

    /// Accounts for everything the subcommand did not take: sweep-only flags
    /// on other subcommands and typos alike fail loudly instead of being
    /// dropped. With an experiment, each remaining `--key value` must be one
    /// of its declared parameters and becomes an override of the run.
    fn finish(self, words: usize, switches: &[&str], experiment: Option<&Experiment>) -> Result<Params, String> {
        if let Some(word) = self.words.get(words) {
            return Err(format!("unexpected argument `{word}`"));
        }
        if let Some(switch) = self.switches.iter().find(|s| !switches.contains(s)) {
            return Err(format!(
                "unknown flag `{switch}` here (allowed: {})",
                switches.join(", ")
            ));
        }
        let mut params = Params::new();
        for (key, value) in self.options {
            match experiment {
                Some(e) => e.check(key, value).map_err(|e| format!("--{key}: {e}"))?,
                None => return Err(format!("unknown flag `--{key}` here")),
            }
            params.set(key, value);
        }
        Ok(params)
    }
}

fn run(mut cli: Cli) -> Result<ExitCode, String> {
    if cli.switch("--list") {
        return print_out(list).map(|()| ExitCode::SUCCESS);
    }
    let quick = cli.switch("--quick");
    let seed = cli.take::<u64>("seed", "a u64")?;
    match cli.words.first().copied() {
        Some("sweep") => run_sweep_command(cli, seed, quick).map(|()| ExitCode::SUCCESS),
        // Live mode: one experiment with frame streaming forced on.
        Some("watch") => run_one(cli, true, seed, quick),
        Some(_) => run_one(cli, false, seed, quick),
        None => {
            // The full E1-E19 suite.
            let against = cli.take::<String>("against", "a path")?;
            cli.finish(0, &["--quick"], None)?;
            let seed = seed.unwrap_or(DEFAULT_SUITE_SEED);
            eprintln!(
                "running the E1-E19 experiment suite (seed {seed}, {}) ...",
                if quick { "Quick" } else { "Full" }
            );
            let mut text = String::new();
            for report in run_all(seed, quick) {
                text.push_str(&format!("{report}\n\n"));
                eprintln!("  finished {}", report.id);
            }
            emit(&text, against)
        }
    }
}

/// Prints `text`, reports as `repro` renders them — or, given `against`,
/// every cell in which they differ from that file's reports of the same
/// experiments, failing if any does.
fn emit(text: &str, against: Option<String>) -> Result<ExitCode, String> {
    let Some(path) = against else {
        print_out(|out| out.write_all(text.as_bytes()))?;
        return Ok(ExitCode::SUCCESS);
    };
    let before = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let changes = changed_cells(&before, text);
    if changes.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    print_out(|out| {
        writeln!(out, "{}", CellChange::HEADER)?;
        changes.iter().try_for_each(|change| writeln!(out, "{change}"))
    })?;
    eprintln!("{} report cell(s) differ from {path}", changes.len());
    Ok(ExitCode::FAILURE)
}

/// Runs a single experiment (`repro <exp>` or `repro watch <exp>`): resolves
/// the slug, turns every `--<key> <value>` into a parameter override, engages
/// the telemetry plane per the flags and prints the report to stdout and
/// every telemetry artefact to stderr.
fn run_one(mut cli: Cli, watch: bool, seed: Option<u64>, quick: bool) -> Result<ExitCode, String> {
    // The experiment follows the `watch` word, or is the first word itself.
    let name_at = usize::from(watch);
    let name = *cli
        .words
        .get(name_at)
        .ok_or("watch needs an experiment, e.g. `repro watch overload`")?;
    let mut experiment = find(name).ok_or_else(|| format!("unknown experiment `{name}`"))?;
    // `--shards` means the parallel engine: E15's sequential city has no
    // shard parameter, so reroute the request to the sharded metropolis.
    if experiment.id == "E15" && cli.options.iter().any(|(key, _)| *key == "shards") {
        eprintln!("note: --shards selects the sharded engine; running E17 (sharded-metropolis) instead of E15");
        experiment = find("E17").expect("E17 is registered");
    }

    let jsonl_path = cli.take::<String>("telemetry-jsonl", "a path")?;
    let against = cli.take::<String>("against", "a path")?;
    let interval = match cli.take::<f64>("interval", "a positive number of seconds")? {
        Some(secs) if secs.is_finite() && secs > 0.0 => SimDuration::from_secs_f64(secs),
        Some(secs) => return Err(format!("--interval: `{secs}` is not a positive number of seconds")),
        None => TelemetrySettings::default().sample_interval,
    };
    let profile = cli.switch("--profile");
    let record = cli.switch("--telemetry") || jsonl_path.is_some();
    // Per-shard series are layout-dependent, so they are a deliberate
    // opt-in: the default captures diff clean across --shards values.
    let shard_series = cli.switch("--shard-series");
    let switches: &[&str] = if watch {
        &["--quick", "--shard-series", "--profile"]
    } else {
        &["--quick", "--telemetry", "--shard-series", "--profile"]
    };
    let params = cli.finish(name_at + 1, switches, Some(experiment))?;

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
        shard_series,
    });

    let seed = seed.unwrap_or_else(|| experiment.suite_seed.unwrap_or(DEFAULT_SUITE_SEED));
    eprintln!(
        "running {} ({}) with seed {seed} ({}) ...",
        experiment.id,
        experiment.slug,
        if quick { "Quick" } else { "Full" }
    );
    let report = experiment.run(seed, &params, quick)?.report;
    let code = emit(&format!("{report}\n"), against)?;

    let captures = scenarios::telemetry::take_captures();
    scenarios::telemetry::configure(TelemetrySettings::default());
    if (mode != TelemetryMode::Off || profile) && captures.is_empty() {
        eprintln!(
            "note: {} left no telemetry frames (every world-based runner E1-E19 is instrumented; \
             E2/E3 are closed-form)",
            experiment.id
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
    Ok(code)
}

/// Writes to stdout under one lock. A reader that went away
/// (`repro --list | head`) is a clean exit, not an error.
fn print_out(write: impl FnOnce(&mut StdoutLock<'static>) -> io::Result<()>) -> Result<(), String> {
    match write(&mut io::stdout().lock()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("writing stdout: {e}")),
        _ => Ok(()),
    }
}

/// `repro sweep <experiment> [--seeds N] [--seed BASE] [--threads N]
/// [--grid k=v1,v2,...]... [--quick] [--json PATH]`
fn run_sweep_command(mut cli: Cli, base_seed: Option<u64>, quick: bool) -> Result<(), String> {
    let experiment = *cli
        .words
        .get(1)
        .ok_or("sweep needs an experiment, e.g. `repro sweep churn`")?;
    let seeds = cli.take::<usize>("seeds", "a count")?.unwrap_or(8);
    let threads = cli
        .take::<usize>("threads", "a count")?
        .unwrap_or_else(|| std::thread::available_parallelism().map(usize::from).unwrap_or(1));
    let json_path = cli
        .take::<String>("json", "a path")?
        .unwrap_or_else(|| DEFAULT_SWEEP_JSON.to_string());

    let mut spec = SweepSpec::new(experiment)
        .seed_range(base_seed.unwrap_or(42), seeds.max(1))
        .quick(quick);
    for kv in cli.take_all("grid") {
        let (key, values) = kv
            .split_once('=')
            .ok_or_else(|| format!("--grid: `{kv}` is not key=v1,v2,..."))?;
        let values: Vec<String> = values.split(',').map(str::to_string).collect();
        spec = spec.axis(key, values).map_err(|e| e.to_string())?;
    }
    cli.finish(2, &["--quick"], None)?;
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

/// The fixed part of `repro --list`; the experiment table follows it.
const USAGE: &str = "\
usage:
  repro [--quick] [--seed N] [--against FILE] run the full E1-E19 suite; with --against, print
                                             only the cells that differ from FILE's reports
                                             (experiment, row, column, before → after) and exit
                                             non-zero if any does
  repro <experiment> [--quick] [--seed N] [--against FILE] [--<key> <value>]...
        [--telemetry] [--shard-series] [--interval SECS] [--telemetry-jsonl PATH] [--profile]
                                             run one experiment (slug or id);
                                             --<key> <value> sets any parameter listed under the
                                             experiment below (the keys `sweep --grid` takes), e.g.
                                             --shards 4 (E17/E18),
                                             --defenses auth (E19), --nodes 40 --churn 240 (E13);
                                             --telemetry records virtual-time series (stderr roll-up,
                                             JSONL side file; --shard-series adds per-shard load gauges),
                                             --profile prints the per-phase breakdown
  repro watch <experiment> [--quick] [--seed N] [--<key> <value>]... [--interval SECS]
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
        writeln!(out, "  {:4} {:18} {}", experiment.id, experiment.slug, experiment.title)?;
        for (key, help) in experiment.params() {
            writeln!(out, "         --grid {key:18} {help}")?;
        }
    }
    Ok(())
}
