//! The repo's performance ledger.
//!
//! ```text
//! benchmark run [--seed N] [--reps N] [--json PATH] [--trace-out DIR]
//! benchmark measure --workload NAME --seed N --seconds S --trace 0|1
//! benchmark check
//! benchmark compare A.json B.json
//! benchmark manifest > BENCHMARK.json
//! ```
//!
//! `run` is the ledger people read; `measure` is the same measurement cut to
//! the one-workload, one-JSON-line contract `BENCHMARK.json` describes.
//! See `README.md` beside this package for the workloads, the metrics and
//! how they are expected to interact.

mod alloc;
mod checks;
mod child;
mod compare;
mod json;
mod layers;
mod ledger;
mod outcome;
mod probe;
mod rep;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workloads::{Size, Spec, DEFAULT_SEED};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where trace files go unless `--trace-out` says otherwise (git-ignored).
const TRACE_DIR: &str = "benchmark/out";

const USAGE: &str = "usage:
  benchmark run [--seed N] [--reps N] [--json PATH] [--trace-out DIR]
  benchmark measure --workload NAME --seed N --seconds S --trace 0|1
  benchmark check
  benchmark compare A.json B.json
  benchmark manifest";

/// `--key value` options and positional arguments of one command.
struct Args {
    options: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            options: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    args.options.push((key.to_string(), value.clone()));
                }
                None => args.positional.push(arg.clone()),
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The option parsed as `T`, or `default` when absent. A value that does
    /// not parse is an error, never a silent fallback.
    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(text) => text.parse().map_err(|_| format!("--{key}: cannot read `{text}`")),
        }
    }

    fn flag01(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(other) => Err(format!("--{key} is 0 or 1, not `{other}`")),
        }
    }

    fn workload(&self) -> Result<Spec, String> {
        let name = self.get("workload").ok_or("--workload is required")?;
        workloads::by_name(name, Size::Full).ok_or_else(|| {
            let known: Vec<&str> = workloads::all(Size::Full).iter().map(|s| s.name).collect();
            format!("no workload `{name}`; there are {}", known.join(", "))
        })
    }
}

/// `check`: the smoke-sized cities through the same code, in this process.
/// Every city runs untraced and traced (one seed, one result), the sharded
/// one on one thread and on two.
fn check() -> Vec<String> {
    let mut failed = Vec::new();
    for spec in workloads::all(Size::Smoke) {
        let plain = rep::run(&spec, DEFAULT_SEED, false, 1);
        let traced = rep::run(&spec, DEFAULT_SEED, true, 2);
        failed.extend(plain.failures.iter().chain(&traced.failures).cloned());
        if !plain.outcome.agrees_with(&traced.outcome) {
            failed.push(format!(
                "{}: traced (2 threads) and untraced (1 thread) runs of one seed disagree",
                spec.name
            ));
        }
        println!(
            "{:<16} sim_digest {:016x}  attached {:.1} %  reconnect {:.2} sim-s  {}",
            spec.name,
            plain.outcome.digest,
            plain.outcome.attached_pct,
            plain.outcome.reconnect_s,
            if plain.failures.is_empty() && traced.failures.is_empty() {
                "ok"
            } else {
                "FAILED"
            }
        );
    }
    failed
}

fn dispatch(command: &str, args: &Args) -> Result<Vec<String>, String> {
    let trace_dir = PathBuf::from(args.get("trace-out").unwrap_or(TRACE_DIR));
    match command {
        "run" => ledger::run(
            args.parsed("seed", DEFAULT_SEED)?,
            args.parsed("reps", 3usize)?,
            args.get("json").map(Path::new),
            &trace_dir,
        ),
        "measure" => {
            let seconds: f64 = args.parsed("seconds", 20.0)?;
            if !(seconds.is_finite() && seconds >= 0.0) {
                return Err(format!("--seconds must be a time, not {seconds}"));
            }
            let result = ledger::measure(
                &args.workload()?,
                args.parsed("seed", DEFAULT_SEED)?,
                seconds,
                args.flag01("trace")?,
                &trace_dir,
            )?;
            // The contract's result line: the last line of standard output.
            println!("{}", result.to_line());
            Ok(Vec::new())
        }
        "check" => Ok(check()),
        "manifest" => {
            print!("{}", ledger::manifest().to_pretty());
            Ok(Vec::new())
        }
        "compare" => {
            let [a, b] = args.positional.as_slice() else {
                return Err("compare takes two ledger files".into());
            };
            let read = |path: &String| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let (table, failed) = compare::compare(&read(a)?, &read(b)?)?;
            print!("{table}");
            Ok(failed)
        }
        // Hidden: the child side of the process model (see `child`).
        "rep" => {
            child::rep_main(
                &args.workload()?,
                args.parsed("seed", DEFAULT_SEED)?,
                args.flag01("trace")?,
                args.get("trace-file").map(Path::new),
            )?;
            Ok(Vec::new())
        }
        "setup" => {
            child::setup_main(&args.workload()?, args.parsed("seed", DEFAULT_SEED)?);
            Ok(Vec::new())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match Args::parse(rest).and_then(|args| dispatch(command, &args)) {
        Ok(failed) if failed.is_empty() => ExitCode::SUCCESS,
        Ok(failed) => {
            for line in failed {
                eprintln!("FAILED {line}");
            }
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
