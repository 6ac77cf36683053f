//! The process model: every repetition is a fresh child of this binary.
//!
//! A run's peak memory (`VmHWM`) and allocator state must belong to that run
//! alone, so the parent never simulates anything itself: it re-executes its
//! own binary with the hidden `rep` or `setup` command, waits for it to end,
//! and reads one JSON line from its standard output.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::{self, obj, Value};
use crate::rep::{self, Rep};
use crate::workloads::{shard_threads, Spec};

/// This process's peak resident set (`VmHWM`) in MB; 0 where `/proc` has none.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The child side of `rep`: run once, write the trace file if asked, print
/// the result line.
pub fn rep_main(spec: &Spec, seed: u64, traced: bool, trace_out: Option<&Path>) -> Result<(), String> {
    let mut rep = rep::run(spec, seed, traced, shard_threads());
    if let (Some(path), Some(doc)) = (trace_out, rep.trace.take()) {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    rep.peak_rss_mb = peak_rss_mb();
    println!("{}", rep.to_json().to_line());
    Ok(())
}

/// The child side of `setup`: take one set-up sample, print it.
pub fn setup_main(spec: &Spec, seed: u64) {
    let setup_s = rep::setup_sample(spec, seed, shard_threads());
    println!("{}", obj([("setup_s", Value::from(setup_s))]).to_line());
}

/// Runs this binary with `args`, waits for it, and parses the last line of
/// its standard output. The child's standard error passes through.
fn spawn(args: &[&str]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child `{}` ended with {}", args.join(" "), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    json::parse(line)
}

/// One repetition of `spec` in a fresh process.
pub fn spawn_rep(spec: &Spec, seed: u64, traced: bool, trace_out: Option<&Path>) -> Result<Rep, String> {
    let seed = seed.to_string();
    let mut args = vec!["rep", "--workload", spec.name, "--seed", &seed];
    args.extend(["--trace", if traced { "1" } else { "0" }]);
    let out = trace_out.map(|p| p.to_string_lossy().into_owned());
    if let Some(out) = &out {
        args.extend(["--trace-file", out.as_str()]);
    }
    Rep::from_json(&spawn(&args)?)
}

/// One set-up sample of `spec`, taken in a fresh process, seconds.
pub fn spawn_setup(spec: &Spec, seed: u64) -> Result<f64, String> {
    spawn(&["setup", "--workload", spec.name, "--seed", &seed.to_string()])?
        .get("setup_s")
        .and_then(Value::as_f64)
        .ok_or_else(|| "setup child printed no `setup_s`".to_string())
}
