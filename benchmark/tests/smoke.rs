//! The benchmark's own tier: the smoke-sized cities, and the manifest.

use std::process::Command;

fn benchmark(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary starts")
}

/// `check` runs all four workloads at smoke size, untraced and traced, with
/// every output check armed; it exits non-zero if any fails.
#[test]
fn check_passes_on_the_smoke_cities() {
    let out = benchmark(&["check"]);
    assert!(
        out.status.success(),
        "check failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for workload in ["city_fullstack", "city_mobile", "city_hostile", "city_sharded"] {
        assert!(stdout.contains(workload), "check skipped {workload}:\n{stdout}");
    }
}

/// The committed `BENCHMARK.json` is what the code defines: same command,
/// workloads, metrics, units, directions and bounds.
#[test]
fn committed_manifest_is_the_generated_one() {
    let out = benchmark(&["manifest"]);
    assert!(out.status.success());
    let committed = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repo root");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        committed,
        "regenerate with `benchmark manifest > BENCHMARK.json`"
    );
}

/// Unknown workloads and malformed numbers are refused, not defaulted.
#[test]
fn bad_arguments_are_errors() {
    for args in [
        &["measure", "--workload", "city_nowhere", "--seed", "1"][..],
        &["measure", "--workload", "city_mobile", "--seed", "x"][..],
        &["measure", "--workload", "city_mobile", "--trace", "2"][..],
        &["compare", "only-one.json"][..],
        &["frobnicate"][..],
        &[][..],
    ] {
        let out = benchmark(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be refused");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
