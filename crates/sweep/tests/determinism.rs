//! The sweep determinism guarantee: for the same spec, an 8-thread run
//! emits byte-identical aggregated JSON to a 1-thread run. Ordering is
//! fixed by job id — grid points in expansion order, samples in seed order
//! — never by completion order.

use sweep::{aggregate, run_sweep, SweepSpec};

/// Strips the timing note (the only legitimately thread-dependent line)
/// before comparing markdown.
fn strip_wall_clock(md: &str) -> String {
    md.lines()
        .filter(|l| !l.starts_with("- wall clock:"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn eight_threads_emit_byte_identical_json_to_one_thread() {
    // E2 builds per-seed random topologies without a world event loop, so
    // eight seeds are cheap while the samples genuinely vary by seed.
    let spec = SweepSpec::new("gnutella").seed_range(42, 8).quick(true);
    let single = aggregate(&run_sweep(&spec, 1).expect("1-thread run"));
    let parallel = aggregate(&run_sweep(&spec, 8).expect("8-thread run"));
    assert_eq!(
        single.to_json(),
        parallel.to_json(),
        "aggregated JSON must not depend on the thread count"
    );
    assert_eq!(
        strip_wall_clock(&single.to_markdown()),
        strip_wall_clock(&parallel.to_markdown())
    );
    // The spread across seeds must be real (different topologies per seed),
    // otherwise this test would pass vacuously on constant data.
    let any_spread = single
        .points
        .iter()
        .flat_map(|p| &p.scenarios)
        .flat_map(|s| &s.metrics)
        .any(|m| m.stats.stddev > 0.0);
    assert!(any_spread, "E2 samples must vary across seeds");
}

#[test]
fn world_backed_grid_sweep_is_thread_count_invariant() {
    // A real (if tiny) E13 world per job: 2 grid points × 2 seeds, each
    // building its world inside the worker thread.
    let spec = SweepSpec::new("churn")
        .seed_range(7, 2)
        .quick(true)
        .axis("nodes", vec!["40".into()])
        .expect("fresh axis")
        .axis("churn", vec!["0".into(), "240".into()])
        .expect("fresh axis")
        .axis("duration_s", vec!["30".into()])
        .expect("fresh axis");
    let single = aggregate(&run_sweep(&spec, 1).expect("1-thread run"));
    let parallel = aggregate(&run_sweep(&spec, 4).expect("4-thread run"));
    assert_eq!(single.to_json(), parallel.to_json());
    // 2 churn values x 1 node count x 1 duration = 2 grid points, expansion
    // order preserved.
    assert_eq!(single.points.len(), 2);
    assert_eq!(single.points[0].grid[1], ("churn".to_string(), "0".to_string()));
    assert_eq!(single.points[1].grid[1], ("churn".to_string(), "240".to_string()));
    for point in &single.points {
        for scenario in &point.scenarios {
            for m in &scenario.metrics {
                assert_eq!(m.stats.n, 2, "every metric must aggregate both seeds");
            }
        }
    }
}
