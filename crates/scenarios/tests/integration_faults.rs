//! E13/E14 smoke tests: the churn sweep and the blackout scenario run in
//! quick mode on every `cargo test`, so the fault subsystem's scale path is
//! exercised in CI, and their reports must be deterministic in the seed.

use scenarios::experiments::{e13_churn_sweep, e14_blackout_flash_crowd, ChurnSettings};

#[test]
fn e13_quick_churn_kills_and_recovers_sessions() {
    let settings = ChurnSettings::quick();
    let report = e13_churn_sweep(&settings);
    assert_eq!(
        report.rows.len(),
        settings.node_counts.len() * settings.churn_per_hour.len()
    );
    // Row 0 is the zero-churn control: no crashes, full churn-survival
    // (mobility still breaks sessions by range, which is the background the
    // "broken by range" column isolates).
    let control = &report.rows[0];
    assert_eq!(control.cells[1], "0.00");
    assert_eq!(control.cells[2], "0", "the control must not touch the fault engine");
    assert_eq!(control.cells[5], "0", "no churn, no crash-broken sessions");
    assert_eq!(control.cells[7], "100.00", "churn survival is full without churn");
    // Churned rows must actually crash nodes and break sessions, and the
    // devices must manage to re-attach (nonzero reconnection samples).
    for row in &report.rows[1..] {
        let crashes: u64 = row.cells[2].parse().unwrap();
        let broken: u64 = row.cells[5].parse().unwrap();
        let survival: f64 = row.cells[7].parse().unwrap();
        assert!(crashes > 0, "churn rows must crash nodes: {:?}", row.cells);
        assert!(broken > 0, "churn must break sessions: {:?}", row.cells);
        assert!(survival < 100.0, "broken sessions must dent survival");
        let mean_reconnect: f64 = row.cells[8].parse().unwrap();
        assert!(mean_reconnect > 0.0, "devices must re-attach after churn kills");
    }
    // Harsher churn survives no better than the mild rate. (Absolute break
    // counts are not monotone — at violent rates nodes spend so much time
    // dead that fewer sessions even form.)
    let mild: f64 = report.rows[1].cells[7].parse().unwrap();
    let harsh: f64 = report.rows[2].cells[7].parse().unwrap();
    assert!(harsh <= mild, "4x the churn should not improve survival");
}

#[test]
fn e13_report_is_deterministic() {
    let settings = ChurnSettings::quick();
    let a = e13_churn_sweep(&settings);
    let b = e13_churn_sweep(&settings);
    assert_eq!(a, b, "same settings must reproduce the identical report");
}

#[test]
fn e14_blackout_collapses_and_recovers_attachment() {
    let report = e14_blackout_flash_crowd(14, true);
    assert_eq!(report.rows.len(), 3);
    let attached: Vec<f64> = report.rows.iter().map(|r| r.cells[4].parse().unwrap()).collect();
    let alive: Vec<u64> = report.rows.iter().map(|r| r.cells[2].parse().unwrap()).collect();
    let dark: Vec<u64> = report.rows.iter().map(|r| r.cells[3].parse().unwrap()).collect();
    assert!(attached[0] > 50.0, "the block must mesh before the blackout");
    assert!(dark[1] > 0, "radios must be dark during the blackout");
    assert!(alive[1] < alive[0], "the crash wave must kill nodes");
    assert!(
        attached[1] < attached[0],
        "attachment must collapse during the blackout"
    );
    assert_eq!(alive[2], alive[0], "the restart storm must bring every node back");
    assert_eq!(dark[2], 0, "all radios must be restored");
    assert!(
        attached[2] > attached[1] && attached[2] > 0.8 * attached[0],
        "attachment must recover after the storm: {attached:?}"
    );
}

#[test]
fn e14_report_is_deterministic() {
    let a = e14_blackout_flash_crowd(14, true);
    let b = e14_blackout_flash_crowd(14, true);
    assert_eq!(a, b);
}
