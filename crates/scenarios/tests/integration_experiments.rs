//! Smoke tests for the full experiment suite (quick settings): every report
//! must be produced with the expected shape so `repro` cannot silently skip a
//! figure.

use scenarios::experiments::{
    e02_gnutella_traffic, e03_quality_route_selection, e09_result_routing, e10_coverage_amplification, find, registry,
    Params,
};

#[test]
fn e9_reproduces_the_three_regimes() {
    let report = e09_result_routing(9);
    assert_eq!(report.rows.len(), 3);
    assert!(report.rows[0].cells[1].contains("CompletedDirect"));
    assert!(report.rows[1].cells[1].contains("CompletedViaResultRouting"));
    // The huge regime requires recovery of some kind; accept either recovery
    // or (on unlucky seeds) result routing, but it must complete.
    assert!(report.rows[2].cells[1].contains("Completed"));
}

#[test]
fn e10_tunnel_is_only_reachable_with_bridges() {
    let report = e10_coverage_amplification(10);
    assert_eq!(report.rows.len(), 2);
    assert_eq!(report.rows[0].cells[1], "true", "with bridges the server is known");
    assert_eq!(report.rows[1].cells[1], "false", "without bridges it is not");
    let with_bridges: usize = report.rows[0].cells[3].parse().unwrap();
    assert!(
        with_bridges >= 8,
        "nearly all messages must cross the tunnel, got {with_bridges}"
    );
}

#[test]
fn registry_covers_e1_to_e19_in_order() {
    let reg = registry();
    assert_eq!(reg.len(), 19);
    for (i, experiment) in reg.iter().enumerate() {
        assert_eq!(experiment.id, format!("E{}", i + 1));
        assert!(!experiment.title.is_empty());
    }
}

#[test]
fn trait_runs_match_the_direct_entry_points_and_yield_samples() {
    // The registry must be a pure re-routing of the historical entry
    // points: identical report, plus the numeric sample stream on top.
    let direct = e02_gnutella_traffic(5);
    let via_trait = find("gnutella").unwrap().run(5, &Params::new(), true).unwrap();
    assert_eq!(via_trait.report, direct);
    assert_eq!(via_trait.samples.len(), direct.rows.len());
    // Key columns form the scenario identity; the rest become metrics.
    assert!(via_trait.samples[0].scenario.starts_with("nodes="));
    assert!(via_trait.samples[0].metrics.iter().any(|(name, _)| name == "edges"));
}

#[test]
fn grid_params_reach_the_experiment_settings() {
    let mut params = Params::new();
    params.set("nodes", "40");
    params.set("churn", "240");
    params.set("duration_s", "30");
    let output = find("churn").unwrap().run(7, &params, true).unwrap();
    assert_eq!(output.report.rows.len(), 1, "one population x one churn rate");
    assert_eq!(output.samples[0].scenario, "nodes=40 churn (/node/h)=240.00");
}

#[test]
fn undeclared_keys_and_unparsable_values_are_errors_not_defaults() {
    let churn = find("churn").unwrap();
    let mut params = Params::new();
    params.set("nodse", "40");
    let unknown = churn.run(7, &params, true).unwrap_err();
    assert_eq!(unknown, churn.check("nodse", "40").unwrap_err());
    assert!(
        unknown.starts_with("no grid parameter `nodse` (available: nodes, churn, "),
        "{unknown}"
    );
    let mut params = Params::new();
    params.set("nodes", "many");
    assert_eq!(
        churn.run(7, &params, true).unwrap_err(),
        format!("nodes: {}", churn.check("nodes", "many").unwrap_err())
    );
    assert_eq!(
        find("routes").unwrap().check("nodes", "4").unwrap_err(),
        "no grid parameter `nodes` (available: none)"
    );
}

#[test]
fn reports_render_markdown_tables() {
    let report = e03_quality_route_selection();
    let text = report.to_string();
    assert!(text.contains("### E3"));
    assert!(text.lines().filter(|l| l.starts_with('|')).count() >= 4);
}
