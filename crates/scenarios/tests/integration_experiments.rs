//! The registry's run path: a run is its entry point's report under the
//! registry row's header, grid parameters reach the settings, and a bad key
//! or value is an error. What each report shows is `claims.rs`'s.

use scenarios::experiments::{e02_gnutella_traffic, find, Params};

#[test]
fn trait_runs_match_the_direct_entry_points_and_yield_samples() {
    // The registry re-routes the entry point and heads its report with the
    // row's id, title and *Paper:* line; columns, rows and notes are the
    // entry point's own, and the numeric sample stream comes on top.
    let gnutella = find("gnutella").unwrap();
    let direct = e02_gnutella_traffic(5);
    assert_eq!((direct.id, direct.title, direct.paper_claim), ("", "", ""));
    let via_trait = gnutella.run(5, &Params::new(), true).unwrap();
    let report = &via_trait.report;
    assert_eq!(
        (report.id, report.title, report.paper_claim),
        (gnutella.id, gnutella.title, gnutella.paper_claim)
    );
    assert_eq!(
        (&report.columns, &report.rows, &report.notes),
        (&direct.columns, &direct.rows, &direct.notes)
    );
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
    let report = find("routes").unwrap().run(1, &Params::new(), true).unwrap().report;
    let text = report.to_string();
    assert!(text.contains("### E3"));
    assert!(text.lines().filter(|l| l.starts_with('|')).count() >= 4);
}
