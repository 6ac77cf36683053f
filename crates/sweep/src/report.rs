//! Aggregation and emitters: job samples → per-grid-point statistics →
//! JSON and markdown.
//!
//! Ordering is fixed by construction, never by completion: grid points in
//! expansion order, scenarios and metrics in first-appearance order of the
//! lowest job id, sample values in job-id (seed) order. Two runs of the
//! same spec therefore emit byte-identical JSON whatever the thread count.

use std::fmt::Write as _;
use std::time::Duration;

use scenarios::experiments::find;
use simnet::json;

use crate::exec::SweepRun;
use crate::stats::{summarize, Summary};

/// One metric's summary across the seeds of one grid point / scenario.
#[derive(Debug, Clone)]
pub struct MetricStats {
    /// Metric name (the report column).
    pub metric: String,
    /// The statistics.
    pub stats: Summary,
}

/// All metric summaries of one scenario (one report row identity).
#[derive(Debug, Clone)]
pub struct ScenarioStats {
    /// The scenario key, e.g. `"nodes=100 churn (/node/h)=60.00"`.
    pub scenario: String,
    /// Metric summaries in first-appearance order.
    pub metrics: Vec<MetricStats>,
}

/// All scenario summaries of one grid point.
#[derive(Debug, Clone)]
pub struct GridPointStats {
    /// The grid point's `(key, value)` pairs (empty for gridless sweeps).
    pub grid: Vec<(String, String)>,
    /// Scenario summaries in first-appearance order.
    pub scenarios: Vec<ScenarioStats>,
}

/// The aggregated campaign: statistics per grid point, plus run metadata.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Experiment slug.
    pub experiment: String,
    /// Experiment id (`"E13"`).
    pub id: String,
    /// Experiment title.
    pub title: String,
    /// Whether quick settings were used.
    pub quick: bool,
    /// The seeds every grid point ran with.
    pub seeds: Vec<u64>,
    /// The grid axes of the spec.
    pub axes: Vec<(String, Vec<String>)>,
    /// Per-grid-point statistics, in expansion order.
    pub points: Vec<GridPointStats>,
    /// Worker threads used (markdown only; never in the JSON).
    pub threads: usize,
    /// End-to-end wall clock (markdown only; never in the JSON).
    pub wall: Duration,
    /// Cumulative single-core job time (markdown only; never in the JSON).
    pub busy: Duration,
    /// Number of jobs run.
    pub jobs: usize,
}

/// Folds a completed run into per-metric statistics grouped by grid point.
pub fn aggregate(run: &SweepRun) -> SweepReport {
    let (id, title) = find(&run.spec.experiment)
        .map(|e| (e.id.to_string(), e.title.to_string()))
        .unwrap_or_default();
    // grid point -> scenario -> metric -> values, all in first-appearance
    // order over the id-sorted results.
    type MetricValues = Vec<(String, Vec<f64>)>;
    type ScenarioMetrics = Vec<(String, MetricValues)>;
    let mut points: Vec<(Vec<(String, String)>, ScenarioMetrics)> = Vec::new();
    for result in &run.results {
        let point = match points.iter_mut().find(|(g, _)| *g == result.job.grid) {
            Some((_, scenarios)) => scenarios,
            None => {
                points.push((result.job.grid.clone(), Vec::new()));
                &mut points.last_mut().expect("just pushed").1
            }
        };
        for sample in &result.samples {
            let scenario = match point.iter_mut().find(|(s, _)| *s == sample.scenario) {
                Some((_, metrics)) => metrics,
                None => {
                    point.push((sample.scenario.clone(), Vec::new()));
                    &mut point.last_mut().expect("just pushed").1
                }
            };
            for (metric, value) in &sample.metrics {
                match scenario.iter_mut().find(|(m, _)| m == metric) {
                    Some((_, values)) => values.push(*value),
                    None => scenario.push((metric.clone(), vec![*value])),
                }
            }
        }
    }
    let points = points
        .into_iter()
        .map(|(grid, scenarios)| GridPointStats {
            grid,
            scenarios: scenarios
                .into_iter()
                .map(|(scenario, metrics)| ScenarioStats {
                    scenario,
                    metrics: metrics
                        .into_iter()
                        .map(|(metric, values)| MetricStats {
                            metric,
                            stats: summarize(&values),
                        })
                        .collect(),
                })
                .collect(),
        })
        .collect();
    SweepReport {
        experiment: run.spec.experiment.clone(),
        id,
        title,
        quick: run.spec.quick,
        seeds: run.spec.seeds.clone(),
        axes: run.spec.axes.clone(),
        points,
        threads: run.threads,
        wall: run.wall,
        busy: run.busy(),
        jobs: run.results.len(),
    }
}

impl SweepReport {
    /// The aggregated campaign as JSON. Deliberately excludes wall clock
    /// and thread count: the JSON depends only on the spec and the sampled
    /// values, so `--threads 1` and `--threads 8` emit identical bytes.
    pub fn to_json(&self) -> String {
        let mut j = String::new();
        j.push_str("{\n  \"experiment\": ");
        json::string(&mut j, &self.experiment);
        j.push_str(",\n  \"id\": ");
        json::string(&mut j, &self.id);
        let _ = writeln!(j, ",\n  \"quick\": {},", self.quick);
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        let _ = writeln!(j, "  \"seeds\": [{}],", seeds.join(", "));
        j.push_str("  \"grid\": [");
        for (i, (key, values)) in self.axes.iter().enumerate() {
            j.push_str(if i == 0 { "{\"key\": " } else { ", {\"key\": " });
            json::string(&mut j, key);
            j.push_str(", \"values\": [");
            for (vi, value) in values.iter().enumerate() {
                j.push_str(if vi == 0 { "" } else { ", " });
                json::string(&mut j, value);
            }
            j.push_str("]}");
        }
        j.push_str("],\n");
        j.push_str("  \"points\": [\n");
        for (pi, point) in self.points.iter().enumerate() {
            j.push_str("    {\"grid\": {");
            for (i, (k, v)) in point.grid.iter().enumerate() {
                j.push_str(if i == 0 { "" } else { ", " });
                json::string(&mut j, k);
                j.push_str(": ");
                json::string(&mut j, v);
            }
            j.push_str("}, \"scenarios\": [\n");
            for (si, scenario) in point.scenarios.iter().enumerate() {
                j.push_str("      {\"scenario\": ");
                json::string(&mut j, &scenario.scenario);
                j.push_str(", \"metrics\": [\n");
                for (mi, m) in scenario.metrics.iter().enumerate() {
                    let s = m.stats;
                    j.push_str("        {\"name\": ");
                    json::string(&mut j, &m.metric);
                    let _ = write!(j, ", \"n\": {}", s.n);
                    for (name, value) in [
                        ("mean", s.mean),
                        ("stddev", s.stddev),
                        ("min", s.min),
                        ("max", s.max),
                        ("ci95", s.ci95),
                    ] {
                        let _ = write!(j, ", \"{name}\": ");
                        json::number(&mut j, value, Some(6));
                    }
                    j.push('}');
                    j.push_str(if mi + 1 == scenario.metrics.len() { "\n" } else { ",\n" });
                }
                j.push_str("      ]}");
                j.push_str(if si + 1 == point.scenarios.len() { "\n" } else { ",\n" });
            }
            j.push_str("    ]}");
            j.push_str(if pi + 1 == self.points.len() { "\n" } else { ",\n" });
        }
        j.push_str("  ]\n}\n");
        j
    }

    /// The aggregated campaign as a markdown report, one statistics table
    /// per grid point, closed by the wall-clock / speedup note (which is
    /// where timing lives — never in the JSON).
    pub fn to_markdown(&self) -> String {
        let mut md = String::new();
        let _ = writeln!(
            md,
            "### sweep {} ({}) — {}, {} seed{} × {} grid point{}",
            self.id,
            self.experiment,
            if self.quick { "quick" } else { "full" },
            self.seeds.len(),
            if self.seeds.len() == 1 { "" } else { "s" },
            self.points.len(),
            if self.points.len() == 1 { "" } else { "s" },
        );
        let _ = writeln!(md);
        let _ = writeln!(md, "*{}* — *{}*", self.title, describe_seeds(&self.seeds));
        for point in &self.points {
            let _ = writeln!(md);
            if !point.grid.is_empty() {
                let label: Vec<String> = point.grid.iter().map(|(k, v)| format!("{k}={v}")).collect();
                let _ = writeln!(md, "**grid point `{}`**", label.join(" "));
                let _ = writeln!(md);
            }
            let _ = writeln!(md, "| scenario | metric | n | mean | stddev | min | max | 95% CI |");
            let _ = writeln!(md, "|---|---|---|---|---|---|---|---|");
            for scenario in &point.scenarios {
                for m in &scenario.metrics {
                    let s = m.stats;
                    let _ = writeln!(
                        md,
                        "| {} | {} | {} | {:.2} | {:.2} | {:.2} | {:.2} | ±{:.2} |",
                        scenario.scenario, m.metric, s.n, s.mean, s.stddev, s.min, s.max, s.ci95
                    );
                }
            }
        }
        let _ = writeln!(md);
        let _ = writeln!(
            md,
            "- wall clock: {:.2} s on {} thread{} ({} job{}; cumulative job time {:.2} s, speedup {:.2}x)",
            self.wall.as_secs_f64(),
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
            self.busy.as_secs_f64(),
            self.busy.as_secs_f64() / self.wall.as_secs_f64().max(f64::MIN_POSITIVE)
        );
        let _ = writeln!(
            md,
            "- 95% CI: mean ± t(n−1)·s/√n, Student's t, two-sided; stddev is the n−1 sample estimate"
        );
        md
    }
}

/// `"42..49"` for contiguous ranges, an explicit list otherwise.
fn describe_seeds(seeds: &[u64]) -> String {
    let contiguous = seeds.windows(2).all(|w| w[1] == w[0].wrapping_add(1));
    match (seeds.first(), seeds.last()) {
        (Some(first), Some(last)) if contiguous && seeds.len() > 1 => format!("seeds {first}..{last}"),
        _ => format!(
            "seeds {}",
            seeds.iter().map(u64::to_string).collect::<Vec<_>>().join(", ")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_sweep;
    use crate::spec::SweepSpec;

    #[test]
    fn aggregate_groups_by_grid_point_and_counts_every_seed() {
        // E3 is deterministic and seed-independent: 3 seeds must yield n=3
        // with zero spread.
        let spec = SweepSpec::new("routes").seed_range(1, 3).quick(true);
        let report = aggregate(&run_sweep(&spec, 2).unwrap());
        assert_eq!(report.id, "E3");
        assert_eq!(report.points.len(), 1, "gridless sweep has one grid point");
        let point = &report.points[0];
        assert!(point.grid.is_empty());
        assert_eq!(point.scenarios.len(), 2, "two routes in the E3 table");
        let m = &point.scenarios[0].metrics[0];
        assert_eq!(m.stats.n, 3);
        assert_eq!(m.stats.stddev, 0.0, "seed-independent experiment must have zero spread");
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"routes\""));
        assert!(json.contains("\"n\": 3"));
        let md = report.to_markdown();
        assert!(md.contains("### sweep E3 (routes)"));
        assert!(md.contains("wall clock:"));
    }

    #[test]
    fn json_escapes_quotes_and_controls() {
        let report = SweepReport {
            experiment: "a\"b\\c\nd".to_string(),
            id: String::new(),
            title: String::new(),
            quick: true,
            seeds: Vec::new(),
            axes: Vec::new(),
            points: Vec::new(),
            threads: 1,
            wall: Duration::ZERO,
            busy: Duration::ZERO,
            jobs: 0,
        };
        assert!(report.to_json().contains("\"experiment\": \"a\\\"b\\\\c\\u000ad\","));
    }

    #[test]
    fn seed_ranges_describe_compactly() {
        assert_eq!(describe_seeds(&[42, 43, 44]), "seeds 42..44");
        assert_eq!(describe_seeds(&[5]), "seeds 5");
        assert_eq!(describe_seeds(&[2, 9]), "seeds 2, 9");
    }
}
