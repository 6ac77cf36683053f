//! `compare A.json B.json`: did B get worse than A?
//!
//! One row per workload × end-to-end metric, judged by the bound the ledger
//! itself carries. Where the two quartile ranges overlap the row says
//! `unresolved`, never `unchanged`: noise wider than the difference resolves
//! nothing. The command fails past a bound, and on any `sim_digest` or
//! `ops_failed` difference — those repeat exactly, so a difference is a
//! behaviour change, not noise.

use crate::json::Value;

struct Row {
    value: f64,
    q1: f64,
    q3: f64,
    higher_is_better: bool,
    bound: f64,
    unit: String,
}

fn row(metric: &Value) -> Option<Row> {
    let num = |key: &str| metric.get(key).and_then(Value::as_f64);
    Some(Row {
        value: num("value")?,
        q1: num("q1")?,
        q3: num("q3")?,
        higher_is_better: metric.get("better")?.as_str()? == "higher",
        bound: num("bound")?,
        unit: metric.get("unit")?.as_str()?.to_string(),
    })
}

/// Compares ledger `b` against ledger `a`; returns the printed table and
/// every reason to fail.
pub fn compare(a: &Value, b: &Value) -> Result<(String, Vec<String>), String> {
    let workloads = |v: &'_ Value| v.get("workloads").map(Value::members).unwrap_or_default().to_vec();
    let (wa, wb) = (workloads(a), workloads(b));
    if wa.is_empty() {
        return Err("the first ledger lists no workloads".into());
    }
    let mut table = format!(
        "{:<16} {:<18} {:>14} {:>14} {:>9}  verdict\n",
        "workload", "metric", "A", "B", "delta"
    );
    let mut failed = Vec::new();
    for (name, la) in &wa {
        let Some((_, lb)) = wb.iter().find(|(n, _)| n == name) else {
            failed.push(format!("{name}: missing from the second ledger"));
            continue;
        };
        for key in ["sim_digest", "ops_attempted", "ops_failed"] {
            if la.get(key) != lb.get(key) {
                failed.push(format!(
                    "{name}: {key} differs ({} vs {})",
                    la.get(key).map_or("none".into(), Value::to_line),
                    lb.get(key).map_or("none".into(), Value::to_line)
                ));
            }
        }
        for (metric, ma) in la.get("e2e").map(Value::members).unwrap_or_default() {
            let (Some(ra), Some(rb)) = (row(ma), lb.get("e2e").and_then(|e| e.get(metric)).and_then(row)) else {
                failed.push(format!("{name}: {metric} is not in both ledgers"));
                continue;
            };
            // Positive = worse, as a share of A.
            let worse = if ra.higher_is_better {
                (ra.value - rb.value) / ra.value
            } else {
                (rb.value - ra.value) / ra.value
            };
            let overlap = ra.q1 <= rb.q3 && rb.q1 <= ra.q3;
            let verdict = if worse > ra.bound {
                failed.push(format!(
                    "{name}: {metric} worse by {:.1} %, bound {:.0} %",
                    worse * 100.0,
                    ra.bound * 100.0
                ));
                "REGRESSED"
            } else if ra.value == rb.value && ra.q1 == ra.q3 && rb.q1 == rb.q3 {
                "identical"
            } else if overlap {
                "unresolved"
            } else if worse > 0.0 {
                "worse, within bound"
            } else {
                "better"
            };
            table.push_str(&format!(
                "{:<16} {:<18} {:>14.4} {:>14.4} {:>+8.1}%  {verdict} ({})\n",
                name,
                metric,
                ra.value,
                rb.value,
                (rb.value - ra.value) / ra.value * 100.0,
                ra.unit
            ));
        }
    }
    Ok((table, failed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{obj, parse};

    fn ledger(throughput: (f64, f64, f64), digest: &str) -> Value {
        let e2e = obj([(
            "node_sim_s_per_s",
            obj([
                ("value", Value::from(throughput.1)),
                ("q1", Value::from(throughput.0)),
                ("q3", Value::from(throughput.2)),
                ("unit", Value::from("node-sim-s/s")),
                ("better", Value::from("higher")),
                ("bound", Value::from(0.10)),
            ]),
        )]);
        let workload = obj([
            ("e2e", e2e),
            ("sim_digest", Value::from(digest)),
            ("ops_attempted", Value::from(10u64)),
            ("ops_failed", Value::from(1u64)),
        ]);
        // Through text, as `compare` reads it.
        parse(&obj([("workloads", obj([("city", workload)]))]).to_pretty()).unwrap()
    }

    #[test]
    fn verdicts_follow_bound_and_overlap() {
        let base = ledger((98.0, 100.0, 102.0), "aa");
        let verdict = |b: &Value| {
            let (table, failed) = compare(&base, b).unwrap();
            (table.lines().nth(1).unwrap().to_string(), failed)
        };
        let (line, failed) = verdict(&ledger((99.0, 101.0, 103.0), "aa"));
        assert!(line.contains("unresolved") && failed.is_empty(), "{line}");
        let (line, failed) = verdict(&ledger((110.0, 111.0, 112.0), "aa"));
        assert!(line.contains("better") && failed.is_empty(), "{line}");
        let (line, failed) = verdict(&ledger((94.0, 95.0, 96.0), "aa"));
        assert!(line.contains("worse, within bound") && failed.is_empty(), "{line}");
        let (line, failed) = verdict(&ledger((80.0, 85.0, 90.0), "aa"));
        assert!(line.contains("REGRESSED") && failed.len() == 1, "{line}");
        let (_, failed) = verdict(&ledger((98.0, 100.0, 102.0), "bb"));
        assert!(failed.iter().any(|f| f.contains("sim_digest")), "{failed:?}");
    }
}
