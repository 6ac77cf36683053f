//! Experiment report structures.
//!
//! Every experiment runner returns an [`ExperimentReport`]: a table whose
//! `Display` implementation renders GitHub-flavoured markdown — what the
//! `repro` binary prints to stdout. The runner fills in the columns, rows and
//! notes; the header (id, title and *Paper:* line) is the registry row's,
//! stamped on by [`Experiment::run`](crate::experiments::Experiment::run).

use std::fmt;

use serde::{Deserialize, Serialize};

/// One row of an experiment table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Cell values, one per column.
    pub cells: Vec<String>,
}

impl Row {
    /// Builds a row from anything displayable.
    pub fn new<I, S>(cells: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: ToString,
    {
        Row {
            cells: cells.into_iter().map(|c| c.to_string()).collect(),
        }
    }
}

/// A titled result table for one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Experiment identifier, e.g. `"E6"` (empty until the registry stamps it).
    pub id: &'static str,
    /// Human-readable title (empty until the registry stamps it).
    pub title: &'static str,
    /// What the thesis claims / reports for this experiment (empty until the
    /// registry stamps it).
    pub paper_claim: &'static str,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Row>,
    /// Free-form observations on how the measurement compares to the claim.
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// Creates an empty report with these columns and no header.
    pub fn new(columns: &[&str]) -> Self {
        ExperimentReport {
            id: "",
            title: "",
            paper_claim: "",
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    pub fn push_row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: ToString,
    {
        self.rows.push(Row::new(cells));
    }

    /// Appends an observation note.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Convenience: a cell value from a float with two decimals.
    pub fn f(value: f64) -> String {
        format!("{value:.2}")
    }
}

impl fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "### {} — {}", self.id, self.title)?;
        writeln!(f)?;
        writeln!(f, "*Paper:* {}", self.paper_claim)?;
        writeln!(f)?;
        writeln!(f, "| {} |", self.columns.join(" | "))?;
        writeln!(
            f,
            "|{}|",
            self.columns.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        )?;
        for row in &self.rows {
            writeln!(f, "| {} |", row.cells.join(" | "))?;
        }
        if !self.notes.is_empty() {
            writeln!(f)?;
            for note in &self.notes {
                writeln!(f, "- {note}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_markdown() {
        let mut r = ExperimentReport::new(&["setting", "value"]);
        (r.id, r.title, r.paper_claim) = ("E0", "Demo", "a claim");
        r.push_row(["x", "1"]);
        r.push_row(["y", "2"]);
        r.push_note("looks right");
        let text = r.to_string();
        assert!(text.contains("### E0 — Demo"));
        assert!(text.contains("| setting | value |"));
        assert!(text.contains("| x | 1 |"));
        assert!(text.contains("- looks right"));
        assert!(text.contains("*Paper:* a claim"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(ExperimentReport::f(1.23456), "1.23");
        assert_eq!(ExperimentReport::f(0.0), "0.00");
    }

    #[test]
    fn rows_from_mixed_types() {
        let row = Row::new([1.to_string(), "two".to_string()]);
        assert_eq!(row.cells, vec!["1", "two"]);
    }
}
