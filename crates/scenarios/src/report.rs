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

/// One cell in which two renderings of a report differ — what
/// `repro --against` prints, one table line each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellChange {
    /// The experiment id, e.g. `"E9"`.
    pub experiment: String,
    /// `title`, `paper`, `columns`, `note N`, or a table row as its
    /// one-based index and first cell (`3: huge`).
    pub row: String,
    /// The column's header, or `-` outside the table.
    pub column: String,
    /// The cell as the first rendering has it, `(none)` where it has none.
    pub before: String,
    /// The cell as the second rendering has it, `(none)` where it has none.
    pub after: String,
}

impl CellChange {
    /// The header of the table [`CellChange`]'s `Display` writes lines of.
    pub const HEADER: &'static str = "| experiment | row | column | before → after |\n|---|---|---|---|";
}

impl fmt::Display for CellChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let CellChange {
            experiment,
            row,
            column,
            before,
            after,
        } = self;
        write!(f, "| {experiment} | {row} | {column} | {before} → {after} |")
    }
}

/// One report read back from the markdown its `Display` writes.
#[derive(Default)]
struct Rendered<'a> {
    id: &'a str,
    title: &'a str,
    paper: &'a str,
    columns: Vec<&'a str>,
    rows: Vec<Vec<&'a str>>,
    notes: Vec<&'a str>,
}

/// The cells of a table line.
fn cells(line: &str) -> Vec<&str> {
    let inner = line.strip_prefix("| ").and_then(|l| l.strip_suffix(" |"));
    inner.map_or_else(Vec::new, |inner| inner.split(" | ").collect())
}

/// Every report in `text` (one or more, as `repro` prints them), in order.
fn read_reports(text: &str) -> Vec<Rendered<'_>> {
    let mut reports: Vec<Rendered<'_>> = Vec::new();
    for line in text.lines() {
        if let Some(heading) = line.strip_prefix("### ") {
            let (id, title) = heading.split_once(" — ").unwrap_or((heading, ""));
            reports.push(Rendered {
                id,
                title,
                ..Rendered::default()
            });
            continue;
        }
        let Some(report) = reports.last_mut() else {
            continue;
        };
        if let Some(paper) = line.strip_prefix("*Paper:* ") {
            report.paper = paper;
        } else if let Some(note) = line.strip_prefix("- ") {
            report.notes.push(note);
        } else if line.starts_with('|') && !line.starts_with("|---") {
            let row = cells(line);
            if report.columns.is_empty() {
                report.columns = row;
            } else {
                report.rows.push(row);
            }
        }
    }
    reports
}

/// Every cell in which the reports of `after` differ from the reports of
/// `before` with the same id, in `after`'s order. A report `before` lacks
/// is one change; a report only `before` has is not compared, so one
/// experiment's report can be held against a whole suite's.
pub fn changed_cells(before: &str, after: &str) -> Vec<CellChange> {
    let before = read_reports(before);
    let mut changes = Vec::new();
    for now in read_reports(after) {
        let mut note = |row: String, column: &str, was: Option<&str>, is: Option<&str>| {
            if was != is {
                changes.push(CellChange {
                    experiment: now.id.to_string(),
                    row,
                    column: column.to_string(),
                    before: was.unwrap_or("(none)").to_string(),
                    after: is.unwrap_or("(none)").to_string(),
                });
            }
        };
        let Some(was) = before.iter().find(|was| was.id == now.id) else {
            note("title".into(), "-", None, Some(now.title));
            continue;
        };
        note("title".into(), "-", Some(was.title), Some(now.title));
        note("paper".into(), "-", Some(was.paper), Some(now.paper));
        for at in 0..was.columns.len().max(now.columns.len()) {
            let (old, new) = (was.columns.get(at).copied(), now.columns.get(at).copied());
            note("columns".into(), &(at + 1).to_string(), old, new);
        }
        for at in 0..was.rows.len().max(now.rows.len()) {
            let (old, new) = (was.rows.get(at), now.rows.get(at));
            let label = new.or(old).and_then(|row| row.first()).copied().unwrap_or("");
            let width = old.map_or(0, Vec::len).max(new.map_or(0, Vec::len));
            for column in 0..width {
                let name = now
                    .columns
                    .get(column)
                    .or(was.columns.get(column))
                    .copied()
                    .unwrap_or("-");
                let (old, new) = (old.and_then(|row| row.get(column)), new.and_then(|row| row.get(column)));
                note(format!("{}: {label}", at + 1), name, old.copied(), new.copied());
            }
        }
        for at in 0..was.notes.len().max(now.notes.len()) {
            let (old, new) = (was.notes.get(at).copied(), now.notes.get(at).copied());
            note(format!("note {}", at + 1), "-", old, new);
        }
    }
    changes
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

    const GOLDEN: &str = include_str!("../../../golden/quick.20080815.md");

    #[test]
    fn a_suite_read_against_itself_changes_no_cell() {
        assert_eq!(read_reports(GOLDEN).len(), 19);
        assert_eq!(changed_cells(GOLDEN, GOLDEN), []);
    }

    #[test]
    fn one_edited_cell_is_reported_exactly() {
        let row = "| A-C-D | [210, 250] | 460 | false | false |";
        assert_eq!(GOLDEN.matches(row).count(), 1);
        let edited = GOLDEN.replace(row, "| A-C-D | [210, 250] | 461 | false | false |");
        let changes = changed_cells(GOLDEN, &edited);
        assert_eq!(
            changes.iter().map(ToString::to_string).collect::<Vec<_>>(),
            ["| E3 | 2: A-C-D | sum | 460 → 461 |"]
        );
    }

    #[test]
    fn rows_notes_and_reports_one_side_lacks_are_changes() {
        let mut r = ExperimentReport::new(&["setting", "value"]);
        (r.id, r.title, r.paper_claim) = ("E0", "Demo", "a claim");
        r.push_row(["x", "1"]);
        let before = r.to_string();
        r.push_row(["y", "2"]);
        r.push_note("looks right");
        let after = format!("{r}\n\n### E99 — New\n");
        let changes: Vec<_> = changed_cells(&before, &after).iter().map(ToString::to_string).collect();
        assert_eq!(
            changes,
            [
                "| E0 | 2: y | setting | (none) → y |",
                "| E0 | 2: y | value | (none) → 2 |",
                "| E0 | note 1 | - | (none) → looks right |",
                "| E99 | title | - | (none) → New |",
            ]
        );
        assert_eq!(changed_cells(&after, &before), changed_cells(&after, &before)[..3]);
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
