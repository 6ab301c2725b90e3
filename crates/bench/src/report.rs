//! The captured report experiments write into, its masked rendering, and
//! the check of that rendering against the committed golden.

use crate::experiments::{Experiment, EXPERIMENTS};
use std::fmt::Display;

/// One table cell: deterministic text, or a wall-clock value that the
/// masked rendering replaces with `~`. Wall cells come from
/// [`Wall`](crate::Wall) only; everything else is [`det`].
pub struct Cell {
    text: String,
    wall: bool,
}

impl Cell {
    pub(crate) fn wall(text: String) -> Cell {
        Cell { text, wall: true }
    }
}

/// A deterministic cell: a count, a byte size, a virtual-clock time, a label.
pub fn det(value: impl Display) -> Cell {
    Cell { text: value.to_string(), wall: false }
}

/// Fixed-width table of experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Table {
        Table { headers: headers.iter().map(|h| h.to_string()).collect(), rows: Vec::new() }
    }

    pub fn row<const N: usize>(&mut self, cells: [Cell; N]) {
        assert_eq!(N, self.headers.len(), "row width must match the header");
        self.rows.push(cells.into());
    }

    fn render(&self, masked: bool, out: &mut String) {
        let text = |c: &Cell| if masked && c.wall { "~".to_string() } else { c.text.clone() };
        let rows: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.iter().map(text).collect()).collect();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for r in &rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        let line = |out: &mut String| {
            for w in &widths {
                out.push('+');
                out.push_str(&"-".repeat(w + 2));
            }
            out.push_str("+\n");
        };
        line(out);
        for (i, r) in std::iter::once(&self.headers).chain(&rows).enumerate() {
            out.push('|');
            for (c, w) in r.iter().zip(&widths) {
                out.push_str(&format!(" {c:>w$} |"));
            }
            out.push('\n');
            if i == 0 {
                line(out);
            }
        }
        line(out);
    }
}

enum Block {
    Table(Table),
    Line(String),
}

/// What one experiment reports: tables and free-text lines, in order.
#[derive(Default)]
pub struct Report {
    blocks: Vec<Block>,
}

impl Report {
    pub fn table(&mut self, table: Table) {
        self.blocks.push(Block::Table(table));
    }

    /// A deterministic line of text (a routing probe, a closing note).
    pub fn line(&mut self, text: impl Into<String>) {
        self.blocks.push(Block::Line(text.into()));
    }

    fn render(&self, masked: bool, out: &mut String) {
        for b in &self.blocks {
            match b {
                Block::Table(t) => t.render(masked, out),
                Block::Line(l) => {
                    out.push_str(l);
                    out.push('\n');
                }
            }
        }
    }
}

impl Experiment {
    /// Run the experiment and render its section of the record: banner,
    /// report, blank line. `masked` replaces wall cells with `~`.
    pub fn render(&self, masked: bool) -> String {
        let mut report = Report::default();
        (self.run)(&mut report);
        let mut out = format!("=== {}: {} ===\n", self.id, self.title);
        report.render(masked, &mut out);
        out.push('\n');
        out
    }
}

/// The committed record: every experiment's masked section, in registry order.
const GOLDEN: &str = include_str!("../golden/experiments.txt");

/// Where a failed check leaves its rendering (the K=1 golden's convention:
/// `diff` it against the golden, copy it over only if the change is meant).
pub const ACTUAL_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp/experiments.actual.txt");

/// `id`'s section of `record`, banner through trailing blank line.
fn section<'a>(record: &'a str, id: &str) -> &'a str {
    let Some(start) = record.find(&format!("=== {id}: ")) else { return "" };
    let end = record[start..].find("\n=== ").map_or(record.len(), |i| start + i + 1);
    &record[start..end]
}

/// A rendered line reduced to what the record asserts: table borders carry
/// nothing, table rows are their trimmed cells, text is itself.
fn cells(line: &str) -> Vec<&str> {
    match line.as_bytes().first() {
        Some(b'+') => vec!["+"],
        Some(b'|') => line.trim_matches('|').split('|').map(str::trim).collect(),
        _ => vec![line],
    }
}

/// First difference between two renderings of one experiment, named by
/// table row and column when it is a table cell.
fn first_diff(actual: &str, golden: &str) -> Option<String> {
    let mut header = Vec::new();
    // Border lines seen in the current table; the header follows the first.
    let mut borders = 0;
    let mut golden = golden.lines();
    for (n, a) in actual.lines().enumerate() {
        let g = golden.next().unwrap_or("<end of section>");
        let (ac, gc) = (cells(a), cells(g));
        if ac == ["+"] {
            borders = borders % 3 + 1;
        } else if borders == 1 {
            header.clone_from(&ac);
        }
        if ac == gc {
            continue;
        }
        if a.starts_with('|') && g.starts_with('|') && ac.len() == gc.len() {
            let i = (0..ac.len()).find(|&i| ac[i] != gc[i]).expect("rows differ");
            return Some(format!(
                "row `{}`, column `{}`: golden `{}`, actual `{}`",
                ac[0], header[i], gc[i], ac[i]
            ));
        }
        return Some(format!("line {}: golden `{g}`, actual `{a}`", n + 1));
    }
    golden.next().map(|g| format!("golden continues with `{g}`"))
}

/// Run `selected` and compare each masked section with `golden`'s. Returns
/// one message per mismatching experiment, and the candidate record:
/// `golden` with the sections that ran replaced by what they rendered.
fn check_against(golden: &str, selected: &[&Experiment]) -> (Vec<String>, String) {
    let mut failures = Vec::new();
    let mut candidate = String::new();
    for e in EXPERIMENTS {
        let expected = section(golden, e.id);
        if !selected.iter().any(|s| s.id == e.id) {
            candidate.push_str(expected);
            continue;
        }
        let actual = e.render(true);
        if let Some(diff) = first_diff(&actual, expected) {
            failures.push(format!("{}: {diff}", e.id));
        }
        candidate.push_str(&actual);
    }
    (failures, candidate)
}

/// `exp --check`: the masked diff. Runs `selected` against the committed
/// golden; on any mismatch writes the candidate record to [`ACTUAL_PATH`]
/// and returns the mismatches (experiment, row, column).
pub fn check(selected: &[&Experiment]) -> Result<(), Vec<String>> {
    let (failures, candidate) = check_against(GOLDEN, selected);
    if failures.is_empty() {
        return Ok(());
    }
    let path = std::path::Path::new(ACTUAL_PATH);
    std::fs::create_dir_all(path.parent().expect("path has a parent"))
        .and_then(|()| std::fs::write(path, candidate))
        .expect("write the actual rendering under target/tmp");
    Err(failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::find;

    #[test]
    fn masked_rendering_hides_wall_cells_and_nothing_else() {
        let ((), wall) = crate::timed(|| ());
        let mut table = Table::new(&["rows", "elapsed_ms"]);
        table.row([det(10), wall.ms()]);
        let (mut masked, mut plain) = (String::new(), String::new());
        table.render(true, &mut masked);
        table.render(false, &mut plain);
        assert_eq!(
            masked,
            "+------+------------+\n\
             | rows | elapsed_ms |\n\
             +------+------------+\n\
             |   10 |          ~ |\n\
             +------+------------+\n"
        );
        assert!(plain.contains("|   10 |") && plain.contains("0.00 |") && !plain.contains('~'));
    }

    #[test]
    fn tampered_golden_names_experiment_row_and_column() {
        let row = "no dirty reads across sessions |   ";
        let tampered = GOLDEN.replace(&format!("{row}PASS"), &format!("{row}FAIL"));
        let (failures, candidate) = check_against(&tampered, &[find("e6").unwrap()]);
        assert_eq!(
            failures,
            ["E6: row `no dirty reads across sessions`, column `result`: \
              golden `FAIL`, actual `PASS`"]
        );
        assert_eq!(candidate, GOLDEN, "candidate = golden with the sections that ran re-rendered");
    }

    #[test]
    fn diff_ignores_column_width_and_reports_lines_outside_tables() {
        let golden = "+---+\n| a |\n+---+\n| 1 |\n+---+\nnote: x\n";
        assert_eq!(first_diff("+-----+\n|   a |\n+-----+\n|   1 |\n+-----+\nnote: x\n", golden), None);
        let diff = first_diff("+---+\n| a |\n+---+\n| 1 |\n+---+\nnote: y\n", golden).unwrap();
        assert_eq!(diff, "line 6: golden `note: x`, actual `note: y`");
        assert!(first_diff("+---+\n| a |\n+---+\n| 1 |\n+---+\n", golden).is_some());
    }

    /// The real `exp --check` path, on the experiments quick enough for a
    /// debug-build test run.
    #[test]
    fn check_passes_for_the_quick_experiments() {
        let quick: Vec<_> = ["e6", "e19", "e21", "e22"].map(|id| find(id).unwrap()).into();
        assert_eq!(check(&quick), Ok(()));
    }

    #[test]
    fn every_registry_id_has_a_row_in_both_doc_indices() {
        let docs = [
            ("DESIGN.md", include_str!("../../../DESIGN.md")),
            ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
        ];
        for (name, doc) in docs {
            let indexed: Vec<&str> = doc
                .lines()
                .filter_map(|l| l.strip_prefix("| ")?.split_once(" |"))
                .map(|(id, _)| id)
                .filter(|id| id.strip_prefix('E').is_some_and(|n| n.parse::<u32>().is_ok()))
                .collect();
            let registry: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
            assert_eq!(indexed, registry, "{name}'s index rows must be the registry");
        }
    }

    /// Wall time enters only through `timed`/`measure`: the experiments
    /// never read a clock themselves.
    #[test]
    fn experiments_read_no_clock() {
        assert!(!include_str!("experiments.rs").contains("Instant"));
    }
}
