//! Cross-commit perf trends: fold a directory of SHA-stamped
//! `BENCH_perf.json` artifacts into one markdown table plus per-cell
//! sparklines ([`trend_report`]).
//!
//! CI keeps one `bench-perf-<sha>` artifact per commit (see
//! `.github/workflows/ci.yml`). The perf job downloads the last few into a
//! scratch directory — one subdirectory per commit — and `perf --trend DIR`
//! renders the headline cells side by side, so the step summary shows the
//! wall-time trajectory across commits, not just the current run against
//! the committed baseline.
//!
//! Only a fixed set of [`HEADLINE_CELLS`] is tabulated: one representative
//! cell per subsystem (solver ladder, sharded path, coverage kernel,
//! ingest, pool dispatch, web solve). Artifacts from commits that predate
//! a cell simply leave the column blank — the table is a union over time,
//! never an error.
//!
//! Both report schemas are read: `mmd-bench-perf/2` cells directly, and
//! the older per-family `mmd-bench-perf/1` sections (still among the CI
//! artifacts the table spans) through [`cells_from_v1`] at the input edge.

use crate::perf::{gated_cell, Cell, REPORT_SCHEMA};
use crate::report::Table;
use serde_json::Value;
use std::path::{Path, PathBuf};

/// Schema tag of the first report format: one JSON section per
/// measurement family instead of one cell list.
pub const REPORT_SCHEMA_V1: &str = "mmd-bench-perf/1";

/// The cells the trend table tracks, as `(rung, algo, column label)`.
/// One headline per subsystem, each its [`gated_cell`] — single-threaded
/// (or fixed-thread) wall times, so the trajectory is comparable across
/// hosts of equal speed.
pub const HEADLINE_CELLS: [(&str, &str, &str); 6] = [
    ("s", "pipeline", "s/pipeline"),
    ("xl", "sharded", "xl/sharded"),
    ("cov-xl", "coverage-soa", "cov-xl/soa"),
    ("ing-low", "ingest-incremental", "ing-low/incr"),
    ("pool-small", "pool-persistent", "pool-small/pool"),
    ("web-100k", "web-solve", "web-100k/solve"),
];

/// One commit's headline numbers: the artifact's label (its SHA-stamped
/// directory or file name) and a wall time per [`HEADLINE_CELLS`] entry
/// (`None` = the artifact predates that cell).
#[derive(Clone, Debug)]
pub struct TrendPoint {
    /// Display label, e.g. the short commit SHA.
    pub label: String,
    /// Wall milliseconds per headline cell, in [`HEADLINE_CELLS`] order.
    pub cells: Vec<Option<f64>>,
}

fn number_at(value: &Value, key: &str) -> Option<f64> {
    match value.get(key) {
        Some(Value::Number(n)) => Some(*n),
        _ => None,
    }
}

fn rows<'v>(report: &'v Value, key: &str) -> &'v [Value] {
    match report.get(key) {
        Some(Value::Array(rows)) => rows,
        _ => &[],
    }
}

/// The paired-family sides of a v1 report, as `(section, wall key,
/// algo)`. Its `results` section already holds one cell per row.
const V1_SIDES: [(&str, &str, &str); 8] = [
    ("coverage_kernel", "scalar_wall_ms", "coverage-scalar"),
    ("coverage_kernel", "soa_wall_ms", "coverage-soa"),
    ("ingest", "incremental_wall_ms", "ingest-incremental"),
    ("ingest", "full_wall_ms", "ingest-full"),
    ("pool", "scoped_wall_ms", "pool-scoped"),
    ("pool", "pool_wall_ms", "pool-persistent"),
    ("web", "gen_wall_ms", "web-gen"),
    ("web", "solve_wall_ms", "web-solve"),
];

/// Converts an [`REPORT_SCHEMA_V1`] report into cells: each `results` row
/// is a cell, and each paired-family row becomes one cell per side, at
/// the row's `threads` (`1` when the row has none). Only keys and wall
/// times carry over — all the trend table reads.
#[must_use]
pub fn cells_from_v1(report: &Value) -> Vec<Cell> {
    let mut cells: Vec<Cell> = rows(report, "results")
        .iter()
        .filter_map(Cell::from_value)
        .collect();
    for (section, wall_key, algo) in V1_SIDES {
        for row in rows(report, section) {
            if let (Some(Value::String(rung)), Some(wall_ms)) =
                (row.get("rung"), number_at(row, wall_key))
            {
                let threads = number_at(row, "threads").map_or(1, |t| t as usize);
                cells.push(Cell::new(rung, algo, threads, wall_ms));
            }
        }
    }
    cells
}

/// The cells of a parsed report — v2 directly, v1 through
/// [`cells_from_v1`] — or `None` when the value is neither.
fn report_cells(report: &Value) -> Option<Vec<Cell>> {
    match report.get("schema") {
        Some(Value::String(s)) if s == REPORT_SCHEMA => Some(
            rows(report, "cells")
                .iter()
                .filter_map(Cell::from_value)
                .collect(),
        ),
        Some(Value::String(s)) if s == REPORT_SCHEMA_V1 => Some(cells_from_v1(report)),
        _ => None,
    }
}

/// Extracts one [`TrendPoint`] from parsed report JSON: each headline's
/// [`gated_cell`] wall time. Returns `None` when the value is not a perf
/// report of either schema.
#[must_use]
pub fn trend_point(label: &str, report: &Value) -> Option<TrendPoint> {
    let cells = report_cells(report)?;
    Some(TrendPoint {
        label: label.to_string(),
        cells: HEADLINE_CELLS
            .iter()
            .map(|&(rung, algo, _)| gated_cell(&cells, rung, algo).map(|c| c.wall_ms))
            .collect(),
    })
}

/// The label an artifact path displays: its parent directory name with the
/// CI artifact prefix stripped (`bench-perf-<sha>/BENCH_perf.json` → the
/// short `<sha>`), else the file stem.
fn label_for(path: &Path) -> String {
    let dir = path
        .parent()
        .and_then(Path::file_name)
        .map(|n| n.to_string_lossy().into_owned());
    let raw = match dir {
        Some(d) if !d.is_empty() && d != "." => d,
        _ => path.file_stem().map_or_else(
            || path.display().to_string(),
            |s| s.to_string_lossy().into_owned(),
        ),
    };
    let raw = raw.strip_prefix("bench-perf-").unwrap_or(&raw).to_string();
    // Full 40-char SHAs read terribly in a table; short ones identify.
    if raw.len() > 9 && raw.chars().all(|c| c.is_ascii_hexdigit()) {
        raw[..9].to_string()
    } else {
        raw
    }
}

/// Collects every `BENCH_perf.json` under `dir` (one directory level deep
/// — the shape `actions/download-artifact` and `gh run download` produce —
/// plus `dir` itself), parses each, and returns the trend points ordered
/// oldest-first by file modification time (ties broken by label, so the
/// order is total).
///
/// Non-report JSON and unreadable files are skipped, not fatal: trend input
/// is best-effort artifact scraping by design.
///
/// # Errors
///
/// Returns `Err` only when `dir` itself cannot be read.
pub fn load_trend_dir(dir: &Path) -> Result<Vec<TrendPoint>, String> {
    load_trend_dir_with_notes(dir).map(|(points, _)| points)
}

/// [`load_trend_dir`], also returning one human-readable note per skipped
/// artifact (unreadable file, malformed JSON, or a JSON value that is not
/// a perf report of either schema). Partial-but-valid reports are *not*
/// skipped — missing sections simply leave their headline cells blank.
/// The driver prints the notes so a corrupt artifact is visible in the CI
/// log instead of silently shrinking the table.
///
/// # Errors
///
/// Returns `Err` only when `dir` itself cannot be read.
pub fn load_trend_dir_with_notes(dir: &Path) -> Result<(Vec<TrendPoint>, Vec<String>), String> {
    let mut files: Vec<PathBuf> = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if let Ok(sub) = std::fs::read_dir(&path) {
                for sub_entry in sub.flatten() {
                    let sub_path = sub_entry.path();
                    if sub_path.file_name().is_some_and(|n| n == "BENCH_perf.json") {
                        files.push(sub_path);
                    }
                }
            }
        } else if path.file_name().is_some_and(|n| n == "BENCH_perf.json") {
            files.push(path);
        }
    }
    let mut dated: Vec<(std::time::SystemTime, String, PathBuf)> = files
        .into_iter()
        .map(|p| {
            let mtime = std::fs::metadata(&p)
                .and_then(|m| m.modified())
                .unwrap_or(std::time::UNIX_EPOCH);
            (mtime, label_for(&p), p)
        })
        .collect();
    dated.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let mut points = Vec::new();
    let mut notes = Vec::new();
    for (_, label, path) in dated {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                notes.push(format!("skipped {label}: unreadable ({e})"));
                continue;
            }
        };
        let value = match serde_json::from_str::<Value>(&text) {
            Ok(value) => value,
            Err(e) => {
                notes.push(format!("skipped {label}: malformed JSON ({e})"));
                continue;
            }
        };
        match trend_point(&label, &value) {
            Some(point) => points.push(point),
            None => notes.push(format!(
                "skipped {label}: not an {REPORT_SCHEMA} or {REPORT_SCHEMA_V1} report"
            )),
        }
    }
    Ok((points, notes))
}

/// Renders the trend table (markdown): one row per commit, one column per
/// headline cell, oldest commit first. An empty input renders a note
/// instead of an empty table.
#[must_use]
pub fn trend_table(points: &[TrendPoint]) -> String {
    if points.is_empty() {
        return "perf trend: no prior BENCH_perf.json artifacts found\n".to_string();
    }
    let mut headers: Vec<&str> = vec!["commit"];
    headers.extend(HEADLINE_CELLS.iter().map(|&(_, _, label)| label));
    let mut t = Table::new(
        "perf trend (wall ms per headline cell, oldest first)".to_string(),
        &headers,
    );
    for point in points {
        let mut row = vec![point.label.clone()];
        row.extend(
            point
                .cells
                .iter()
                .map(|c| c.map_or_else(String::new, |ms| format!("{ms:.1}"))),
        );
        t.row(&row);
    }
    t.to_markdown()
}

/// Block characters for the trend sparkline, lowest to highest.
const SPARK_LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders one column's wall times as a sparkline, oldest first. Each
/// present value scales min→max onto the eight block levels; commits whose
/// artifact predates the cell render as `·`. A flat series (or a single
/// point) renders at the lowest level — only *relative* movement lights up.
#[must_use]
pub fn sparkline(values: &[Option<f64>]) -> String {
    let present: Vec<f64> = values.iter().flatten().copied().collect();
    let (min, max) = present
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let span = max - min;
    values
        .iter()
        .map(|c| match c {
            None => '·',
            Some(v) if span <= 0.0 || !span.is_finite() => {
                let _ = v;
                SPARK_LEVELS[0]
            }
            Some(v) => {
                let t = ((v - min) / span).clamp(0.0, 1.0);
                // Top level only at the max itself: index by floor of t·8,
                // clamped into range.
                let idx = ((t * SPARK_LEVELS.len() as f64) as usize).min(SPARK_LEVELS.len() - 1);
                SPARK_LEVELS[idx]
            }
        })
        .collect()
}

/// The full `perf --trend` report: the cross-commit table plus one
/// sparkline per headline cell (oldest commit on the left), each annotated
/// with its first → last wall time so the glyphs carry absolute scale.
/// Columns with no data at all are omitted from the sparkline block.
#[must_use]
pub fn trend_report(points: &[TrendPoint]) -> String {
    let mut out = trend_table(points);
    if points.is_empty() {
        return out;
    }
    let mut lines = Vec::new();
    let width = HEADLINE_CELLS
        .iter()
        .map(|&(_, _, label)| label.len())
        .max()
        .unwrap_or(0);
    for (i, &(_, _, label)) in HEADLINE_CELLS.iter().enumerate() {
        let column: Vec<Option<f64>> = points.iter().map(|p| p.cells[i]).collect();
        let present: Vec<f64> = column.iter().flatten().copied().collect();
        if present.is_empty() {
            continue;
        }
        let first = present[0];
        let last = present[present.len() - 1];
        lines.push(format!(
            "{label:width$}  {}  {first:.1} → {last:.1} ms",
            sparkline(&column)
        ));
    }
    if !lines.is_empty() {
        out.push_str("\nsparklines (oldest → newest):\n\n```\n");
        for line in &lines {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str("```\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{run_ladder, Ladder};

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmd-trend-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn trend_folds_artifacts_into_a_table() {
        let report = run_ladder(Ladder::Tiny, 2);
        let dir = scratch_dir("fold");
        for (i, sha) in ["0123456789abcdef0123", "fedcba98765432100123"]
            .iter()
            .enumerate()
        {
            let sub = dir.join(format!("bench-perf-{sha}"));
            std::fs::create_dir_all(&sub).unwrap();
            std::fs::write(sub.join("BENCH_perf.json"), report.to_json()).unwrap();
            // Distinct mtimes so the oldest-first order is deterministic.
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
        // Noise is skipped, not fatal.
        std::fs::write(dir.join("BENCH_perf.json"), "{\"schema\": \"other\"}").unwrap();
        let points = load_trend_dir(&dir).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(
            points[0].label, "012345678",
            "short-SHA label, oldest first"
        );
        assert_eq!(points[1].label, "fedcba987");
        // The tiny ladder has no headline rungs except through absence:
        // every cell is a clean blank, never a panic.
        assert_eq!(points[0].cells.len(), HEADLINE_CELLS.len());
        let table = trend_table(&points);
        assert!(table.contains("012345678"), "{table}");
        assert!(table.contains("perf trend"), "{table}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn headline_cells_resolve_on_real_reports() {
        // A synthetic full-shaped report value exercising every lookup arm.
        let json = r#"{
            "schema": "mmd-bench-perf/1",
            "results": [
                {"rung": "s", "algo": "pipeline", "threads": 1, "wall_ms": 12.5},
                {"rung": "s", "algo": "pipeline", "threads": 4, "wall_ms": 4.0},
                {"rung": "xl", "algo": "sharded", "threads": 1, "wall_ms": 80.0}
            ],
            "coverage_kernel": [
                {"rung": "cov-xl", "scalar_wall_ms": 50.0, "soa_wall_ms": 25.0}
            ],
            "ingest": [
                {"rung": "ing-low", "threads": 1, "incremental_wall_ms": 30.0, "full_wall_ms": 90.0}
            ],
            "pool": [
                {"rung": "pool-small", "scoped_wall_ms": 40.0, "pool_wall_ms": 20.0}
            ],
            "web": [
                {"rung": "web-100k", "threads": 1, "gen_wall_ms": 300.0, "solve_wall_ms": 4000.0},
                {"rung": "web-100k", "threads": 4, "gen_wall_ms": 310.0, "solve_wall_ms": 1500.0}
            ]
        }"#;
        let value: Value = serde_json::from_str(json).unwrap();
        let point = trend_point("abc", &value).unwrap();
        let cells: Vec<f64> = point.cells.iter().map(|c| c.unwrap()).collect();
        assert_eq!(cells, vec![12.5, 80.0, 25.0, 30.0, 20.0, 4000.0]);
        let table = trend_table(std::slice::from_ref(&point));
        assert!(table.contains("12.5"), "{table}");
        assert!(table.contains("pool-small/pool"), "{table}");
        assert!(table.contains("web-100k/solve"), "{table}");
        // The same cells as a v2 report resolve identically: each
        // headline is its fewest-threads cell (s/pipeline and the web
        // solve also ran at 4 threads).
        let v2 = Value::Object(vec![
            ("schema".into(), Value::String(REPORT_SCHEMA.into())),
            (
                "cells".into(),
                Value::Array(cells_from_v1(&value).iter().map(Cell::to_value).collect()),
            ),
        ]);
        assert_eq!(trend_point("abc", &v2).unwrap().cells, point.cells);
    }

    #[test]
    fn sparkline_scales_min_to_max_with_gaps() {
        // min→▁, max→█, midpoints in between, missing cells →·.
        let s = sparkline(&[Some(10.0), None, Some(15.0), Some(20.0)]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 4);
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[1], '·');
        assert_eq!(chars[2], '▅');
        assert_eq!(chars[3], '█');
        // Flat and singleton series sit at the lowest level, never panic.
        assert_eq!(sparkline(&[Some(5.0), Some(5.0)]), "▁▁");
        assert_eq!(sparkline(&[Some(5.0)]), "▁");
        assert_eq!(sparkline(&[None, None]), "··");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn trend_report_appends_sparklines_to_the_table() {
        let json = |wall: f64| {
            format!(
                r#"{{"schema": "mmd-bench-perf/1",
                    "results": [{{"rung": "s", "algo": "pipeline", "threads": 1, "wall_ms": {wall}}}]}}"#
            )
        };
        let points: Vec<TrendPoint> = [9.0, 12.0, 18.0]
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let value: Value = serde_json::from_str(&json(w)).unwrap();
                trend_point(&format!("c{i}"), &value).unwrap()
            })
            .collect();
        let report = trend_report(&points);
        assert!(report.contains("perf trend"), "{report}");
        assert!(report.contains("sparklines (oldest → newest)"), "{report}");
        // The s/pipeline line: rising series ends at the top block, and the
        // first → last annotation carries the absolute scale.
        assert!(report.contains("s/pipeline"), "{report}");
        assert!(report.contains('█'), "{report}");
        assert!(report.contains("9.0 → 18.0 ms"), "{report}");
        // Columns with no data stay out of the sparkline block: their
        // label appears once (the table header), never a second time.
        assert_eq!(report.matches("s/pipeline").count(), 2, "{report}");
        assert_eq!(report.matches("pool-small/pool").count(), 1, "{report}");
        // Empty input: just the note, no sparkline block.
        let empty = trend_report(&[]);
        assert!(empty.contains("no prior"), "{empty}");
        assert!(!empty.contains("sparklines"), "{empty}");
    }

    #[test]
    fn non_reports_are_rejected() {
        let value: Value = serde_json::from_str("{\"schema\": \"else\"}").unwrap();
        assert!(trend_point("x", &value).is_none());
        assert!(trend_table(&[]).contains("no prior"));
    }

    #[test]
    fn missing_directory_is_the_only_fatal_case() {
        let dir = scratch_dir("gone");
        std::fs::remove_dir_all(&dir).unwrap();
        let err = load_trend_dir_with_notes(&dir).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        // An empty-but-present directory is fine: no points, no notes.
        let dir = scratch_dir("empty");
        let (points, notes) = load_trend_dir_with_notes(&dir).unwrap();
        assert!(points.is_empty() && notes.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_foreign_artifacts_skip_with_a_note() {
        let dir = scratch_dir("corrupt");
        let good = run_ladder(Ladder::Tiny, 2);
        let a = dir.join("bench-perf-aaaaaaaaa111111111");
        let b = dir.join("bench-perf-bbbbbbbbb222222222");
        let c = dir.join("bench-perf-ccccccccc333333333");
        for sub in [&a, &b, &c] {
            std::fs::create_dir_all(sub).unwrap();
        }
        std::fs::write(a.join("BENCH_perf.json"), good.to_json()).unwrap();
        std::fs::write(b.join("BENCH_perf.json"), "{\"schema\": \"mmd-bench").unwrap();
        std::fs::write(c.join("BENCH_perf.json"), "{\"schema\": \"foreign/9\"}").unwrap();
        let (points, notes) = load_trend_dir_with_notes(&dir).unwrap();
        assert_eq!(points.len(), 1, "only the valid report folds in");
        assert_eq!(points[0].label, "aaaaaaaaa");
        assert_eq!(notes.len(), 2, "{notes:?}");
        assert!(
            notes
                .iter()
                .any(|n| n.contains("bbbbbbbbb") && n.contains("malformed JSON")),
            "{notes:?}"
        );
        assert!(
            notes
                .iter()
                .any(|n| n.contains("ccccccccc") && n.contains("not an")),
            "{notes:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_reports_leave_blank_cells_without_a_note() {
        // Valid schema, but only one of the sections the headline cells
        // read: the missing subsystems must render as blanks, never skip
        // the artifact or note anything.
        let dir = scratch_dir("partial");
        let sub = dir.join("bench-perf-ddddddddd444444444");
        std::fs::create_dir_all(&sub).unwrap();
        let partial = r#"{
            "schema": "mmd-bench-perf/1",
            "results": [
                {"rung": "s", "algo": "pipeline", "threads": 1, "wall_ms": 9.0}
            ]
        }"#;
        std::fs::write(sub.join("BENCH_perf.json"), partial).unwrap();
        let (points, notes) = load_trend_dir_with_notes(&dir).unwrap();
        assert!(notes.is_empty(), "{notes:?}");
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].cells[0], Some(9.0));
        assert!(points[0].cells[1..].iter().all(Option::is_none));
        let table = trend_table(&points);
        assert!(table.contains("9.0"), "{table}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
