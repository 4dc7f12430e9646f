//! `perf` — the machine-readable performance harness.
//!
//! Runs the standardized instance-size ladder through the production
//! solvers at 1 and `--threads` workers and writes `BENCH_perf.json`
//! (see [`mmd_bench::perf`] for the schema). With `--baseline` it also
//! enforces the CI regression gate; with `--write-baseline` it refreshes
//! the committed baseline from this run.
//!
//! ```text
//! perf [--ladder small|full|tiny] [--threads N] [--out BENCH_perf.json]
//!      [--baseline bench/baseline.json] [--tolerance 0.30]
//!      [--write-baseline bench/baseline.json] [--summary FILE]
//! perf --web RUNG [--threads N] [--baseline ...] [--out ...]
//! perf --trend DIR [--summary FILE]
//! ```
//!
//! `--summary FILE` additionally writes the human-readable ladder table as
//! markdown — the file CI appends to the GitHub Actions step summary so
//! the per-commit perf trajectory is readable without downloading
//! artifacts.
//!
//! `--web RUNG` is the web-smoke mode: instead of the ladder, only the
//! named web rung (e.g. `web-100k`) runs — compact-lane generation plus
//! the two-level sharded solve at 1 vs `--threads` workers, with the
//! in-harness bytes/user gate — and the report carries just those cells
//! plus calibration. Against `--baseline` this gates the `web-*` wall
//! times and nothing else (rungs the run did not measure are skipped).
//! It cannot write a baseline: `--web` with `--write-baseline` is a usage
//! error.
//!
//! `--trend DIR` is a separate fast mode: no ladder runs. The directory is
//! scanned for SHA-stamped `BENCH_perf.json` artifacts (one subdirectory
//! per commit, the shape artifact downloads produce) and the cross-commit
//! headline table ([`mmd_bench::trend`]) is printed to stdout — and to
//! `--summary FILE` when given.
//!
//! Exit codes: 0 ok, 1 regression against the baseline (or a baseline
//! cell missing from a rung this run measured), 2 usage error (including
//! a non-finite `--tolerance`).

use mmd_bench::outfile::ExpArgs;
use mmd_bench::perf::{
    check_baseline, run_ladder, run_web_only, web_rung_by_name, Ladder, PerfReport,
};
use mmd_bench::trend::{load_trend_dir_with_notes, trend_report};
use serde_json::Value;

fn fail_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let args = ExpArgs::from_env_also_allowing(&[
        "ladder",
        "baseline",
        "write-baseline",
        "tolerance",
        "summary",
        "trend",
        "web",
    ]);
    if let Some(dir) = args.get("trend") {
        let (points, notes) = match load_trend_dir_with_notes(std::path::Path::new(dir)) {
            Ok(loaded) => loaded,
            Err(e) => fail_usage(&e),
        };
        for note in &notes {
            eprintln!("perf trend: {note}");
        }
        let table = trend_report(&points);
        print!("{table}");
        if let Some(path) = args.get("summary") {
            if let Err(e) = std::fs::write(path, &table) {
                fail_usage(&format!("cannot write {path}: {e}"));
            }
            eprintln!("wrote summary {path}");
        }
        return;
    }
    // 0 = all cores; the ladder itself raises the floor to 2 so the
    // speedup column exists even on a single-core host.
    let threads = args.threads();
    let tolerance = match args.get("tolerance").map(str::parse::<f64>) {
        None => None,
        Some(Ok(t)) if t.is_finite() => Some(t),
        Some(_) => fail_usage("--tolerance takes a finite number"),
    };
    if args.get("web").is_some() && args.get("write-baseline").is_some() {
        // A web-only run measures only web cells: its baseline would drop
        // every other entry.
        fail_usage("--write-baseline needs a ladder run; it cannot be combined with --web");
    }

    let report: PerfReport = if let Some(name) = args.get("web") {
        let Some(rung) = web_rung_by_name(name) else {
            fail_usage(&format!("unknown web rung: {name} (e.g. web-100k)"));
        };
        eprintln!(
            "perf: running web rung {name} ({} users) at 1 vs {} threads",
            rung.users,
            mmd_par::resolve(threads).max(2)
        );
        run_web_only(&rung, threads)
    } else {
        let ladder = match Ladder::parse(args.get("ladder").unwrap_or("full")) {
            Ok(l) => l,
            Err(e) => fail_usage(&e),
        };
        eprintln!("perf: running {ladder:?} ladder at 1 vs {} threads", {
            mmd_par::resolve(threads).max(2)
        });
        run_ladder(ladder, threads)
    };
    eprint!("{}", report.to_table());

    let out = args.get("out").unwrap_or("BENCH_perf.json");
    if out == "-" {
        print!("{}", report.to_json());
    } else if let Err(e) = std::fs::write(out, report.to_json()) {
        fail_usage(&format!("cannot write {out}: {e}"));
    } else {
        eprintln!("wrote {out}");
    }

    if let Some(path) = args.get("summary") {
        if let Err(e) = std::fs::write(path, report.to_table()) {
            fail_usage(&format!("cannot write {path}: {e}"));
        }
        eprintln!("wrote summary {path}");
    }

    if let Some(path) = args.get("write-baseline") {
        let mut text = serde_json::to_string_pretty(&report.to_baseline())
            .expect("baselines contain only finite numbers");
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            fail_usage(&format!("cannot write {path}: {e}"));
        }
        eprintln!("wrote baseline {path}");
    }

    if let Some(path) = args.get("baseline") {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => fail_usage(&format!("cannot read baseline {path}: {e}")),
        };
        let baseline: Value = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => fail_usage(&format!("malformed baseline {path}: {e}")),
        };
        match check_baseline(&report, &baseline, tolerance) {
            Ok(log) => {
                for line in log {
                    eprintln!("perf gate: {line}");
                }
                eprintln!("perf gate: PASS");
            }
            Err(regressions) => {
                for line in regressions {
                    eprintln!("perf gate: {line}");
                }
                eprintln!("perf gate: FAIL");
                std::process::exit(1);
            }
        }
    }
}
