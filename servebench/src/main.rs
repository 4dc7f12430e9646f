//! `servebench`: the serving benchmark for `mmd-serve`.
//!
//! ```text
//! servebench --workload <web-drift|clustered-churn|frontdoor> --seed <n>
//!            --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the daemon up at least three times (reporting the
//! median set-up time), drives it for `--seconds` with one closed-loop writer and one
//! open-loop reader, runs the correctness gate, and prints the end-to-end
//! metrics. `--trace 1` runs the traced invocation (see [`layers`]) and
//! prints the per-layer metrics; its span file and report go to `out/`
//! next to this package's manifest. The last line of standard output is
//! always the JSON result; a failed gate exits non-zero without one.

mod layers;
mod metrics;
mod session;
mod stats;
mod trace;
mod workload;

use crate::stats::{median, tail};
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Set-ups per untraced run, `setup_s` being their median: at least
/// [`SETUP_MIN`], then more while their total stays under
/// [`SETUP_BUDGET_S`], up to [`SETUP_MAX`]. Small workloads set up in
/// milliseconds and need the extra samples to be steady.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 15;
const SETUP_BUDGET_S: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The untraced run: end-to-end metrics only.
fn run_untraced(args: &Args) -> Result<String, String> {
    let mut setups = Vec::new();
    let daemon = loop {
        let (daemon, setup_s) = session::setup(args.workload, args.seed)?;
        setups.push(setup_s);
        let spent: f64 = setups.iter().sum();
        if setups.len() >= SETUP_MIN && (spent >= SETUP_BUDGET_S || setups.len() >= SETUP_MAX) {
            break daemon;
        }
        session::discard(daemon);
    };
    let window = Duration::from_secs(args.seconds);
    let (s, service) = session::run(args.workload, args.seed, daemon, window, false)?;
    session::gate(service, s.final_certificate)?;

    let commit = tail(&s.commit_ms);
    let push = tail(&s.push_us);
    let read_us: Vec<f64> = s.reads.iter().map(|r| r.latency() * 1e6).collect();
    let read = tail(&read_us);
    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    v.insert("setup_s", median(&setups));
    v.insert("commit_p50_ms", median(&s.commit_ms));
    v.insert("commit_tail_ms", commit.value);
    v.insert("updates_per_s", s.updates_committed as f64 / s.writer_s);
    v.insert("push_p50_us", median(&s.push_us));
    v.insert("push_tail_us", push.value);
    v.insert("read_p50_us", median(&read_us));
    v.insert("read_tail_us", read.value);
    v.insert("requests_per_s", s.answered as f64 / s.elapsed_s);
    v.insert("gap_fraction", s.initial_certificate.2);
    v.insert("certified_utility", s.initial_certificate.0);
    v.insert("peak_rss_mb", s.peak_rss_mb);
    for (name, t) in [
        ("commit_tail_ms", commit),
        ("push_tail_us", push),
        ("read_tail_us", read),
    ] {
        println!("{name} is {}", t.describe());
    }
    let (utility, upper_bound) = s.final_certificate;
    println!(
        "setup_s is the median of {} set-ups ({:.4}..{:.4} s); {} batches ({} updates) \
         committed in {:.2} s; \
         final certificate utility {utility} upper_bound {upper_bound} passed the \
         correctness gate; error_rate {}/{}",
        setups.len(),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max),
        s.outcomes.len(),
        s.updates_committed,
        s.writer_s,
        s.failed,
        s.attempted
    );
    Ok(metrics::result_line(
        metrics::END_TO_END,
        &v,
        s.attempted,
        s.failed,
    ))
}

/// The traced run: per-layer metrics, plus the span file and report.
fn run_traced(args: &Args) -> Result<String, String> {
    let window = Duration::from_secs(args.seconds);
    let traced = layers::run(args.workload, args.seed, window)?;
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let spans_path = dir.join(format!("{stem}.spans.jsonl"));
    let report_path = dir.join(format!("{stem}.report.txt"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&spans_path, &traced.spans_jsonl))
        .and_then(|()| std::fs::write(&report_path, &traced.report))
        .map_err(|e| format!("writing {}: {e}", dir.display()))?;
    print!("{}", traced.report);
    println!(
        "spans: {}\nreport: {}",
        spans_path.display(),
        report_path.display()
    );
    Ok(metrics::result_line(
        metrics::PER_LAYER,
        &traced.values,
        traced.attempted,
        traced.failed,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "servebench: {e}\nusage: servebench --workload <name> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
