//! `mmd-serve` — the allocation daemon binary.
//!
//! Loads an instance file, solves it, and serves the NDJSON wire protocol
//! (`docs/PROTOCOL.md`) over TCP until a `shutdown` frame arrives.

use mmd_core::{DegradeAction, Instance};
use mmd_serve::service::{ServeConfig, Service};
use std::error::Error;
use std::process::ExitCode;

const USAGE: &str = "\
mmd-serve — long-lived allocation daemon (NDJSON over TCP)

USAGE:
  mmd-serve --input FILE [--addr HOST:PORT] [--queue N] [--max-batch N]
            [--shard-size N] [--threads N]
            [--budget-ms N] [--budget-soft-ms N]
            [--budget-work N] [--budget-soft-work N] [--budget-action A]

  --input FILE      instance JSON (`-` = stdin); solved fully at startup
  --addr HOST:PORT  listen address (default 127.0.0.1:7411; port 0 = ephemeral)
  --queue N         bounded request queue capacity (default 64); a full
                    queue answers `overloaded` error frames (backpressure)
  --max-batch N     max updates per `update` frame (default 1024)
  --shard-size N    target shard size in streams (0 = component granularity)
  --threads N       worker threads for shard re-solves (0 = all cores)
  --budget-ms N         hard wall limit per apply in milliseconds
  --budget-soft-ms N    soft wall limit per apply in milliseconds
  --budget-work N       hard work limit per apply (streams x users re-solved)
  --budget-soft-work N  soft work limit per apply
  --budget-action A     hard-trip action: shed (default) | widen | defer

A soft trip skips the remaining dirty-shard re-solves and widens the
certified gap (reported as `stale_gap_fraction` in `metrics`); a hard
trip runs --budget-action. See docs/OPERATIONS.md for tuning guidance.

The wire protocol is specified in docs/PROTOCOL.md. Talk to a running
daemon with `mmd-cli client --addr HOST:PORT` or any line-oriented TCP
tool.
";

struct Args {
    input: String,
    addr: String,
    config: ServeConfig,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut input = None;
    let mut addr = "127.0.0.1:7411".to_string();
    let mut config = ServeConfig::default();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].as_str();
        if key == "--help" || key == "-h" || key == "help" {
            return Err(String::new());
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {key}"))?;
        let num = |what: &str| -> Result<usize, String> {
            value
                .parse()
                .map_err(|_| format!("invalid value for {what}: {value}"))
        };
        match key {
            "--input" => input = Some(value.clone()),
            "--addr" => addr = value.clone(),
            "--queue" => config.queue_capacity = num(key)?.max(1),
            "--max-batch" => config.max_batch = num(key)?.max(1),
            "--shard-size" => config.ingest.shard.max_streams = num(key)?,
            "--threads" => config.ingest.shard.threads = num(key)?,
            "--budget-ms" => config.ingest.budget.hard_ms = Some(num(key)? as u64),
            "--budget-soft-ms" => config.ingest.budget.soft_ms = Some(num(key)? as u64),
            "--budget-work" => config.ingest.budget.hard_work = Some(num(key)? as u64),
            "--budget-soft-work" => config.ingest.budget.soft_work = Some(num(key)? as u64),
            "--budget-action" => {
                config.ingest.budget.hard_action = parse_degrade_action(value)?;
            }
            other => return Err(format!("unexpected argument: {other}")),
        }
        i += 2;
    }
    Ok(Args {
        input: input.ok_or("mmd-serve requires --input FILE")?,
        addr,
        config,
    })
}

fn parse_degrade_action(value: &str) -> Result<DegradeAction, String> {
    match value {
        "shed" => Ok(DegradeAction::ShedToCache),
        "widen" => Ok(DegradeAction::WidenGap),
        "defer" => Ok(DegradeAction::DeferFull),
        other => Err(format!(
            "invalid value for --budget-action: {other} (expected shed, widen or defer)"
        )),
    }
}

fn load_instance(path: &str) -> Result<Instance, Box<dyn Error>> {
    let json = if path == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf)?;
        buf
    } else {
        std::fs::read_to_string(path)?
    };
    // Deserialization bypasses the builder; re-check the model assumptions.
    let instance: Instance = serde_json::from_str(&json)?;
    instance.validate()?;
    Ok(instance)
}

fn run(args: &Args) -> Result<(), Box<dyn Error>> {
    let instance = load_instance(&args.input)?;
    let service = Service::new(instance, args.config)?;
    let initial = service.certificate();
    let handle = mmd_serve::server::spawn(service, &args.addr)?;
    println!(
        "mmd-serve listening on {} (utility {} <= OPT <= {})",
        handle.addr(),
        initial.utility,
        initial.upper_bound
    );
    handle.join();
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(args) => match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) if e.is_empty() => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
