//! Hand-rolled argument parsing (the approved dependency set has no CLI
//! parser; four subcommands do not justify one).

use mmd_core::{DegradeAction, SolveBudget};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `gen`: generate an instance to JSON.
    Gen {
        /// Family: `workload`, `unit-skew`, `tightness`, `small-streams`,
        /// `hole`, `clustered`, `web`, `web-compact` (web with the
        /// quantized compact instance lanes).
        kind: String,
        /// RNG seed.
        seed: u64,
        /// Streams (families that take it).
        streams: usize,
        /// Users (families that take it).
        users: usize,
        /// Server measures `m`.
        measures: usize,
        /// User measures `m_c`.
        user_measures: usize,
        /// Target skew (target-skew family).
        alpha: f64,
        /// Planted communities (clustered family; streams/users are split
        /// evenly across them).
        clusters: usize,
        /// Output path (`-` = stdout).
        out: String,
    },
    /// `inspect`: print stats, skews, smallness of an instance file.
    Inspect {
        /// Input path.
        input: String,
    },
    /// `solve`: run a solver on an instance file.
    Solve {
        /// Input path.
        input: String,
        /// `pipeline`, `greedy`, `partial-enum`, `online`, `threshold`, or
        /// `exact`.
        algorithm: String,
        /// Disable the residual-fill refinement.
        no_fill: bool,
        /// Use the paper-verbatim output transform.
        faithful: bool,
        /// Threshold margin (threshold algorithm).
        margin: f64,
        /// Worker threads (0 = all cores, 1 = sequential).
        threads: usize,
        /// Target shard size in streams for the sharded pipeline
        /// (0 = solve monolithically; pipeline algorithm only).
        shard_size: usize,
        /// Super-shards for the two-level sharded pipeline (0 or 1 =
        /// single-level; requires --shard-size).
        super_shards: usize,
    },
    /// `ingest`: replay a seeded churn trace through the incremental
    /// ingest engine.
    Ingest {
        /// Input path.
        input: String,
        /// Total updates to generate and apply.
        updates: usize,
        /// Updates per applied batch.
        batch: usize,
        /// Churn trace seed.
        seed: u64,
        /// Churn mix: `low` (drift only) or `mixed` (full update language).
        churn: String,
        /// Target shard size in streams (0 = component granularity).
        shard_size: usize,
        /// Super-shards for the two-level incremental engine (0 or 1 = the
        /// flat, depth-1 partition tree; with K ≥ 2 the leaves are inner
        /// shards of K-way super-shards).
        super_shards: usize,
        /// Worker threads (0 = all cores, 1 = sequential).
        threads: usize,
        /// Differentially verify the final state against a from-scratch
        /// sharded solve.
        verify: bool,
        /// Per-apply solve budget (unlimited unless `--budget-*` given).
        budget: SolveBudget,
    },
    /// `simulate`: run the DES on an instance file.
    Simulate {
        /// Input path.
        input: String,
        /// `online`, `threshold`, or `oracle`.
        policy: String,
        /// Threshold margin.
        margin: f64,
        /// Poisson arrival rate.
        rate: f64,
        /// Mean stream duration.
        duration: f64,
        /// Trace seed.
        seed: u64,
        /// Worker threads for offline planning (0 = all cores).
        threads: usize,
    },
    /// `serve`: run the allocation daemon on an instance file.
    Serve {
        /// Input path.
        input: String,
        /// Listen address (`HOST:PORT`; port 0 = ephemeral).
        addr: String,
        /// Bounded request queue capacity (backpressure beyond it).
        queue: usize,
        /// Maximum updates accepted per `update` frame.
        max_batch: usize,
        /// Target shard size in streams (0 = component granularity).
        shard_size: usize,
        /// Coarse super-shard fan-out for the two-level hierarchy
        /// (0/1 = flat; requires `shard_size`).
        super_shards: usize,
        /// Worker threads for shard re-solves (0 = all cores).
        threads: usize,
        /// Per-apply solve budget (unlimited unless `--budget-*` given).
        budget: SolveBudget,
    },
    /// `client`: send NDJSON frames to a running daemon.
    Client {
        /// Daemon address (`HOST:PORT`).
        addr: String,
        /// One frame to send; when absent, frames are read from stdin.
        send: Option<String>,
    },
    /// `help`: usage text.
    Help,
}

/// Error raised for malformed command lines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl Error for ArgError {}

/// Usage text printed by `help` and on errors.
pub const USAGE: &str = "\
mmd-cli — video distribution under multiple constraints

USAGE:
  mmd-cli gen --kind <workload|unit-skew|tightness|small-streams|hole|clustered|web|web-compact>
              [--seed N] [--streams N] [--users N] [--measures N]
              [--user-measures N] [--alpha X] [--clusters N] [--out FILE]
  mmd-cli inspect --input FILE
  mmd-cli solve --input FILE [--algorithm pipeline|greedy|partial-enum|online|threshold|exact]
              [--no-fill] [--faithful] [--margin X] [--threads N]
              [--shard-size N] [--super-shards N]
  mmd-cli simulate --input FILE [--policy online|threshold|oracle]
              [--margin X] [--rate X] [--duration X] [--seed N] [--threads N]
  mmd-cli ingest --input FILE [--updates N] [--batch N] [--seed N]
              [--churn low|mixed] [--shard-size N] [--super-shards N]
              [--threads N] [--verify] [--budget-ms N] [--budget-soft-ms N]
              [--budget-work N] [--budget-soft-work N]
              [--budget-action shed|widen|defer]
  mmd-cli serve --input FILE [--addr HOST:PORT] [--queue N] [--max-batch N]
              [--shard-size N] [--super-shards N] [--threads N]
              [--budget-ms N] [--budget-soft-ms N] [--budget-work N]
              [--budget-soft-work N] [--budget-action shed|widen|defer]
  mmd-cli client --addr HOST:PORT [--send FRAME]

  --threads N uses N worker threads (0 = all cores); results are
  bit-identical at any thread count.
  --shard-size N solves the pipeline sharded: the instance is split along
  stream-audience connectivity into shards of at most N streams, shards
  are solved concurrently, and the shared budgets are reconciled; the
  report includes the certified optimality gap.
  --super-shards K (with --shard-size) first splits the catalog into K
  coarse super-shards, water-fills the budgets once across them, splits
  each super-shard again into inner shards of at most --shard-size
  streams, and solves every inner shard of every super-shard in one flat
  fan-out: the two-level mode that keeps partition + water-fill
  subquadratic at web scale (10^5-10^6 users). Without it (K = 0 or 1)
  the same partition tree has depth 1: the shards are its leaves.
  ingest generates a seeded churn trace (arrivals/departures, interest
  drift, budget changes) and applies it in batches through the incremental
  ingest engine, which re-solves only the dirty shards; every batch
  refreshes the certified utility <= OPT <= upper-bound bracket. With
  --super-shards K the engine runs the hierarchical two-level partition,
  and memoized inner-shard solutions are reused.
  --verify additionally checks the final state against a from-scratch
  sharded solve of the updated instance (bit-identical by contract).
  --budget-ms / --budget-work cap one apply's wall time / work
  (streams x users re-solved); --budget-soft-* set the soft limits. A
  soft trip skips the remaining dirty-shard re-solves and widens the
  certified gap soundly; a hard trip runs --budget-action: shed (answer
  from the last committed bracket, marked stale; the default), widen
  (commit the widened bracket), or defer (widen and queue a background
  full re-solve). Unset flags leave the engine ungoverned and
  bit-identical to one without budgets. See docs/OPERATIONS.md.
  serve runs the long-lived allocation daemon: newline-delimited JSON over
  TCP (update batches, apply, queries, certified bracket, health/metrics,
  admissions, graceful background re-solve; see docs/PROTOCOL.md). It
  blocks until a {\"op\":\"shutdown\"} frame arrives.
  client sends one frame (--send) or every stdin line to a running daemon
  and prints the response frames.
  mmd-cli help
";

fn flags_to_map(args: &[String]) -> Result<BTreeMap<String, String>, ArgError> {
    let mut map = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = &args[i];
        if let Some(name) = key.strip_prefix("--") {
            if name == "no-fill" || name == "faithful" || name == "verify" {
                map.insert(name.to_string(), "true".to_string());
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| ArgError(format!("missing value for --{name}")))?;
                map.insert(name.to_string(), value.clone());
                i += 2;
            }
        } else {
            return Err(ArgError(format!("unexpected argument: {key}")));
        }
    }
    Ok(map)
}

fn get_num<T: std::str::FromStr>(
    map: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, ArgError> {
    match map.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| ArgError(format!("invalid value for --{key}: {v}"))),
    }
}

fn get_opt_num(map: &BTreeMap<String, String>, key: &str) -> Result<Option<u64>, ArgError> {
    match map.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| ArgError(format!("invalid value for --{key}: {v}"))),
    }
}

fn get_budget(map: &BTreeMap<String, String>) -> Result<SolveBudget, ArgError> {
    let hard_action = match map.get("budget-action").map(String::as_str) {
        None | Some("shed") => DegradeAction::ShedToCache,
        Some("widen") => DegradeAction::WidenGap,
        Some("defer") => DegradeAction::DeferFull,
        Some(other) => {
            return Err(ArgError(format!(
                "invalid value for --budget-action: {other} (expected shed, widen or defer)"
            )))
        }
    };
    Ok(SolveBudget {
        hard_ms: get_opt_num(map, "budget-ms")?,
        soft_ms: get_opt_num(map, "budget-soft-ms")?,
        hard_work: get_opt_num(map, "budget-work")?,
        soft_work: get_opt_num(map, "budget-soft-work")?,
        hard_action,
    })
}

/// Parses a full argument list (without the program name).
///
/// # Errors
///
/// Returns [`ArgError`] with a message suitable for the user.
pub fn parse(args: &[String]) -> Result<Command, ArgError> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "gen" => {
            let map = flags_to_map(rest)?;
            Ok(Command::Gen {
                kind: map
                    .get("kind")
                    .cloned()
                    .unwrap_or_else(|| "workload".into()),
                seed: get_num(&map, "seed", 0u64)?,
                streams: get_num(&map, "streams", 60usize)?,
                users: get_num(&map, "users", 40usize)?,
                measures: get_num(&map, "measures", 2usize)?,
                user_measures: get_num(&map, "user-measures", 1usize)?,
                alpha: get_num(&map, "alpha", 8.0f64)?,
                clusters: get_num(&map, "clusters", 4usize)?,
                out: map.get("out").cloned().unwrap_or_else(|| "-".into()),
            })
        }
        "inspect" => {
            let map = flags_to_map(rest)?;
            let input = map
                .get("input")
                .cloned()
                .ok_or_else(|| ArgError("inspect requires --input FILE".into()))?;
            Ok(Command::Inspect { input })
        }
        "solve" => {
            let map = flags_to_map(rest)?;
            let input = map
                .get("input")
                .cloned()
                .ok_or_else(|| ArgError("solve requires --input FILE".into()))?;
            Ok(Command::Solve {
                input,
                algorithm: map
                    .get("algorithm")
                    .cloned()
                    .unwrap_or_else(|| "pipeline".into()),
                no_fill: map.contains_key("no-fill"),
                faithful: map.contains_key("faithful"),
                margin: get_num(&map, "margin", 1.0f64)?,
                threads: get_num(&map, "threads", 1usize)?,
                shard_size: get_num(&map, "shard-size", 0usize)?,
                super_shards: get_num(&map, "super-shards", 0usize)?,
            })
        }
        "ingest" => {
            let map = flags_to_map(rest)?;
            let input = map
                .get("input")
                .cloned()
                .ok_or_else(|| ArgError("ingest requires --input FILE".into()))?;
            Ok(Command::Ingest {
                input,
                updates: get_num(&map, "updates", 200usize)?,
                batch: get_num(&map, "batch", 16usize)?,
                seed: get_num(&map, "seed", 0u64)?,
                churn: map.get("churn").cloned().unwrap_or_else(|| "mixed".into()),
                shard_size: get_num(&map, "shard-size", 0usize)?,
                super_shards: get_num(&map, "super-shards", 0usize)?,
                threads: get_num(&map, "threads", 1usize)?,
                verify: map.contains_key("verify"),
                budget: get_budget(&map)?,
            })
        }
        "simulate" => {
            let map = flags_to_map(rest)?;
            let input = map
                .get("input")
                .cloned()
                .ok_or_else(|| ArgError("simulate requires --input FILE".into()))?;
            Ok(Command::Simulate {
                input,
                policy: map
                    .get("policy")
                    .cloned()
                    .unwrap_or_else(|| "online".into()),
                margin: get_num(&map, "margin", 0.9f64)?,
                rate: get_num(&map, "rate", 1.0f64)?,
                duration: get_num(&map, "duration", 20.0f64)?,
                seed: get_num(&map, "seed", 0u64)?,
                threads: get_num(&map, "threads", 1usize)?,
            })
        }
        "serve" => {
            let map = flags_to_map(rest)?;
            let input = map
                .get("input")
                .cloned()
                .ok_or_else(|| ArgError("serve requires --input FILE".into()))?;
            Ok(Command::Serve {
                input,
                addr: map
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| "127.0.0.1:7411".into()),
                queue: get_num(&map, "queue", 64usize)?,
                max_batch: get_num(&map, "max-batch", 1024usize)?,
                shard_size: get_num(&map, "shard-size", 0usize)?,
                super_shards: get_num(&map, "super-shards", 0usize)?,
                threads: get_num(&map, "threads", 1usize)?,
                budget: get_budget(&map)?,
            })
        }
        "client" => {
            let map = flags_to_map(rest)?;
            let addr = map
                .get("addr")
                .cloned()
                .ok_or_else(|| ArgError("client requires --addr HOST:PORT".into()))?;
            Ok(Command::Client {
                addr,
                send: map.get("send").cloned(),
            })
        }
        other => Err(ArgError(format!("unknown subcommand: {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_gen_with_defaults() {
        let cmd = parse(&argv("gen --kind unit-skew --seed 7")).unwrap();
        match cmd {
            Command::Gen {
                kind,
                seed,
                streams,
                ..
            } => {
                assert_eq!(kind, "unit-skew");
                assert_eq!(seed, 7);
                assert_eq!(streams, 60);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_solve_flags() {
        let cmd = parse(&argv(
            "solve --input x.json --algorithm online --no-fill --faithful",
        ))
        .unwrap();
        match cmd {
            Command::Solve {
                input,
                algorithm,
                no_fill,
                faithful,
                ..
            } => {
                assert_eq!(input, "x.json");
                assert_eq!(algorithm, "online");
                assert!(no_fill);
                assert!(faithful);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_simulate_numbers() {
        let cmd = parse(&argv(
            "simulate --input x.json --policy threshold --margin 0.8 --rate 2.5",
        ))
        .unwrap();
        match cmd {
            Command::Simulate {
                policy,
                margin,
                rate,
                ..
            } => {
                assert_eq!(policy, "threshold");
                assert_eq!(margin, 0.8);
                assert_eq!(rate, 2.5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_shard_size_and_clusters() {
        match parse(&argv("solve --input x.json --shard-size 64")).unwrap() {
            Command::Solve { shard_size, .. } => assert_eq!(shard_size, 64),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("solve --input x.json")).unwrap() {
            Command::Solve { shard_size, .. } => assert_eq!(shard_size, 0),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("gen --kind clustered --clusters 6")).unwrap() {
            Command::Gen { kind, clusters, .. } => {
                assert_eq!(kind, "clustered");
                assert_eq!(clusters, 6);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_threads_with_sequential_default() {
        match parse(&argv("solve --input x.json --threads 4")).unwrap() {
            Command::Solve { threads, .. } => assert_eq!(threads, 4),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("solve --input x.json")).unwrap() {
            Command::Solve { threads, .. } => assert_eq!(threads, 1),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("simulate --input x.json --threads 0")).unwrap() {
            Command::Simulate { threads, .. } => assert_eq!(threads, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_ingest_flags() {
        let cmd = parse(&argv(
            "ingest --input x.json --updates 500 --batch 25 --churn low --super-shards 4 --verify",
        ))
        .unwrap();
        match cmd {
            Command::Ingest {
                input,
                updates,
                batch,
                churn,
                super_shards,
                verify,
                threads,
                ..
            } => {
                assert_eq!(input, "x.json");
                assert_eq!(updates, 500);
                assert_eq!(batch, 25);
                assert_eq!(churn, "low");
                assert_eq!(super_shards, 4);
                assert!(verify);
                assert_eq!(threads, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("ingest --input x.json")).unwrap() {
            Command::Ingest { super_shards, .. } => assert_eq!(super_shards, 0),
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            parse(&argv("ingest --updates 5")).is_err(),
            "input required"
        );
    }

    #[test]
    fn parses_serve_and_client() {
        let cmd = parse(&argv(
            "serve --input x.json --addr 127.0.0.1:0 --queue 8 --max-batch 32 \
             --shard-size 6 --super-shards 3",
        ))
        .unwrap();
        match cmd {
            Command::Serve {
                input,
                addr,
                queue,
                max_batch,
                shard_size,
                super_shards,
                threads,
                ..
            } => {
                assert_eq!(input, "x.json");
                assert_eq!(addr, "127.0.0.1:0");
                assert_eq!(queue, 8);
                assert_eq!(max_batch, 32);
                assert_eq!(shard_size, 6);
                assert_eq!(super_shards, 3);
                assert_eq!(threads, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("serve --addr 127.0.0.1:0")).is_err());

        match parse(&argv("client --addr localhost:7411")).unwrap() {
            Command::Client { addr, send } => {
                assert_eq!(addr, "localhost:7411");
                assert_eq!(send, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(&[
            "client".to_string(),
            "--addr".to_string(),
            "localhost:7411".to_string(),
            "--send".to_string(),
            r#"{"op":"health"}"#.to_string(),
        ])
        .unwrap();
        match cmd {
            Command::Client { send, .. } => {
                assert_eq!(send.as_deref(), Some(r#"{"op":"health"}"#));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("client")).is_err(), "addr required");
    }

    #[test]
    fn parses_budget_flags() {
        let cmd = parse(&argv(
            "serve --input x.json --budget-ms 200 --budget-soft-ms 50 \
             --budget-work 100000 --budget-soft-work 20000 --budget-action defer",
        ))
        .unwrap();
        match cmd {
            Command::Serve { budget, .. } => {
                assert_eq!(budget.hard_ms, Some(200));
                assert_eq!(budget.soft_ms, Some(50));
                assert_eq!(budget.hard_work, Some(100_000));
                assert_eq!(budget.soft_work, Some(20_000));
                assert_eq!(budget.hard_action, DegradeAction::DeferFull);
                assert!(!budget.is_unlimited());
            }
            other => panic!("unexpected {other:?}"),
        }
        // No budget flags at all parses to the unlimited budget: the
        // engine stays bit-identical to an ungoverned one.
        match parse(&argv("ingest --input x.json")).unwrap() {
            Command::Ingest { budget, .. } => {
                assert!(budget.is_unlimited());
                assert_eq!(budget.hard_action, DegradeAction::ShedToCache);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("ingest --input x.json --budget-action widen")).unwrap() {
            Command::Ingest { budget, .. } => {
                assert_eq!(budget.hard_action, DegradeAction::WidenGap);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("serve --input x.json --budget-action explode")).is_err());
        assert!(parse(&argv("serve --input x.json --budget-ms banana")).is_err());
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(
            parse(&argv("serve --input x --help")).unwrap(),
            Command::Help
        );
    }

    #[test]
    fn rejects_unknown_subcommand() {
        assert!(parse(&argv("frobnicate")).is_err());
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse(&argv("gen --seed")).is_err());
    }

    #[test]
    fn rejects_missing_required_input() {
        assert!(parse(&argv("solve --algorithm greedy")).is_err());
    }

    #[test]
    fn rejects_bad_number() {
        assert!(parse(&argv("gen --seed banana")).is_err());
    }
}
