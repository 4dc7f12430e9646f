//! Subcommand implementations. Each returns its textual output so tests can
//! assert on it.

use crate::args::{Command, USAGE};
use crate::io;
use mmd_core::algo::online::{OnlineAllocator, OnlineConfig};
use mmd_core::algo::reduction::{solve_mmd, MmdConfig};
use mmd_core::algo::shard::{solve_sharded, ShardConfig};
use mmd_core::algo::{self, baselines, Feasibility, PartialEnumConfig};
use mmd_core::ingest::{IngestConfig, IngestEngine};
use mmd_core::skew;
use mmd_core::{Instance, SolveBudget};
use mmd_exact::{solve as exact_solve, ExactConfig, Objective};
use mmd_serve::client::WireClient;
use mmd_serve::service::{ServeConfig, Service};
use mmd_sim::{run as sim_run, PolicyKind, SimConfig};
use mmd_workload::special;
use mmd_workload::{CatalogConfig, PopulationConfig, TraceConfig, WorkloadConfig};
use std::error::Error;
use std::fmt::Write as _;

/// Executes a parsed command, returning its stdout text.
///
/// # Errors
///
/// Returns a boxed error with a user-facing message.
pub fn run(command: Command) -> Result<String, Box<dyn Error>> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Gen {
            kind,
            seed,
            streams,
            users,
            measures,
            user_measures,
            alpha,
            clusters,
            out,
        } => {
            let instance = generate(
                &kind,
                seed,
                streams,
                users,
                measures,
                user_measures,
                alpha,
                clusters,
            )?;
            io::save(&instance, &out)?;
            let summary = format!("wrote {instance}\n");
            if out == "-" {
                // The JSON owns stdout; keep the summary off the pipe so
                // `gen --out - | solve --input -` composes.
                eprint!("{summary}");
                Ok(String::new())
            } else {
                Ok(summary)
            }
        }
        Command::Inspect { input } => {
            let instance = io::load(&input)?;
            Ok(inspect(&instance))
        }
        Command::Solve {
            input,
            algorithm,
            no_fill,
            faithful,
            margin,
            threads,
            shard_size,
            super_shards,
        } => {
            let instance = io::load(&input)?;
            if super_shards > 1 && shard_size == 0 {
                return Err("--super-shards requires --shard-size".into());
            }
            if shard_size > 0 {
                return solve_sharded_cmd(
                    &instance,
                    &algorithm,
                    no_fill,
                    faithful,
                    threads,
                    shard_size,
                    super_shards,
                );
            }
            solve(&instance, &algorithm, no_fill, faithful, margin, threads)
        }
        Command::Simulate {
            input,
            policy,
            margin,
            rate,
            duration,
            seed,
            threads,
        } => {
            let instance = io::load(&input)?;
            simulate(&instance, &policy, margin, rate, duration, seed, threads)
        }
        Command::Ingest {
            input,
            updates,
            batch,
            seed,
            churn,
            shard_size,
            super_shards,
            threads,
            verify,
            budget,
        } => {
            let instance = io::load(&input)?;
            ingest(
                &instance,
                updates,
                batch,
                seed,
                &churn,
                shard_size,
                super_shards,
                threads,
                verify,
                budget,
            )
        }
        Command::Serve {
            input,
            addr,
            queue,
            max_batch,
            shard_size,
            super_shards,
            threads,
            budget,
        } => {
            let instance = io::load(&input)?;
            serve(
                instance,
                &addr,
                queue,
                max_batch,
                shard_size,
                super_shards,
                threads,
                budget,
            )
        }
        Command::Client { addr, send } => client(&addr, send.as_deref()),
    }
}

/// Runs the allocation daemon until a `shutdown` frame arrives; the final
/// serving metrics are the command's output.
#[allow(clippy::too_many_arguments)]
fn serve(
    instance: Instance,
    addr: &str,
    queue: usize,
    max_batch: usize,
    shard_size: usize,
    super_shards: usize,
    threads: usize,
    budget: SolveBudget,
) -> Result<String, Box<dyn Error>> {
    if super_shards > 1 && shard_size == 0 {
        return Err("--super-shards requires --shard-size".into());
    }
    let mut config = ServeConfig {
        queue_capacity: queue.max(1),
        max_batch: max_batch.max(1),
        ..ServeConfig::default()
    };
    config.ingest.shard.max_streams = shard_size;
    config.ingest.shard.super_shards = super_shards;
    config.ingest.shard.threads = threads;
    config.ingest.budget = budget;
    let service = Service::new(instance, config)?;
    let initial = service.certificate();
    let handle = mmd_serve::server::spawn(service, addr)?;
    // Announce on stderr immediately — the summary below only lands after
    // shutdown, and stdout stays clean for scripted pipelines.
    eprintln!(
        "mmd-serve listening on {} (utility {} <= OPT <= {})",
        handle.addr(),
        initial.utility,
        initial.upper_bound
    );
    let service = handle.join();
    let m = service.metrics_snapshot();
    let mut out = String::new();
    writeln!(
        out,
        "served {} requests: {} applies ({} full re-solves), {} updates",
        m.requests, m.applies, m.full_resolves, m.updates_applied
    )?;
    writeln!(
        out,
        "rejected: {} frames, {} updates, {} batches; {} overloaded",
        m.frames_rejected, m.rejected_updates, m.rejected_batches, m.overloaded
    )?;
    writeln!(
        out,
        "final bracket: {} <= OPT <= {} (gap {:.4})",
        m.utility, m.upper_bound, m.gap_fraction
    )?;
    if !budget.is_unlimited() {
        writeln!(
            out,
            "budget: {} soft trips, {} hard trips, {} degraded applies, \
             {} deferred full re-solves (stale gap {:.3})",
            m.budget_soft_trips,
            m.budget_hard_trips,
            m.degraded_applies,
            m.deferred_full_resolves,
            m.stale_gap_fraction
        )?;
    }
    Ok(out)
}

/// Sends one frame (`--send`) or every stdin line to a running daemon and
/// returns the response transcript.
fn client(addr: &str, send: Option<&str>) -> Result<String, Box<dyn Error>> {
    let mut client = WireClient::connect(addr)?;
    let mut out = String::new();
    match send {
        Some(line) => writeln!(out, "{}", client.raw_line(line)?)?,
        None => {
            use std::io::BufRead as _;
            for line in std::io::stdin().lock().lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                writeln!(out, "{}", client.raw_line(&line)?)?;
            }
        }
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn generate(
    kind: &str,
    seed: u64,
    streams: usize,
    users: usize,
    measures: usize,
    user_measures: usize,
    alpha: f64,
    clusters: usize,
) -> Result<Instance, Box<dyn Error>> {
    Ok(match kind {
        "workload" => WorkloadConfig {
            catalog: CatalogConfig {
                streams,
                measures,
                ..CatalogConfig::default()
            },
            population: PopulationConfig {
                users,
                user_measures,
                ..PopulationConfig::default()
            },
            ..WorkloadConfig::default()
        }
        .generate(seed),
        "unit-skew" => special::unit_skew_smd(
            &special::SmdFamilyConfig {
                streams,
                users,
                ..special::SmdFamilyConfig::default()
            },
            seed,
        ),
        "target-skew" => special::target_skew_smd(
            &special::SmdFamilyConfig {
                streams,
                users,
                ..special::SmdFamilyConfig::default()
            },
            alpha,
            seed,
        ),
        "tightness" => special::tightness_instance(measures.max(1), user_measures.max(1)),
        "small-streams" => special::small_streams(streams, users, measures.clamp(1, 4), seed),
        "hole" => special::greedy_hole(),
        "clustered" => {
            let clusters = clusters.max(1);
            mmd_workload::ClusteredConfig::contended(
                clusters,
                (streams / clusters).max(1),
                (users / clusters).max(1),
            )
            .generate(seed)
        }
        "web" => mmd_workload::WebConfig {
            users,
            streams,
            ..mmd_workload::WebConfig::default()
        }
        .generate(seed),
        "web-compact" => mmd_workload::WebConfig {
            users,
            streams,
            ..mmd_workload::WebConfig::default()
        }
        .with_lane_mode(mmd_core::LaneMode::Compact)
        .generate(seed),
        other => return Err(format!("unknown instance kind: {other}").into()),
    })
}

fn inspect(instance: &Instance) -> String {
    let mut out = String::new();
    let stats = instance.stats();
    let _ = writeln!(out, "{instance}");
    let _ = writeln!(out, "input length n = {}", stats.input_length);
    let _ = writeln!(out, "local skew alpha = {:.3}", skew::local_skew(instance));
    match skew::global_skew(instance) {
        Ok(g) => {
            let mu = 2.0 * g.gamma * g.budget_count as f64 + 2.0;
            let _ = writeln!(out, "global skew gamma = {:.3}", g.gamma);
            let _ = writeln!(out, "finite budgets (m + sum m_c) = {}", g.budget_count);
            let _ = writeln!(out, "mu = {:.3}, log2(mu) = {:.3}", mu, mu.log2());
            match OnlineAllocator::new(instance) {
                Ok(a) => {
                    let rep = a.smallness();
                    let _ = writeln!(
                        out,
                        "theorem 1.2 smallness: {} ({} violations)",
                        if rep.ok { "holds" } else { "violated" },
                        rep.violations
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "online normalization failed: {e}");
                }
            }
        }
        Err(e) => {
            let _ = writeln!(out, "global skew: {e}");
        }
    }
    for i in 0..instance.num_measures() {
        let total: f64 = instance.streams().map(|s| instance.cost(s, i)).sum();
        let _ = writeln!(
            out,
            "measure {i}: budget {:.2}, total demand {:.2} ({:.0}% contended)",
            instance.budget(i),
            total,
            100.0 * total / instance.budget(i).max(1e-12)
        );
    }
    out
}

fn solve(
    instance: &Instance,
    algorithm: &str,
    no_fill: bool,
    faithful: bool,
    margin: f64,
    threads: usize,
) -> Result<String, Box<dyn Error>> {
    let (name, assignment): (&str, mmd_core::Assignment) = match algorithm {
        "pipeline" => {
            let cfg = MmdConfig {
                residual_fill: !no_fill,
                faithful_output_transform: faithful,
                ..MmdConfig::default()
            }
            .with_threads(threads);
            ("pipeline (thm 1.1)", solve_mmd(instance, &cfg)?.assignment)
        }
        "greedy" => (
            "fixed greedy (§2.2)",
            algo::solve_smd_unit(instance, Feasibility::Strict)?.assignment,
        ),
        "partial-enum" => (
            "partial enumeration (§2.3)",
            algo::solve_smd_partial_enum(
                instance,
                &PartialEnumConfig {
                    threads,
                    ..PartialEnumConfig::default()
                },
                Feasibility::Strict,
            )?
            .assignment,
        ),
        "online" => {
            let order: Vec<_> = instance.streams().collect();
            (
                "online allocate (§5)",
                OnlineAllocator::run(instance, order, OnlineConfig::default())?.assignment,
            )
        }
        "threshold" => (
            "threshold baseline",
            baselines::threshold_admission(instance, &baselines::id_order(instance), margin),
        ),
        "exact" => (
            "exact (branch & bound)",
            exact_solve(
                instance,
                &ExactConfig {
                    objective: Objective::Feasible,
                    threads,
                    ..ExactConfig::default()
                },
            )?
            .assignment,
        ),
        other => return Err(format!("unknown algorithm: {other}").into()),
    };
    let mut out = String::new();
    let _ = writeln!(out, "algorithm: {name}");
    let _ = writeln!(out, "utility: {:.4}", assignment.utility(instance));
    let _ = writeln!(
        out,
        "streams transmitted: {} / {}",
        assignment.range_len(),
        instance.num_streams()
    );
    let _ = writeln!(out, "assignments: {}", assignment.total_assignments());
    for i in 0..instance.num_measures() {
        let _ = writeln!(
            out,
            "measure {i}: {:.2} of {:.2}",
            assignment.server_cost(i, instance),
            instance.budget(i)
        );
    }
    let feasible = assignment.check_feasible(instance).is_ok();
    let _ = writeln!(out, "feasible: {}", if feasible { "yes" } else { "NO" });
    Ok(out)
}

/// `solve --shard-size N`: the sharded pipeline with its gap certificate.
fn solve_sharded_cmd(
    instance: &Instance,
    algorithm: &str,
    no_fill: bool,
    faithful: bool,
    threads: usize,
    shard_size: usize,
    super_shards: usize,
) -> Result<String, Box<dyn Error>> {
    if algorithm != "pipeline" {
        return Err(
            format!("--shard-size applies to the pipeline algorithm, not {algorithm}").into(),
        );
    }
    let config = ShardConfig {
        max_streams: shard_size,
        threads,
        super_shards,
        mmd: MmdConfig {
            residual_fill: !no_fill,
            faithful_output_transform: faithful,
            ..MmdConfig::default()
        },
        ..ShardConfig::default()
    };
    let out = solve_sharded(instance, &config)?;
    let mut text = String::new();
    if super_shards > 1 {
        let _ = writeln!(
            text,
            "algorithm: two-level sharded pipeline ({super_shards} super-shards)"
        );
    } else {
        let _ = writeln!(text, "algorithm: sharded pipeline (thm 1.1 per shard)");
    }
    let _ = writeln!(text, "utility: {:.4}", out.utility);
    let _ = writeln!(
        text,
        "shards: {} (largest {} streams, target {}, skew {:.2})",
        out.num_shards, out.largest_shard, shard_size, out.skew_ratio
    );
    let _ = writeln!(
        text,
        "cut interests: {} (mass {:.4})",
        out.cut_edges, out.cut_mass
    );
    let _ = writeln!(text, "repaired streams: {}", out.repaired_streams);
    let _ = writeln!(
        text,
        "certified optimum in [{:.4}, {:.4}] (gap {:.2}%)",
        out.utility,
        out.upper_bound,
        100.0 * out.gap_fraction
    );
    let _ = writeln!(
        text,
        "streams transmitted: {} / {}",
        out.assignment.range_len(),
        instance.num_streams()
    );
    for i in 0..instance.num_measures() {
        let _ = writeln!(
            text,
            "measure {i}: {:.2} of {:.2}",
            out.assignment.server_cost(i, instance),
            instance.budget(i)
        );
    }
    let feasible = out.assignment.check_feasible(instance).is_ok();
    let _ = writeln!(text, "feasible: {}", if feasible { "yes" } else { "NO" });
    Ok(text)
}

/// `ingest`: seeded churn replay through the incremental engine.
#[allow(clippy::too_many_arguments)]
fn ingest(
    instance: &Instance,
    updates: usize,
    batch: usize,
    seed: u64,
    churn: &str,
    shard_size: usize,
    super_shards: usize,
    threads: usize,
    verify: bool,
    budget: SolveBudget,
) -> Result<String, Box<dyn Error>> {
    let churn_config = match churn {
        "low" => mmd_workload::ChurnConfig::low(updates),
        "mixed" => mmd_workload::ChurnConfig::mixed(updates),
        other => return Err(format!("unknown churn mix: {other} (low|mixed)").into()),
    };
    if super_shards > 1 && shard_size == 0 {
        return Err("--super-shards requires --shard-size".into());
    }
    let trace = churn_config.generate(instance, seed);
    let config = IngestConfig {
        shard: ShardConfig {
            max_streams: shard_size,
            threads,
            super_shards,
            ..ShardConfig::default()
        },
        budget,
        ..IngestConfig::default()
    };
    let mut engine = IngestEngine::new(instance.clone(), config)?;
    let report = mmd_sim::replay_churn_with(&mut engine, &trace, batch.max(1))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ingest: {churn} churn, {} updates in {} batches",
        report.updates, report.batches
    );
    let _ = writeln!(
        out,
        "utility: {:.4} -> {:.4} (retention {:.3})",
        report.initial_utility, report.final_utility, report.utility_retention
    );
    let final_outcome = report.final_outcome;
    let _ = writeln!(
        out,
        "certified optimum in [{:.4}, {:.4}] (gap {:.2}%, mean {:.2}%)",
        final_outcome.utility,
        final_outcome.upper_bound,
        100.0 * final_outcome.gap_fraction,
        100.0 * report.mean_gap_fraction
    );
    let _ = writeln!(
        out,
        "re-solved shard fraction: {:.3} ({} full re-solves)",
        report.resolved_shard_fraction, report.full_resolves
    );
    if super_shards > 1 {
        let m = engine.metrics();
        let _ = writeln!(
            out,
            "super-shards: {} (dirty-super fraction {:.3}, inner cache {} hits / {} misses)",
            final_outcome.super_shards,
            m.dirty_super_fraction(),
            m.inner_cache_hits,
            m.resolved_shards
        );
    }
    if !budget.is_unlimited() {
        let m = engine.metrics();
        let _ = writeln!(
            out,
            "budget: {} soft trips, {} hard trips, {} degraded applies, \
             {} deferred full re-solves (stale gap {:.3})",
            m.budget_soft_trips,
            m.budget_hard_trips,
            m.degraded_applies,
            m.deferred_full_resolves,
            engine.last_outcome().stale_gap_fraction
        );
    }
    let _ = writeln!(
        out,
        "live streams: {} / {}",
        report.final_live,
        instance.num_streams()
    );
    if verify {
        // A governed replay may have skipped solves and left shards stale;
        // heal them first — the contract verified under a budget is
        // "recovers to scratch equality after a full refresh".
        if !budget.is_unlimited() {
            engine.refresh_full()?;
        }
        // Differential check: the replayed engine's final state against a
        // from-scratch sharded solve of the final instance.
        let scratch = solve_sharded(engine.current_instance(), &config.shard)?;
        let identical = engine.assignment() == &scratch.assignment
            && engine.utility().to_bits() == scratch.utility.to_bits()
            && engine.last_outcome().upper_bound.to_bits() == scratch.upper_bound.to_bits();
        let _ = writeln!(
            out,
            "verify vs from-scratch sharded solve: {}",
            if identical {
                "bit-identical"
            } else {
                "MISMATCH"
            }
        );
        if !identical {
            return Err(format!(
                "ingest state diverged from scratch: {} vs {}",
                engine.utility(),
                scratch.utility
            )
            .into());
        }
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn simulate(
    instance: &Instance,
    policy: &str,
    margin: f64,
    rate: f64,
    duration: f64,
    seed: u64,
    threads: usize,
) -> Result<String, Box<dyn Error>> {
    let kind = match policy {
        "online" => PolicyKind::Online,
        "threshold" => PolicyKind::Threshold { margin },
        "oracle" => PolicyKind::OfflineOracle,
        other => return Err(format!("unknown policy: {other}").into()),
    };
    let trace = TraceConfig {
        arrival_rate: rate,
        mean_duration: duration,
        heavy_tail: false,
    }
    .generate(instance.num_streams(), seed);
    let rep = sim_run(
        instance,
        &trace,
        kind,
        &SimConfig {
            threads,
            ..SimConfig::default()
        },
    );
    let mut out = String::new();
    let _ = writeln!(out, "policy: {}", rep.policy);
    let _ = writeln!(out, "horizon: {:.2}", rep.horizon);
    let _ = writeln!(out, "avg delivered utility: {:.4}", rep.avg_utility);
    let _ = writeln!(
        out,
        "admitted {} / rejected {} / clipped {}",
        rep.admitted, rep.rejected, rep.clipped
    );
    for (i, (&peak, &mean)) in rep
        .peak_utilization
        .iter()
        .zip(&rep.mean_utilization)
        .enumerate()
    {
        let _ = writeln!(out, "measure {i}: peak {:.2}, mean {:.2}", peak, mean);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn tmpfile(name: &str) -> String {
        let dir = std::env::temp_dir().join("mmd-cli-cmd-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_string()
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn gen_inspect_solve_simulate_roundtrip() {
        let path = tmpfile("wk.json");
        let out = run(parse(&argv(&format!(
            "gen --kind workload --seed 3 --streams 20 --users 10 --out {path}"
        )))
        .unwrap())
        .unwrap();
        assert!(out.contains("wrote"));

        let out = run(parse(&argv(&format!("inspect --input {path}"))).unwrap()).unwrap();
        assert!(out.contains("local skew"));
        assert!(out.contains("measure 0"));

        let out = run(parse(&argv(&format!("solve --input {path} --algorithm pipeline"))).unwrap())
            .unwrap();
        assert!(out.contains("feasible: yes"), "{out}");

        let out = run(parse(&argv(&format!(
            "simulate --input {path} --policy threshold --margin 0.8"
        )))
        .unwrap())
        .unwrap();
        assert!(out.contains("policy: threshold"));
    }

    #[test]
    fn gen_all_kinds() {
        for kind in [
            "workload",
            "unit-skew",
            "target-skew",
            "tightness",
            "small-streams",
            "hole",
            "clustered",
            "web",
            "web-compact",
        ] {
            let path = tmpfile(&format!("{kind}.json"));
            let cmd = parse(&argv(&format!(
                "gen --kind {kind} --seed 1 --streams 10 --users 4 --measures 2 --user-measures 1 --out {path}"
            )))
            .unwrap();
            run(cmd).unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }

    #[test]
    fn web_compact_roundtrips_through_two_level_solve() {
        let path = tmpfile("web-compact-2lvl.json");
        run(parse(&argv(&format!(
            "gen --kind web-compact --seed 3 --streams 16 --users 60 --out {path}"
        )))
        .unwrap())
        .unwrap();
        let out = run(parse(&argv(&format!(
            "solve --input {path} --shard-size 4 --super-shards 3 --threads 2"
        )))
        .unwrap())
        .unwrap();
        assert!(
            out.contains("two-level sharded pipeline (3 super-shards)"),
            "{out}"
        );
        assert!(out.contains("certified optimum in ["), "{out}");
        // --super-shards without --shard-size is rejected.
        let err = run(parse(&argv(&format!("solve --input {path} --super-shards 3"))).unwrap())
            .unwrap_err();
        assert!(err.to_string().contains("requires --shard-size"), "{err}");
    }

    #[test]
    fn solve_all_algorithms_on_smd() {
        let path = tmpfile("smd.json");
        run(parse(&argv(&format!(
            "gen --kind unit-skew --seed 2 --streams 10 --users 5 --out {path}"
        )))
        .unwrap())
        .unwrap();
        for alg in [
            "pipeline",
            "greedy",
            "partial-enum",
            "online",
            "threshold",
            "exact",
        ] {
            let out =
                run(parse(&argv(&format!("solve --input {path} --algorithm {alg}"))).unwrap())
                    .unwrap_or_else(|e| panic!("{alg}: {e}"));
            assert!(out.contains("utility:"), "{alg}: {out}");
        }
    }

    #[test]
    fn threads_flag_gives_identical_output() {
        let path = tmpfile("thr.json");
        run(parse(&argv(&format!(
            "gen --kind unit-skew --seed 9 --streams 18 --users 9 --out {path}"
        )))
        .unwrap())
        .unwrap();
        for alg in ["pipeline", "partial-enum", "exact"] {
            let one = run(parse(&argv(&format!(
                "solve --input {path} --algorithm {alg} --threads 1"
            )))
            .unwrap())
            .unwrap();
            let four = run(parse(&argv(&format!(
                "solve --input {path} --algorithm {alg} --threads 4"
            )))
            .unwrap())
            .unwrap();
            if alg == "exact" {
                // The optimum *value* is thread-count independent; between
                // tied optima the witness may differ, so compare the value.
                let utility = |s: &str| {
                    s.lines()
                        .find(|l| l.starts_with("utility:"))
                        .unwrap()
                        .to_string()
                };
                assert_eq!(utility(&one), utility(&four), "{alg} value must match");
            } else {
                assert_eq!(one, four, "{alg} output must not depend on threads");
            }
        }
        let sim = run(parse(&argv(&format!(
            "simulate --input {path} --policy oracle --threads 4"
        )))
        .unwrap())
        .unwrap();
        assert!(sim.contains("policy: offline-oracle"), "{sim}");
    }

    #[test]
    fn sharded_solve_reports_certificate() {
        let path = tmpfile("shard.json");
        run(parse(&argv(&format!(
            "gen --kind clustered --seed 4 --streams 24 --users 12 --clusters 4 --out {path}"
        )))
        .unwrap())
        .unwrap();
        let out = run(parse(&argv(&format!(
            "solve --input {path} --shard-size 6 --threads 2"
        )))
        .unwrap())
        .unwrap();
        assert!(out.contains("sharded pipeline"), "{out}");
        assert!(out.contains("certified optimum in"), "{out}");
        assert!(out.contains("feasible: yes"), "{out}");
        // Identical at any thread count.
        let four = run(parse(&argv(&format!(
            "solve --input {path} --shard-size 6 --threads 4"
        )))
        .unwrap())
        .unwrap();
        assert_eq!(out, four);
        // Sharding a non-pipeline algorithm is rejected.
        assert!(run(parse(&argv(&format!(
            "solve --input {path} --algorithm greedy --shard-size 6"
        )))
        .unwrap())
        .is_err());
    }

    #[test]
    fn ingest_replays_churn_and_verifies() {
        let path = tmpfile("ingest.json");
        run(parse(&argv(&format!(
            "gen --kind clustered --seed 6 --streams 18 --users 9 --clusters 3 --out {path}"
        )))
        .unwrap())
        .unwrap();
        let out = run(parse(&argv(&format!(
            "ingest --input {path} --updates 60 --batch 10 --churn mixed --verify"
        )))
        .unwrap())
        .unwrap();
        assert!(out.contains("certified optimum in"), "{out}");
        assert!(out.contains("re-solved shard fraction"), "{out}");
        assert!(out.contains("bit-identical"), "{out}");
        // Identical at any thread count.
        let two = run(parse(&argv(&format!(
            "ingest --input {path} --updates 60 --batch 10 --churn mixed --threads 2"
        )))
        .unwrap())
        .unwrap();
        let one = run(parse(&argv(&format!(
            "ingest --input {path} --updates 60 --batch 10 --churn mixed --threads 1"
        )))
        .unwrap())
        .unwrap();
        assert_eq!(one, two);
        // Unknown churn mix is rejected.
        assert!(
            run(parse(&argv(&format!("ingest --input {path} --churn wild"))).unwrap()).is_err()
        );
    }

    #[test]
    fn ingest_two_level_reports_super_stats_and_verifies() {
        let path = tmpfile("ingest-2lvl.json");
        run(parse(&argv(&format!(
            "gen --kind clustered --seed 6 --streams 18 --users 9 --clusters 3 --out {path}"
        )))
        .unwrap())
        .unwrap();
        let out = run(parse(&argv(&format!(
            "ingest --input {path} --updates 40 --batch 8 --churn low \
             --shard-size 6 --super-shards 2 --verify"
        )))
        .unwrap())
        .unwrap();
        assert!(out.contains("super-shards:"), "{out}");
        assert!(out.contains("dirty-super fraction"), "{out}");
        assert!(out.contains("bit-identical"), "{out}");
        // --super-shards without --shard-size is rejected, as in solve.
        assert!(
            run(parse(&argv(&format!("ingest --input {path} --super-shards 2"))).unwrap()).is_err()
        );
    }

    #[test]
    fn unknown_algorithm_errors() {
        let path = tmpfile("err.json");
        run(parse(&argv(&format!("gen --kind hole --out {path}"))).unwrap()).unwrap();
        assert!(
            run(parse(&argv(&format!("solve --input {path} --algorithm magic"))).unwrap()).is_err()
        );
    }

    #[test]
    fn client_talks_to_a_live_daemon() {
        let path = tmpfile("client.json");
        run(parse(&argv(&format!(
            "gen --kind clustered --seed 8 --streams 12 --users 6 --clusters 3 --out {path}"
        )))
        .unwrap())
        .unwrap();
        let instance = io::load(&path).unwrap();
        let service = Service::new(instance, ServeConfig::default()).unwrap();
        let handle = mmd_serve::server::spawn(service, "127.0.0.1:0").unwrap();
        let addr = handle.addr();

        let frame = |line: &str| {
            run(Command::Client {
                addr: addr.to_string(),
                send: Some(line.to_string()),
            })
            .unwrap()
        };
        let out = frame(r#"{"op":"health"}"#);
        assert!(out.contains(r#""status":"ok""#), "{out}");
        let out = frame(r#"{"op":"certificate"}"#);
        assert!(out.contains(r#""kind":"certificate""#), "{out}");
        let out = frame(r#"{"op":"update","updates":[{"kind":"depart","stream":0}]}"#);
        assert!(out.contains(r#""kind":"pushed","pending":1"#), "{out}");
        let out = frame(r#"{"op":"apply"}"#);
        assert!(out.contains(r#""updates_applied":1"#), "{out}");
        let out = frame("garbage");
        assert!(out.contains(r#""code":"parse""#), "{out}");
        let out = frame(r#"{"op":"shutdown"}"#);
        assert!(out.contains(r#""kind":"shutdown""#), "{out}");
        handle.join();
        // The daemon is gone: connecting again fails.
        assert!(run(Command::Client {
            addr: addr.to_string(),
            send: Some(r#"{"op":"health"}"#.to_string()),
        })
        .is_err());
    }

    #[test]
    fn help_prints_usage() {
        let out = run(Command::Help).unwrap();
        assert!(out.contains("USAGE"));
    }
}
