//! Differential churn suite: the incremental ingest engine is pinned
//! against from-scratch sharded solves of every updated state.
//!
//! The engine's contract (see `mmd_core::ingest`) is that after any
//! applied batch its committed state is **bit-identical** to
//! `solve_sharded` run from scratch on the updated instance at the same
//! configuration — regardless of churn mix, shard caps, budget contention
//! or thread count. The tests here replay fixed-seed churn traces and
//! check exactly that, batch by batch; the `soak_10k_update_trace` case is
//! the CI `ingest-soak` step's 10k-update long-haul run (ignored by
//! default; run with `--include-ignored`).

use mmd::core::algo::shard::{solve_sharded, ShardConfig};
use mmd::core::ingest::{IngestConfig, IngestEngine, IngestOutcome};
use mmd::core::AsyncIngest;
use mmd::workload::{ChurnConfig, ClusteredConfig};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn config(cap: usize, threads: usize) -> IngestConfig {
    IngestConfig {
        shard: ShardConfig {
            max_streams: cap,
            ..ShardConfig::default()
        }
        .with_threads(threads),
        ..IngestConfig::default()
    }
}

/// Asserts the engine's committed state equals a from-scratch sharded
/// solve of its committed instance, bit for bit.
fn assert_matches_scratch(engine: &IngestEngine, context: &str) {
    let scratch = solve_sharded(engine.current_instance(), &engine.config().shard).unwrap();
    assert_eq!(
        engine.assignment(),
        &scratch.assignment,
        "{context}: assignments diverge"
    );
    assert_eq!(
        engine.utility().to_bits(),
        scratch.utility.to_bits(),
        "{context}: utility not bit-identical ({} vs {})",
        engine.utility(),
        scratch.utility
    );
    assert_eq!(
        engine.last_outcome().upper_bound.to_bits(),
        scratch.upper_bound.to_bits(),
        "{context}: certificate upper bound diverges"
    );
    assert!(
        engine
            .assignment()
            .check_feasible(engine.current_instance())
            .is_ok(),
        "{context}: committed assignment infeasible"
    );
}

#[test]
fn incremental_matches_scratch_on_decomposable_instances() {
    for seed in 0..3u64 {
        let inst = ClusteredConfig::decomposable(6, 5, 4).generate(seed);
        let trace = ChurnConfig::mixed(120).generate(&inst, seed);
        let mut engine = IngestEngine::new(inst, config(0, 1)).unwrap();
        assert_matches_scratch(&engine, &format!("seed {seed} initial"));
        for (b, chunk) in trace.chunks(10).enumerate() {
            for update in chunk {
                engine.push(update.clone()).unwrap();
            }
            engine.apply().unwrap();
            assert_matches_scratch(&engine, &format!("seed {seed} batch {b}"));
        }
    }
}

#[test]
fn incremental_matches_scratch_on_contended_capped_instances() {
    // Connected, contended instances under a shard cap: cut interests,
    // water-filled budget shares, repair and trigger escalations are all
    // exercised — equivalence must still be exact.
    for seed in 0..3u64 {
        let inst = ClusteredConfig::contended(4, 8, 6).generate(seed);
        let trace = ChurnConfig {
            budget_fraction: 0.08,
            ..ChurnConfig::mixed(80)
        }
        .generate(&inst, seed + 50);
        let mut engine = IngestEngine::new(inst, config(8, 1)).unwrap();
        for (b, chunk) in trace.chunks(8).enumerate() {
            for update in chunk {
                engine.push(update.clone()).unwrap();
            }
            let outcome = engine.apply().unwrap();
            assert!(outcome.gap_fraction <= 1.0);
            assert_matches_scratch(&engine, &format!("seed {seed} batch {b}"));
        }
    }
}

#[test]
fn ingest_is_bit_identical_across_thread_counts() {
    let inst = ClusteredConfig::decomposable(8, 5, 4).generate(11);
    let trace = ChurnConfig::mixed(90).generate(&inst, 7);

    let replay = |threads: usize| {
        let mut engine = IngestEngine::new(inst.clone(), config(0, threads)).unwrap();
        let mut outcomes = Vec::new();
        for chunk in trace.chunks(6) {
            for update in chunk {
                engine.push(update.clone()).unwrap();
            }
            outcomes.push(engine.apply().unwrap());
        }
        (engine, outcomes)
    };

    let (base_engine, base_outcomes) = replay(1);
    for threads in THREADS {
        let (engine, outcomes) = replay(threads);
        assert_eq!(
            engine.assignment(),
            base_engine.assignment(),
            "threads {threads}"
        );
        assert_eq!(
            engine.utility().to_bits(),
            base_engine.utility().to_bits(),
            "threads {threads}"
        );
        for (b, (a, o)) in base_outcomes.iter().zip(&outcomes).enumerate() {
            assert_eq!(
                a.utility.to_bits(),
                o.utility.to_bits(),
                "threads {threads} batch {b}"
            );
            assert_eq!(
                a.dirty_shards, o.dirty_shards,
                "threads {threads} batch {b}"
            );
            assert_eq!(
                a.resolved_shards, o.resolved_shards,
                "threads {threads} batch {b}"
            );
        }
    }
    assert_matches_scratch(&base_engine, "thread-invariance final state");
}

/// Replays `trace` through the synchronous `push`/`apply` path, returning
/// every batch outcome and the final engine.
fn replay_sync(
    inst: &mmd::core::Instance,
    trace: &[mmd::core::Update],
    batch: usize,
    cfg: IngestConfig,
) -> (Vec<IngestOutcome>, IngestEngine) {
    let mut engine = IngestEngine::new(inst.clone(), cfg).unwrap();
    let mut outcomes = Vec::new();
    for chunk in trace.chunks(batch) {
        engine.push_batch(chunk.iter().cloned()).unwrap();
        outcomes.push(engine.apply().unwrap());
    }
    (outcomes, engine)
}

/// Replays `trace` through `AsyncIngest::apply_async`, submitting `wave`
/// epochs ahead of the collector (so the solver thread genuinely runs
/// behind a queue), returning every epoch's outcome and the drained
/// engine.
fn replay_async(
    inst: &mmd::core::Instance,
    trace: &[mmd::core::Update],
    batch: usize,
    wave: usize,
    cfg: IngestConfig,
) -> (Vec<IngestOutcome>, IngestEngine) {
    let engine = IngestEngine::new(inst.clone(), cfg).unwrap();
    let ingest = AsyncIngest::new(engine);
    let mut outcomes = Vec::new();
    let chunks: Vec<&[mmd::core::Update]> = trace.chunks(batch).collect();
    for chunk_wave in chunks.chunks(wave.max(1)) {
        let epochs: Vec<u64> = chunk_wave
            .iter()
            .map(|chunk| ingest.apply_async(chunk.to_vec()).unwrap())
            .collect();
        for epoch in epochs {
            outcomes.push(ingest.wait(epoch).unwrap());
        }
    }
    (outcomes, ingest.shutdown())
}

/// Asserts two per-batch outcome sequences carry bit-identical certified
/// brackets (`utility ≤ OPT ≤ upper_bound`) and identical re-solve work.
fn assert_brackets_match(sync: &[IngestOutcome], async_: &[IngestOutcome], context: &str) {
    assert_eq!(sync.len(), async_.len(), "{context}: batch counts diverge");
    for (b, (s, a)) in sync.iter().zip(async_).enumerate() {
        assert_eq!(
            s.utility.to_bits(),
            a.utility.to_bits(),
            "{context} batch {b}: utility diverges ({} vs {})",
            s.utility,
            a.utility
        );
        assert_eq!(
            s.upper_bound.to_bits(),
            a.upper_bound.to_bits(),
            "{context} batch {b}: upper bound diverges"
        );
        assert_eq!(
            s.gap_fraction.to_bits(),
            a.gap_fraction.to_bits(),
            "{context} batch {b}: gap diverges"
        );
        assert_eq!(s.updates_applied, a.updates_applied, "{context} batch {b}");
        assert_eq!(s.dirty_shards, a.dirty_shards, "{context} batch {b}");
        assert_eq!(s.resolved_shards, a.resolved_shards, "{context} batch {b}");
        assert_eq!(s.full_resolve, a.full_resolve, "{context} batch {b}");
    }
}

#[test]
fn async_apply_matches_sync_apply_on_mixed_churn() {
    let inst = ClusteredConfig::decomposable(6, 5, 4).generate(17);
    let trace = ChurnConfig::mixed(120).generate(&inst, 5);
    let cfg = config(0, 2);
    let (sync_outcomes, sync_engine) = replay_sync(&inst, &trace, 6, cfg);
    let (async_outcomes, async_engine) = replay_async(&inst, &trace, 6, 4, cfg);
    assert_brackets_match(&sync_outcomes, &async_outcomes, "mixed-churn");
    assert_eq!(sync_engine.assignment(), async_engine.assignment());
    assert_eq!(
        sync_engine.utility().to_bits(),
        async_engine.utility().to_bits()
    );
    assert_matches_scratch(&async_engine, "async final state");
}

/// The CI soak: a 10k-update fixed-seed mixed-churn trace, verified
/// against from-scratch solves periodically and at the end, at 1 and 8
/// threads. Ignored by default (long-haul); the `ingest-soak` CI step runs
/// it in the release profile with `--include-ignored` on the multi-core
/// runner, where the 8-thread replay is real parallelism.
#[test]
#[ignore = "soak: run explicitly (CI ingest-soak step)"]
fn soak_10k_update_trace() {
    // 16 communities with batches of 8: a mixed-churn batch touches at
    // most half the communities, so the incremental path (not just the
    // full-re-solve escalation) carries most of the 1250 applies.
    let inst = ClusteredConfig::decomposable(16, 8, 6).generate(2024);
    let trace = ChurnConfig {
        budget_fraction: 0.02,
        ..ChurnConfig::mixed(10_000)
    }
    .generate(&inst, 2024);
    let batch = 8usize;

    let mut finals = Vec::new();
    for threads in [1usize, 8] {
        let mut engine = IngestEngine::new(inst.clone(), config(0, threads)).unwrap();
        let mut resolved = 0usize;
        let mut slots = 0usize;
        for (b, chunk) in trace.chunks(batch).enumerate() {
            for update in chunk {
                engine.push(update.clone()).unwrap();
            }
            let outcome = engine.apply().unwrap();
            resolved += outcome.resolved_shards;
            slots += outcome.num_shards;
            // Periodic differential anchor (every 25 batches) plus the
            // final batch.
            if b % 25 == 0 {
                assert_matches_scratch(&engine, &format!("threads {threads} batch {b}"));
            }
        }
        assert_matches_scratch(&engine, &format!("threads {threads} final"));
        assert!(
            resolved < slots,
            "threads {threads}: the soak must exercise the incremental path \
             ({resolved}/{slots} slots re-solved)"
        );
        finals.push((engine.utility(), engine.assignment().clone()));
    }
    let (u1, a1) = &finals[0];
    let (u8, a8) = &finals[1];
    assert_eq!(u1.to_bits(), u8.to_bits(), "soak: 1 vs 8 threads utility");
    assert_eq!(a1, a8, "soak: 1 vs 8 threads assignment");
}

/// The CI soak's asynchronous twin: the same 10k-update trace driven
/// through `AsyncIngest::apply_async` (submitted in deep waves, so the
/// solver thread works behind a real queue) AND through the synchronous
/// `apply`, with every batch's certified `utility ≤ OPT ≤ upper_bound`
/// bracket diffed bit-for-bit between the two paths — then the final
/// committed state anchored against a from-scratch sharded solve.
#[test]
#[ignore = "soak: run explicitly (CI ingest-soak step)"]
fn soak_10k_update_trace_async_matches_sync() {
    let inst = ClusteredConfig::decomposable(16, 8, 6).generate(2024);
    let trace = ChurnConfig {
        budget_fraction: 0.02,
        ..ChurnConfig::mixed(10_000)
    }
    .generate(&inst, 2024);
    let batch = 8usize;
    let cfg = config(0, 8);

    let (sync_outcomes, sync_engine) = replay_sync(&inst, &trace, batch, cfg);
    // Waves of 256 epochs stay inside the async outcome-retention window
    // while keeping the solver's queue genuinely deep.
    let (async_outcomes, async_engine) = replay_async(&inst, &trace, batch, 256, cfg);

    assert_brackets_match(&sync_outcomes, &async_outcomes, "10k soak");
    assert_eq!(
        sync_engine.utility().to_bits(),
        async_engine.utility().to_bits(),
        "10k soak: final utility diverges"
    );
    assert_eq!(
        sync_engine.assignment(),
        async_engine.assignment(),
        "10k soak: final assignment diverges"
    );
    assert_matches_scratch(&async_engine, "10k soak async final state");
}
