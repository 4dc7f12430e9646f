//! Degrade-path suite for the solve-cost governance layer
//! (`mmd_core::govern`).
//!
//! Two contracts are pinned here. **Ungoverned equivalence:** with no
//! budget configured — and with limits too large to trip — the governed
//! engine's outcomes are bit-identical to the historical engine, apply by
//! apply. **Sound degradation:** when a budget trips, the committed
//! bracket still satisfies `utility ≤ OPT ≤ upper_bound` (cross-checked
//! against `mmd-exact` on tiny instances), the assignment stays feasible,
//! and a full refresh heals the engine back to exact scratch equality.
//!
//! All trips are forced deterministically with *work* budgets (`Some(0)`
//! trips before any solve) — wall budgets are machine-dependent.

use mmd::core::algo::shard::{solve_sharded, ShardConfig};
use mmd::core::govern::{DegradeAction, SolveBudget};
use mmd::core::ingest::{IngestConfig, IngestEngine};
use mmd::exact::{solve as exact_solve, ExactConfig, Objective};
use mmd::workload::{ChurnConfig, ClusteredConfig};

fn config(cap: usize, super_shards: usize, budget: SolveBudget) -> IngestConfig {
    IngestConfig {
        shard: ShardConfig {
            max_streams: cap,
            super_shards,
            ..ShardConfig::default()
        },
        budget,
        ..IngestConfig::default()
    }
}

/// Replays `trace` in `batch`-sized chunks, returning every apply outcome.
fn replay(
    engine: &mut IngestEngine,
    trace: &[mmd::core::ingest::Update],
    batch: usize,
) -> Vec<mmd::core::IngestOutcome> {
    let mut outcomes = Vec::new();
    for chunk in trace.chunks(batch) {
        for update in chunk {
            engine.push(update.clone()).unwrap();
        }
        outcomes.push(engine.apply().unwrap());
    }
    outcomes
}

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
        "{context}: utility not bit-identical"
    );
    assert_eq!(
        engine.last_outcome().upper_bound.to_bits(),
        scratch.upper_bound.to_bits(),
        "{context}: upper bound diverges"
    );
}

/// Limits far beyond any real apply must leave the governed code path
/// bit-identical to the ungoverned engine — outcome by outcome, across
/// single- and two-level sharding.
#[test]
fn unconstrained_and_huge_budgets_are_bit_identical_to_ungoverned() {
    let huge = SolveBudget::default()
        .with_soft_work(u64::MAX / 4)
        .with_hard_work(u64::MAX / 2)
        .with_hard_action(DegradeAction::WidenGap);
    for (cap, supers) in [(0usize, 0usize), (5, 0), (5, 2)] {
        let inst = ClusteredConfig::decomposable(6, 5, 4).generate(3);
        let trace = ChurnConfig::mixed(90).generate(&inst, 17);

        let mut plain =
            IngestEngine::new(inst.clone(), config(cap, supers, SolveBudget::unlimited())).unwrap();
        let base = replay(&mut plain, &trace, 9);

        let mut governed = IngestEngine::new(inst, config(cap, supers, huge)).unwrap();
        let got = replay(&mut governed, &trace, 9);

        assert_eq!(base.len(), got.len());
        for (i, (a, b)) in base.iter().zip(&got).enumerate() {
            assert_eq!(
                a.utility.to_bits(),
                b.utility.to_bits(),
                "cap {cap} supers {supers} batch {i}: governed utility drifted"
            );
            assert_eq!(
                a.upper_bound.to_bits(),
                b.upper_bound.to_bits(),
                "cap {cap} supers {supers} batch {i}: governed bound drifted"
            );
            assert!(!b.degraded && !b.soft_tripped && !b.hard_tripped);
            assert_eq!(b.skipped_shards, 0);
            assert_eq!(b.stale_gap_fraction, 0.0);
        }
        assert_eq!(plain.assignment(), governed.assignment());
        let m = governed.metrics();
        assert_eq!(m.budget_soft_trips, 0);
        assert_eq!(m.budget_hard_trips, 0);
        assert_eq!(m.degraded_applies, 0);
        assert_eq!(m.deferred_full_resolves, 0);
        assert_matches_scratch(&governed, "huge budget final state");
    }
}

/// The shard levels every degrade-path test runs at: flat, and two-level
/// with a cap small enough that every super-shard holds several inner
/// shards. Both levels share one governed solve loop.
const LEVELS: [(usize, usize); 2] = [(3, 0), (3, 2)];

/// A hard trip under `WidenGap` skips every dirty-shard solve, yet the
/// committed bracket must still bound the true optimum of the *updated*
/// instance — verified against `mmd-exact` — and the merged assignment
/// must stay feasible.
#[test]
fn hard_trip_widen_gap_brackets_stay_certified_versus_exact() {
    let exact_cfg = ExactConfig {
        objective: Objective::Feasible,
        max_user_degree: 30,
        ..ExactConfig::default()
    };
    let zero = SolveBudget::default()
        .with_hard_work(0)
        .with_hard_action(DegradeAction::WidenGap);
    for (cap, supers) in LEVELS {
        for seed in 0..3u64 {
            let inst = ClusteredConfig::contended(3, 4, 3).generate(seed);
            let trace = ChurnConfig::mixed(40).generate(&inst, seed + 5);
            let mut engine = IngestEngine::new(inst, config(cap, supers, zero)).unwrap();
            let mut tripped = 0usize;
            for (b, chunk) in trace.chunks(8).enumerate() {
                for update in chunk {
                    engine.push(update.clone()).unwrap();
                }
                let outcome = engine.apply().unwrap();
                let context = format!("supers {supers} seed {seed} batch {b}");
                assert!(
                    outcome.utility <= outcome.upper_bound + 1e-9,
                    "{context}: bracket inverted"
                );
                assert!(
                    engine
                        .assignment()
                        .check_feasible(engine.current_instance())
                        .is_ok(),
                    "{context}: degraded assignment infeasible"
                );
                if outcome.skipped_shards > 0 {
                    tripped += 1;
                    assert!(outcome.degraded && outcome.hard_tripped, "{context}");
                    assert!(
                        outcome.stale_gap_fraction > 0.0 && outcome.stale_gap_fraction <= 1.0,
                        "{context}: stale gap {}",
                        outcome.stale_gap_fraction
                    );
                }
                // The certificate must hold against the true optimum of the
                // committed (updated) instance even while degraded.
                let opt = exact_solve(engine.current_instance(), &exact_cfg)
                    .unwrap()
                    .value;
                assert!(
                    outcome.utility <= opt + 1e-9 && opt <= outcome.upper_bound + 1e-9,
                    "{context}: {} ≤ {opt} ≤ {} violated",
                    outcome.utility,
                    outcome.upper_bound
                );
            }
            assert!(
                tripped > 0,
                "supers {supers} seed {seed}: the zero budget never tripped"
            );
            let m = engine.metrics();
            assert_eq!(m.budget_hard_trips as usize, tripped);
            assert_eq!(m.degraded_applies as usize, tripped);
            // Maintenance heals every stale shard: back to exact scratch
            // equality, and the healed bracket reports nothing stale.
            engine.refresh_full().unwrap();
            assert_matches_scratch(
                &engine,
                &format!("supers {supers} seed {seed} after refresh"),
            );
            assert_eq!(engine.last_outcome().stale_gap_fraction, 0.0);
            assert!(!engine.last_outcome().degraded);
        }
    }
}

/// `ShedToCache` (the default hard action) abandons the apply: committed
/// state untouched, pending retained, outcome marked fully stale.
#[test]
fn shed_to_cache_keeps_serving_the_last_committed_bracket() {
    let zero = SolveBudget::default().with_hard_work(0); // default action: shed
    for (cap, supers) in LEVELS {
        let inst = ClusteredConfig::decomposable(4, 5, 3).generate(9);
        let trace = ChurnConfig::mixed(12).generate(&inst, 2);
        let mut engine = IngestEngine::new(inst, config(cap, supers, zero)).unwrap();
        let before_utility = engine.utility();
        let before_assignment = engine.assignment().clone();
        let before_applies = engine.metrics().applies;

        for update in &trace {
            engine.push(update.clone()).unwrap();
        }
        let pending = engine.pending().len();
        assert!(pending > 0);
        let outcome = engine.apply().unwrap();

        // Not an error — but nothing committed either.
        assert!(
            outcome.stale && outcome.degraded && outcome.hard_tripped,
            "supers {supers}"
        );
        assert_eq!(outcome.stale_gap_fraction, 1.0);
        assert_eq!(outcome.updates_applied, 0);
        assert_eq!(outcome.utility.to_bits(), before_utility.to_bits());
        assert_eq!(engine.assignment(), &before_assignment);
        assert_eq!(
            engine.pending().len(),
            pending,
            "supers {supers}: shed must retain the batch for a retry"
        );
        let m = engine.metrics();
        assert_eq!(m.applies, before_applies, "a shed apply is not an apply");
        assert_eq!(m.budget_hard_trips, 1);
        assert_eq!(m.degraded_applies, 1);
        // The committed state remains exactly the pre-batch scratch solve.
        assert_matches_scratch(&engine, &format!("supers {supers} after shed"));
    }
}

/// `DeferFull` commits the widened bracket and asks for background
/// maintenance via `refresh_wanted`; a successful refresh clears the
/// request and restores scratch equality.
#[test]
fn defer_full_requests_background_refresh_and_recovers() {
    let zero = SolveBudget::default()
        .with_hard_work(0)
        .with_hard_action(DegradeAction::DeferFull);
    for (cap, supers) in LEVELS {
        let inst = ClusteredConfig::decomposable(4, 5, 3).generate(21);
        let trace = ChurnConfig::mixed(16).generate(&inst, 4);
        let mut engine = IngestEngine::new(inst, config(cap, supers, zero)).unwrap();
        assert!(!engine.refresh_wanted());

        for update in &trace {
            engine.push(update.clone()).unwrap();
        }
        let outcome = engine.apply().unwrap();
        assert!(
            outcome.degraded && outcome.hard_tripped && outcome.deferred_full,
            "supers {supers}"
        );
        assert!(
            engine.refresh_wanted(),
            "supers {supers}: a deferred full re-solve must surface to the frontend"
        );
        assert!(engine.pending().is_empty(), "defer commits the batch");
        assert!(engine.metrics().deferred_full_resolves >= 1);
        assert!(outcome.utility <= outcome.upper_bound + 1e-9);

        engine.refresh_full().unwrap();
        assert!(!engine.refresh_wanted(), "a refresh consumes the request");
        assert_matches_scratch(&engine, &format!("supers {supers} after deferred refresh"));
    }
}

/// A soft-only trip always degrades to `WidenGap`: the apply commits, the
/// gap widens soundly, and the soft counter advances while the hard one
/// stays untouched. Two-level engines take the same ladder.
#[test]
fn soft_trips_widen_and_commit_at_both_shard_levels() {
    let soft = SolveBudget::default().with_soft_work(0);
    for (cap, supers) in [(4usize, 0usize), (4, 2)] {
        let inst = ClusteredConfig::decomposable(6, 5, 4).generate(13);
        let trace = ChurnConfig::mixed(30).generate(&inst, 8);
        let mut engine = IngestEngine::new(inst, config(cap, supers, soft)).unwrap();
        let mut soft_trips = 0usize;
        for chunk in trace.chunks(10) {
            for update in chunk {
                engine.push(update.clone()).unwrap();
            }
            let outcome = engine.apply().unwrap();
            assert!(!outcome.hard_tripped, "no hard limit is configured");
            assert!(outcome.utility <= outcome.upper_bound + 1e-9);
            assert!(
                engine
                    .assignment()
                    .check_feasible(engine.current_instance())
                    .is_ok(),
                "supers {supers}: degraded assignment infeasible"
            );
            if outcome.soft_tripped {
                soft_trips += 1;
                assert!(outcome.degraded);
            }
        }
        assert!(soft_trips > 0, "supers {supers}: soft budget never tripped");
        let m = engine.metrics();
        assert_eq!(m.budget_soft_trips as usize, soft_trips);
        assert_eq!(m.budget_hard_trips, 0);
        engine.refresh_full().unwrap();
        assert_matches_scratch(&engine, &format!("supers {supers} healed"));
    }
}
