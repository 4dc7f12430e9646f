//! The machine-readable performance harness behind `BENCH_perf.json`.
//!
//! A standardized ladder of instance sizes (generated by `mmd-workload`
//! from fixed seeds) is pushed through the production solvers at one
//! thread and at `N` threads, and the layers under them — the coverage
//! kernel, incremental ingest, pool dispatch and the web-scale solve — are
//! measured on micro-ladders of their own. The emitted JSON is the
//! artifact the perf trajectory and the CI regression gate consume.
//!
//! Every family reports in one shape, the [`Cell`]: a `(rung, algo,
//! threads)` key, the gated `wall_ms`, and named `extras` (utility,
//! throughput, checksums, speedups, footprints). A paired family emits one
//! cell per side:
//!
//! | family | rungs | algos |
//! |---|---|---|
//! | solver ladder | `xs` … `xl`, `mb` | `greedy`, `fixed-greedy`, `partial-enum`, `pipeline`, `sharded` |
//! | coverage kernel | `cov-*` | `coverage-scalar` / `coverage-soa` |
//! | ingest | `ing-*` | `ingest-incremental` / `ingest-full` |
//! | pool dispatch | `pool-*` | `pool-scoped` / `pool-persistent` |
//! | web | `web-*` | `web-gen` / `web-solve` |
//!
//! The report (`mmd-bench-perf/2`) is `{schema, threads,
//! available_parallelism, calibration_ms, rungs, cells}`, each cell
//! `{rung, algo, threads, wall_ms, extras: {..}}`. The gated cell of a
//! `(rung, algo)` is the one with the fewest threads ([`gated_cell`]):
//! `1` everywhere except the pool cells, which run only at
//! [`POOL_THREADS`]. The baseline, the gate and the trend table all go
//! through that one lookup.
//!
//! Cross-machine comparability: wall times are only comparable on one
//! machine, so the committed baseline also stores a *calibration* time (a
//! fixed single-threaded workload measured at baseline-creation time). At
//! check time the harness re-measures the calibration workload and scales
//! the baseline's wall times by the ratio before applying the regression
//! tolerance, which keeps the >30% gate meaningful when CI hardware
//! generations change underneath it.

use crate::report::Table;
use mmd_core::algo::shard::ShardConfig;
use mmd_core::algo::{self, Feasibility, MmdConfig, PartialEnumConfig};
use mmd_core::coverage::{CoverageState, ScalarCoverageState};
use mmd_core::ingest::{IngestConfig, IngestEngine};
use mmd_core::{LaneMode, StreamId};
use mmd_workload::{
    CatalogConfig, ChurnConfig, ClusteredConfig, PopulationConfig, WebConfig, WorkloadConfig,
};
use serde_json::Value;
use std::fmt;
use std::time::Instant;

/// Schema tag stamped into `BENCH_perf.json`.
pub const REPORT_SCHEMA: &str = "mmd-bench-perf/2";
/// Schema tag stamped into `bench/baseline.json`.
pub const BASELINE_SCHEMA: &str = "mmd-bench-perf-baseline/1";
/// Default regression tolerance: fail when wall time exceeds the (machine-
/// scaled) baseline by more than this fraction.
pub const DEFAULT_TOLERANCE: f64 = 0.30;
/// Baseline cells faster than this are timer noise, not signal; the gate
/// skips them rather than failing on scheduler jitter. Single-digit
/// millisecond cells flake even on dedicated runners (one descheduling is
/// a 30% "regression"), so everything the gate is meant to protect — the
/// solver rungs from `s` upward and the coverage-kernel cells — is
/// measured well above this floor.
pub const GATE_FLOOR_MS: f64 = 8.0;

/// One rung of the instance-size ladder.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// Stable name used to match baseline entries.
    pub name: &'static str,
    /// Streams per instance.
    pub streams: usize,
    /// Users per instance.
    pub users: usize,
    /// Instances in the rung's batch.
    pub instances: usize,
    /// Planted communities per instance (`0` = plain Zipf workload;
    /// `> 0` = contended clustered workload, the sharded solver's target).
    pub clusters: usize,
    /// Server measures (budgets) per instance. `1` everywhere except the
    /// multi-budget `mb` rung, whose two contended budgets exercise the
    /// water-filling split across more than one constraint.
    pub measures: usize,
    /// The solvers this rung exercises.
    pub algos: &'static [Algo],
}

impl Rung {
    /// Shard size the sharded solver uses on this rung: the planted
    /// community size, so the splitter works at cluster granularity.
    #[must_use]
    pub fn shard_target(&self) -> usize {
        self.streams
            .checked_div(self.clusters)
            .map_or(0, |q| q.max(1))
    }
}

/// Ladder presets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ladder {
    /// CI-sized: the two smallest rungs, fewer instances.
    Small,
    /// The full four-rung ladder.
    Full,
    /// Test-sized: one tiny rung (unit tests only).
    Tiny,
}

impl Ladder {
    /// Parses the `--ladder` flag value.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "small" => Ok(Ladder::Small),
            "full" => Ok(Ladder::Full),
            "tiny" => Ok(Ladder::Tiny),
            other => Err(format!("unknown ladder: {other} (small|full|tiny)")),
        }
    }

    /// The rungs of this ladder, smallest first. Every preset except the
    /// unit-test `Tiny` ends in the `xl` rung: one clustered instance too
    /// big to treat as a batch item, exercised through the sharded path.
    #[must_use]
    pub fn rungs(self) -> Vec<Rung> {
        const XL: Rung = Rung {
            name: "xl",
            streams: 240,
            users: 144,
            instances: 4,
            clusters: 12,
            measures: 1,
            algos: SHARDED_ALGOS,
        };
        // The multi-budget rung: two contended server budgets, so the
        // water-filling split (and its per-measure shares) is on the perf
        // trajectory rather than only in unit tests. Only the pipeline
        // family accepts multiple budgets, so it runs the sharded pair.
        const MB: Rung = Rung {
            name: "mb",
            streams: 48,
            users: 32,
            instances: 8,
            clusters: 0,
            measures: 2,
            algos: SHARDED_ALGOS,
        };
        match self {
            Ladder::Tiny => vec![
                Rung {
                    name: "t0",
                    streams: 8,
                    users: 5,
                    instances: 4,
                    clusters: 0,
                    measures: 1,
                    algos: STANDARD_ALGOS,
                },
                Rung {
                    name: "t1",
                    streams: 18,
                    users: 9,
                    instances: 2,
                    clusters: 3,
                    measures: 1,
                    algos: SHARDED_ALGOS,
                },
            ],
            Ladder::Small => vec![
                Rung {
                    name: "xs",
                    streams: 20,
                    users: 12,
                    instances: 16,
                    clusters: 0,
                    measures: 1,
                    algos: STANDARD_ALGOS,
                },
                Rung {
                    name: "s",
                    streams: 36,
                    users: 24,
                    instances: 16,
                    clusters: 0,
                    measures: 1,
                    algos: STANDARD_ALGOS,
                },
                MB,
                XL,
            ],
            Ladder::Full => vec![
                Rung {
                    name: "xs",
                    streams: 20,
                    users: 12,
                    instances: 16,
                    clusters: 0,
                    measures: 1,
                    algos: STANDARD_ALGOS,
                },
                Rung {
                    name: "s",
                    streams: 36,
                    users: 24,
                    instances: 16,
                    clusters: 0,
                    measures: 1,
                    algos: STANDARD_ALGOS,
                },
                Rung {
                    name: "m",
                    streams: 56,
                    users: 40,
                    instances: 16,
                    clusters: 0,
                    measures: 1,
                    algos: STANDARD_ALGOS,
                },
                Rung {
                    name: "l",
                    streams: 80,
                    users: 56,
                    instances: 16,
                    clusters: 0,
                    measures: 1,
                    algos: STANDARD_ALGOS,
                },
                MB,
                XL,
            ],
        }
    }
}

/// The solvers the ladder exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Plain Algorithm 1 greedy (§2.1), semi-feasible.
    Greedy,
    /// Fixed greedy (§2.2), strictly feasible.
    FixedGreedy,
    /// Partial enumeration (§2.3) with a bounded seed sweep.
    PartialEnum,
    /// The full Theorem 1.1 pipeline via `solve_batch`.
    Pipeline,
    /// The sharded pipeline (`solve_sharded`): one instance split along
    /// stream–audience connectivity, shards solved concurrently. Unlike
    /// the other rows, its parallelism lives *inside* each instance, so
    /// this is the cell where "one instance too big for a core" shows its
    /// speedup.
    Sharded,
}

/// All solvers, in report order.
pub const ALGOS: [Algo; 5] = [
    Algo::Greedy,
    Algo::FixedGreedy,
    Algo::PartialEnum,
    Algo::Pipeline,
    Algo::Sharded,
];

/// The solver set plain (unclustered) rungs run: batch-parallel solves.
pub const STANDARD_ALGOS: &[Algo] = &[
    Algo::Greedy,
    Algo::FixedGreedy,
    Algo::PartialEnum,
    Algo::Pipeline,
];

/// The solver set clustered rungs run: the monolithic pipeline as the
/// yardstick, and the sharded path it is differenced against.
pub const SHARDED_ALGOS: &[Algo] = &[Algo::Pipeline, Algo::Sharded];

impl Algo {
    /// Stable name used in the JSON report and baseline keys.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algo::Greedy => "greedy",
            Algo::FixedGreedy => "fixed-greedy",
            Algo::PartialEnum => "partial-enum",
            Algo::Pipeline => "pipeline",
            Algo::Sharded => "sharded",
        }
    }

    /// How many times a batch is re-solved per measurement. The fast
    /// solvers finish a batch in well under a millisecond — below timer
    /// noise — so they are repeated until every cell is tens of
    /// milliseconds and the 30% regression gate measures the solver, not
    /// the clock.
    #[must_use]
    pub fn repeats(self) -> usize {
        match self {
            Algo::Greedy => 50,
            Algo::FixedGreedy => 25,
            Algo::PartialEnum => 1,
            Algo::Pipeline => 8,
            Algo::Sharded => 8,
        }
    }
}

impl fmt::Display for Algo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One measured cell: the one shape every measurement family reports in
/// (see the [module docs](self)).
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Rung name; with `algo`, the key baseline entries match.
    pub rung: String,
    /// What ran on the rung: a solver ([`Algo::name`]) or one side of a
    /// paired family (`coverage-soa`, `ingest-full`, ...).
    pub algo: String,
    /// Worker threads used.
    pub threads: usize,
    /// Wall time, milliseconds — the figure the regression gate compares.
    pub wall_ms: f64,
    /// Every other figure of the cell, by name, in report order.
    pub extras: Vec<(String, f64)>,
}

impl Cell {
    /// A cell with no extras yet.
    #[must_use]
    pub fn new(rung: &str, algo: &str, threads: usize, wall_ms: f64) -> Self {
        Cell {
            rung: rung.to_string(),
            algo: algo.to_string(),
            threads,
            wall_ms,
            extras: Vec::new(),
        }
    }

    /// Appends one extra.
    #[must_use]
    pub fn with(mut self, key: &str, value: f64) -> Self {
        self.extras.push((key.to_string(), value));
        self
    }

    /// The named extra, if the cell records it.
    #[must_use]
    pub fn extra(&self, key: &str) -> Option<f64> {
        self.extras.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// The cell as a report JSON value.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let extras = self
            .extras
            .iter()
            .map(|(k, v)| (k.clone(), Value::Number(*v)))
            .collect();
        obj(vec![
            ("rung", Value::String(self.rung.clone())),
            ("algo", Value::String(self.algo.clone())),
            ("threads", Value::Number(self.threads as f64)),
            ("wall_ms", Value::Number(self.wall_ms)),
            ("extras", Value::Object(extras)),
        ])
    }

    /// Parses a cell written by [`Cell::to_value`]; `None` when a key
    /// field is missing or mistyped. Non-numeric extras are dropped.
    #[must_use]
    pub fn from_value(value: &Value) -> Option<Cell> {
        let text = |key| match value.get(key) {
            Some(Value::String(s)) => Some(s.as_str()),
            _ => None,
        };
        let number = |key| match value.get(key) {
            Some(Value::Number(n)) => Some(*n),
            _ => None,
        };
        let mut cell = Cell::new(
            text("rung")?,
            text("algo")?,
            number("threads")? as usize,
            number("wall_ms")?,
        );
        if let Some(Value::Object(extras)) = value.get("extras") {
            for (k, v) in extras {
                if let Value::Number(n) = v {
                    cell = cell.with(k, *n);
                }
            }
        }
        Some(cell)
    }
}

/// The gated cell of `(rung, algo)`: the one with the fewest threads —
/// the single-threaded measurement, or the fixed-width pool cell. The
/// baseline writer, the gate and the trend table all pick cells here.
#[must_use]
pub fn gated_cell<'c>(cells: &'c [Cell], rung: &str, algo: &str) -> Option<&'c Cell> {
    cells
        .iter()
        .filter(|c| c.rung == rung && c.algo == algo)
        .min_by_key(|c| c.threads)
}

/// The full harness output.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// The `N` in "1 vs N threads".
    pub threads: usize,
    /// What the host reports as available parallelism.
    pub available_parallelism: usize,
    /// Solver-ladder rungs measured.
    pub rungs: Vec<Rung>,
    /// Every measured cell, in measurement order; `(rung, algo, threads)`
    /// is unique.
    pub cells: Vec<Cell>,
    /// Calibration workload wall time on this machine, milliseconds.
    pub calibration_ms: f64,
}

/// One rung of the coverage-kernel micro-ladder: the same fixed-seed
/// instance batch pushed through a greedy-style gain/add/remove sweep with
/// the struct-of-arrays [`CoverageState`] and with the preserved
/// array-of-structs [`ScalarCoverageState`] reference. This is the cell
/// that isolates the SoA rewrite from the rest of the solver stack.
#[derive(Clone, Copy, Debug)]
pub struct KernelRung {
    /// Stable name used to match baseline entries (`cov-*`).
    pub name: &'static str,
    /// The instance shape swept (same generator as the solver ladder).
    pub shape: Rung,
    /// Full build-up/tear-down sweeps per measurement.
    pub sweeps: usize,
}

/// One rung of the ingest micro-ladder: a fixed-seed churn trace applied
/// in batches through the incremental [`IngestEngine`], measured against a
/// twin engine forced to re-solve every shard on every batch
/// (`max_dirty_fraction = 0`). Both paths are bit-identical in *value* —
/// the equivalence contract — so the cells isolate pure re-solve cost.
#[derive(Clone, Copy, Debug)]
pub struct IngestRung {
    /// Stable name used to match baseline entries (`ing-*`).
    pub name: &'static str,
    /// Planted communities of the instance (= natural shard count);
    /// ignored on web rungs (`web_users > 0`).
    pub clusters: usize,
    /// Streams per community — doubling as the inner shard cap
    /// (`ShardConfig::max_streams`) on web rungs.
    pub streams_per_cluster: usize,
    /// Users per community; ignored on web rungs.
    pub users_per_cluster: usize,
    /// `> 0` switches the instance to the web family
    /// ([`WebConfig::scaled`] with this many users, compact lanes) instead
    /// of the clustered family — the churn-at-scale cell.
    pub web_users: usize,
    /// Super-shards of the engine's partition
    /// (`ShardConfig::super_shards`; `0` = single-level).
    pub super_shards: usize,
    /// Updates in the churn trace.
    pub updates: usize,
    /// Updates per applied batch.
    pub batch: usize,
    /// `true` = decomposable instance + drift-only churn (the incremental
    /// best case); `false` = contended instance + mixed churn. Web rungs
    /// always churn drift-only (`low`).
    pub low_churn: bool,
    /// Assert that the incremental path beats the full re-solve on this
    /// rung (the acceptance guard for low-churn traces).
    pub expect_speedup: bool,
}

/// The coverage-kernel rungs a ladder runs. Every real ladder measures the
/// kernel at small, full and xl shapes regardless of which solver rungs it
/// includes — the cells are cheap single-threaded microbenches, and the CI
/// (small) ladder still wants the full-shape scalar-vs-SoA comparison in
/// its artifact.
#[must_use]
pub fn kernel_rungs(ladder: Ladder) -> Vec<KernelRung> {
    let shape = |name, streams, users, instances, clusters| Rung {
        name,
        streams,
        users,
        instances,
        clusters,
        measures: 1,
        algos: STANDARD_ALGOS,
    };
    match ladder {
        Ladder::Tiny => vec![KernelRung {
            name: "cov-tiny",
            shape: shape("t1", 18, 9, 2, 3),
            sweeps: 3,
        }],
        Ladder::Small | Ladder::Full => vec![
            KernelRung {
                name: "cov-small",
                shape: shape("s", 36, 24, 8, 0),
                sweeps: 160,
            },
            KernelRung {
                name: "cov-full",
                shape: shape("l", 80, 56, 8, 0),
                sweeps: 50,
            },
            KernelRung {
                name: "cov-xl",
                shape: shape("xl", 240, 144, 2, 12),
                sweeps: 24,
            },
        ],
    }
}

/// One greedy-style sweep: repeatedly scan every remaining stream's
/// marginal gain, add the best until none is positive (the exact inner
/// loop every solver family spends its time in), then tear the set back
/// down. Returns a checksum over realized gains and values so the two
/// kernels can be differenced.
macro_rules! kernel_sweep {
    ($state:expr, $instance:expr) => {{
        let mut state = $state;
        let n = $instance.num_streams();
        let mut in_set = vec![false; n];
        let mut added: Vec<StreamId> = Vec::with_capacity(n);
        let mut checksum = 0.0f64;
        loop {
            let mut best: Option<(StreamId, f64)> = None;
            for s in $instance.streams() {
                if in_set[s.index()] {
                    continue;
                }
                let g = state.gain(s);
                if g > 0.0 && best.is_none_or(|(_, bg)| g > bg) {
                    best = Some((s, g));
                }
            }
            let Some((s, _)) = best else { break };
            checksum += state.add(s);
            in_set[s.index()] = true;
            added.push(s);
        }
        checksum += state.value();
        for &s in added.iter().rev() {
            state.remove(s);
        }
        checksum + state.value().abs()
    }};
}

/// Measures one coverage-kernel rung: the same sweeps through the scalar
/// reference and the SoA kernel, timed separately. Returns the
/// `coverage-scalar` and `coverage-soa` cells (single-threaded), both
/// carrying the shape and the sweep `checksum`; the SoA cell adds
/// `speedup_soa_vs_scalar`.
///
/// # Panics
///
/// Panics if the two kernels disagree on the sweep checksum beyond
/// ULP-scale tolerance — the differential guard that keeps the perf cell
/// honest.
#[must_use]
pub fn run_coverage_kernel(rung: &KernelRung) -> Vec<Cell> {
    let instances = rung_instances(&rung.shape);
    let time = |soa: bool| -> (f64, f64) {
        let start = Instant::now();
        let mut checksum = 0.0f64;
        for _ in 0..rung.sweeps {
            checksum = 0.0;
            for inst in &instances {
                checksum += if soa {
                    kernel_sweep!(CoverageState::new(inst), inst)
                } else {
                    kernel_sweep!(ScalarCoverageState::new(inst), inst)
                };
            }
        }
        (start.elapsed().as_secs_f64() * 1e3, checksum)
    };
    let (scalar_wall_ms, scalar_sum) = time(false);
    let (soa_wall_ms, soa_sum) = time(true);
    assert!(
        (scalar_sum - soa_sum).abs() <= 1e-9 * scalar_sum.abs().max(1.0),
        "kernel rung {}: scalar checksum {scalar_sum} != soa checksum {soa_sum}",
        rung.name
    );
    let side = |algo, wall_ms| {
        Cell::new(rung.name, algo, 1, wall_ms)
            .with("streams", rung.shape.streams as f64)
            .with("users", rung.shape.users as f64)
            .with("checksum", soa_sum)
    };
    vec![
        side("coverage-scalar", scalar_wall_ms),
        side("coverage-soa", soa_wall_ms).with(
            "speedup_soa_vs_scalar",
            scalar_wall_ms / soa_wall_ms.max(1e-9),
        ),
    ]
}

/// The ingest rungs a ladder runs: a low-churn rung where incremental
/// re-solve must win (the gate's target) and a heavy-churn rung that
/// exercises the trigger/full-re-solve path. The tiny ladder gets one
/// miniature rung for unit tests.
#[must_use]
pub fn ingest_rungs(ladder: Ladder) -> Vec<IngestRung> {
    match ladder {
        Ladder::Tiny => vec![IngestRung {
            name: "ing-tiny",
            clusters: 4,
            streams_per_cluster: 5,
            users_per_cluster: 3,
            web_users: 0,
            super_shards: 0,
            updates: 12,
            batch: 2,
            low_churn: true,
            expect_speedup: false,
        }],
        Ladder::Small | Ladder::Full => vec![
            IngestRung {
                name: "ing-low",
                clusters: 12,
                streams_per_cluster: 20,
                users_per_cluster: 12,
                web_users: 0,
                super_shards: 0,
                updates: 96,
                batch: 4,
                low_churn: true,
                expect_speedup: true,
            },
            IngestRung {
                name: "ing-heavy",
                clusters: 12,
                streams_per_cluster: 20,
                users_per_cluster: 12,
                web_users: 0,
                super_shards: 0,
                updates: 192,
                batch: 16,
                low_churn: false,
                expect_speedup: false,
            },
            // The churn-at-scale cell: web-100k through the two-level
            // incremental engine, drift-only churn. Its `expect_speedup`
            // is the acceptance guard that `super_shards > 1` churn stays
            // incremental rather than re-solving from scratch.
            IngestRung {
                name: "ing-web",
                clusters: 0,
                streams_per_cluster: 64,
                users_per_cluster: 0,
                web_users: 100_000,
                super_shards: 8,
                updates: 48,
                batch: 16,
                low_churn: true,
                expect_speedup: true,
            },
        ],
    }
}

/// Measures one ingest rung at one thread count: the same fixed-seed churn
/// trace replayed through the incremental engine and through a twin forced
/// to full re-solves, engine construction (the initial solve) outside the
/// clock so the cells isolate steady-state batch cost. Returns the
/// `ingest-incremental` cell (with `speedup_incremental_vs_full`,
/// `updates_per_sec` and `resolved_shard_fraction`) and the `ingest-full`
/// cell, both carrying the final `utility`.
///
/// # Panics
///
/// Panics if the incremental and full paths disagree on the final utility
/// (the equivalence contract), or — on rungs with `expect_speedup` — if
/// the incremental path fails to beat the full re-solve.
#[must_use]
pub fn run_ingest_rung(rung: &IngestRung, threads: usize) -> Vec<Cell> {
    let instance = if rung.web_users > 0 {
        // Amply provisioned budget: demand-capped water-fill shares are
        // stable under pure utility drift, which is what lets the
        // leaf memo serve untouched inner shards. The solve
        // web rungs keep the contended 0.3 default; this rung measures
        // churn, not capacity pressure.
        WebConfig {
            budget_fraction: 1.5,
            ..WebConfig::scaled(rung.web_users)
        }
        .with_lane_mode(LaneMode::Compact)
        .generate(9_000)
    } else if rung.low_churn {
        ClusteredConfig::decomposable(
            rung.clusters,
            rung.streams_per_cluster,
            rung.users_per_cluster,
        )
        .generate(3_000)
    } else {
        ClusteredConfig::contended(
            rung.clusters,
            rung.streams_per_cluster,
            rung.users_per_cluster,
        )
        .generate(3_000)
    };
    // Web-scale traces get a short warm-up replayed outside the clock on
    // both twins: the first drift batches can resettle the coarse
    // partition wholesale (utility reordering changes the Kruskal cut),
    // a one-time cost that would otherwise drown the steady-state signal
    // in a short trace.
    let warmup = if rung.web_users > 0 {
        2 * rung.batch
    } else {
        0
    };
    let churn = if rung.low_churn {
        ChurnConfig::low(rung.updates + warmup)
    } else {
        ChurnConfig::mixed(rung.updates + warmup)
    }
    .generate(&instance, 42);
    let (warm_trace, churn) = churn.split_at(warmup);
    let shard = ShardConfig {
        max_streams: rung.streams_per_cluster,
        super_shards: rung.super_shards,
        threads,
        ..ShardConfig::default()
    };
    let incremental_cfg = if rung.web_users > 0 {
        // At web scale the escalation heuristics are the wrong signal:
        // the coarse cut fraction is a static property of the connected
        // Zipf graph (~0.35), not a churn symptom. Escalation is a pure
        // work heuristic (the outcome is bit-identical either way), so
        // the web configuration opens the gates and relies on leaf-memo
        // reuse instead.
        IngestConfig {
            shard,
            max_dirty_fraction: 1.0,
            max_cut_fraction: 1.0,
            ..IngestConfig::default()
        }
    } else {
        IngestConfig {
            shard,
            ..IngestConfig::default()
        }
    };
    let full_cfg = IngestConfig {
        shard,
        // Any dirt escalates: every batch that touched anything re-solves
        // every shard.
        max_dirty_fraction: 0.0,
        ..IngestConfig::default()
    };

    // Engine construction (the initial full solve) and the warm-up trace
    // stay outside the clock so the cells isolate steady-state batch cost.
    let replay = |config: &IngestConfig| -> (f64, f64, f64) {
        let mut engine =
            IngestEngine::new(instance.clone(), *config).expect("ingest rung instances are valid");
        if !warm_trace.is_empty() {
            mmd_sim::replay_churn_with(&mut engine, warm_trace, rung.batch)
                .expect("warm-up traces apply cleanly");
        }
        let start = Instant::now();
        let report = mmd_sim::replay_churn_with(&mut engine, churn, rung.batch)
            .expect("churn traces apply cleanly");
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        (wall_ms, engine.utility(), report.resolved_shard_fraction)
    };

    let (mut incremental_wall_ms, utility, resolved_shard_fraction) = replay(&incremental_cfg);
    let (mut full_wall_ms, full_utility, full_fraction) = replay(&full_cfg);
    assert!(
        utility.to_bits() == full_utility.to_bits(),
        "ingest rung {}: incremental utility {utility} != full {full_utility}",
        rung.name
    );
    // The full twin escalates on any dirt, but a batch that touched
    // nothing re-solves nothing on either path — so assert dominance, not
    // an exact 1.0 fraction.
    assert!(
        full_fraction >= resolved_shard_fraction,
        "ingest rung {}: the full twin must re-solve at least as much \
         ({full_fraction} vs {resolved_shard_fraction})",
        rung.name
    );
    if rung.expect_speedup && incremental_wall_ms >= full_wall_ms {
        // A scheduler stall or noisy neighbor can invert a single
        // wall-clock comparison; re-measure both paths once and judge the
        // clean pair (and report it) rather than hard-failing on one-off
        // jitter. A genuine incremental regression fails both rounds.
        let (incr_retry, _, _) = replay(&incremental_cfg);
        let (full_retry, _, _) = replay(&full_cfg);
        incremental_wall_ms = incr_retry;
        full_wall_ms = full_retry;
        assert!(
            incremental_wall_ms < full_wall_ms,
            "ingest rung {}: incremental {incremental_wall_ms:.1} ms must beat full \
             {full_wall_ms:.1} ms on low-churn traces (reproduced across a re-measure)",
            rung.name
        );
    }
    vec![
        Cell::new(
            rung.name,
            "ingest-incremental",
            threads,
            incremental_wall_ms,
        )
        .with(
            "speedup_incremental_vs_full",
            full_wall_ms / incremental_wall_ms.max(1e-9),
        )
        .with(
            "updates_per_sec",
            rung.updates as f64 / (incremental_wall_ms / 1e3).max(1e-9),
        )
        .with("resolved_shard_fraction", resolved_shard_fraction)
        .with("utility", utility),
        Cell::new(rung.name, "ingest-full", threads, full_wall_ms).with("utility", full_utility),
    ]
}

/// Worker threads every pool cell runs at: a fixed two, so the cells are
/// shaped identically across hosts (the calibration factor absorbs speed,
/// not topology).
pub const POOL_THREADS: usize = 2;
/// The chunk-grain ladder measured informationally on every pool rung.
pub const POOL_GRAINS: [usize; 3] = [1, 4, 64];
/// Headroom on the "persistent pool no slower than scoped spawn" guard:
/// the pool may cost at most this fraction more on compute-bound batches.
pub const POOL_SLACK: f64 = 0.25;

/// One rung of the pool micro-ladder: the same deterministic per-item
/// numeric kernel mapped over a batch through the legacy scoped-spawn
/// path ([`mmd_par::scoped_map`]) and through the persistent global
/// [`mmd_par::Pool`] (`parallel_map`), plus a chunk-grain ladder through
/// the pool. This is the cell that isolates dispatch overhead — thread
/// spawn/join per call vs. parked-worker wakeup — from the solver stack.
#[derive(Clone, Copy, Debug)]
pub struct PoolRung {
    /// Stable name used to match baseline entries (`pool-*`).
    pub name: &'static str,
    /// Items per mapped batch.
    pub items: usize,
    /// Iterations of the numeric kernel per item (per-item cost knob).
    pub work: usize,
    /// Mapped batches per measurement.
    pub repeats: usize,
    /// Assert the pool is no slower than scoped spawn (× [`POOL_SLACK`]
    /// headroom) — the batch-shaped guard.
    pub expect_no_slower: bool,
    /// Assert the pool strictly beats scoped spawn — the small-item guard,
    /// where per-call spawn/join overhead dominates the work.
    pub expect_speedup: bool,
}

/// The pool rungs a ladder runs: a compute-bound batch-shaped rung where
/// the pool must at least match scoped spawning, and a small-item rung
/// where amortizing thread startup must make the pool strictly faster.
#[must_use]
pub fn pool_rungs(ladder: Ladder) -> Vec<PoolRung> {
    match ladder {
        Ladder::Tiny => vec![PoolRung {
            name: "pool-tiny",
            items: 16,
            work: 8,
            repeats: 4,
            expect_no_slower: false,
            expect_speedup: false,
        }],
        Ladder::Small | Ladder::Full => vec![
            PoolRung {
                name: "pool-batch",
                items: 16,
                work: 120_000,
                repeats: 4,
                expect_no_slower: true,
                expect_speedup: false,
            },
            PoolRung {
                name: "pool-small",
                items: 64,
                work: 32,
                repeats: 1_000,
                expect_no_slower: false,
                expect_speedup: true,
            },
        ],
    }
}

/// The pool rungs' per-item kernel: a fixed-point-ish float recurrence
/// whose result depends only on `(index, work)` — never on scheduling —
/// so checksums difference the dispatch paths, not the math.
fn pool_kernel(index: usize, work: usize) -> f64 {
    let mut x = (index as f64).mul_add(0.618_033_988_749_895, 1.25);
    for _ in 0..work {
        x = (x * 1.000_000_1 + 0.5).sqrt() + 1.0 / (x + 2.0);
    }
    x
}

/// Measures one pool rung: scoped spawn vs. the persistent pool at
/// [`POOL_THREADS`] workers, then the [`POOL_GRAINS`] ladder through the
/// pool. Returns the `pool-scoped` and `pool-persistent` cells, both
/// carrying `items` and the map `checksum`; the persistent cell adds
/// `speedup_pool_vs_scoped` and one informational `grain_<g>_wall_ms`
/// extra per grain (its own default-grain wall is the gated one).
///
/// # Panics
///
/// Panics if any path or grain produces a different checksum (the
/// determinism guard), or — on rungs with an expectation flag — if the
/// pool misses its speed guard across a re-measure (one retry absorbs a
/// scheduler stall; a genuine regression fails both rounds).
#[must_use]
pub fn run_pool_rung(rung: &PoolRung) -> Vec<Cell> {
    let items: Vec<usize> = (0..rung.items).collect();
    let work = rung.work;
    let measure = |grain: Option<usize>, scoped: bool| -> (f64, f64) {
        let start = Instant::now();
        let mut checksum = 0.0f64;
        for _ in 0..rung.repeats {
            let values = if scoped {
                mmd_par::scoped_map(POOL_THREADS, &items, |_, &i| pool_kernel(i, work))
            } else if let Some(g) = grain {
                mmd_par::parallel_map_with_grain(POOL_THREADS, &items, g, |_, &i| {
                    pool_kernel(i, work)
                })
            } else {
                mmd_par::parallel_map(POOL_THREADS, &items, |_, &i| pool_kernel(i, work))
            };
            checksum = values.iter().sum();
        }
        (start.elapsed().as_secs_f64() * 1e3, checksum)
    };
    let (mut scoped_wall_ms, scoped_sum) = measure(None, true);
    let (mut pool_wall_ms, pool_sum) = measure(None, false);
    assert!(
        scoped_sum.to_bits() == pool_sum.to_bits(),
        "pool rung {}: scoped checksum {scoped_sum} != pool checksum {pool_sum}",
        rung.name
    );
    let grain_wall_ms: Vec<(usize, f64)> = POOL_GRAINS
        .iter()
        .map(|&g| {
            let (wall, sum) = measure(Some(g), false);
            assert!(
                sum.to_bits() == pool_sum.to_bits(),
                "pool rung {}: grain {g} checksum {sum} != default {pool_sum}",
                rung.name
            );
            (g, wall)
        })
        .collect();
    if rung.expect_no_slower && pool_wall_ms > scoped_wall_ms * (1.0 + POOL_SLACK) {
        let (scoped_retry, _) = measure(None, true);
        let (pool_retry, _) = measure(None, false);
        scoped_wall_ms = scoped_retry;
        pool_wall_ms = pool_retry;
        assert!(
            pool_wall_ms <= scoped_wall_ms * (1.0 + POOL_SLACK),
            "pool rung {}: persistent pool {pool_wall_ms:.1} ms must stay within \
             {:.0}% of scoped spawn {scoped_wall_ms:.1} ms on batch-shaped work \
             (reproduced across a re-measure)",
            rung.name,
            POOL_SLACK * 100.0,
        );
    }
    if rung.expect_speedup && pool_wall_ms >= scoped_wall_ms {
        let (scoped_retry, _) = measure(None, true);
        let (pool_retry, _) = measure(None, false);
        scoped_wall_ms = scoped_retry;
        pool_wall_ms = pool_retry;
        assert!(
            pool_wall_ms < scoped_wall_ms,
            "pool rung {}: persistent pool {pool_wall_ms:.1} ms must beat scoped \
             spawn {scoped_wall_ms:.1} ms on small items (reproduced across a \
             re-measure)",
            rung.name
        );
    }
    let side = |algo, wall_ms| {
        Cell::new(rung.name, algo, POOL_THREADS, wall_ms)
            .with("items", rung.items as f64)
            .with("checksum", pool_sum)
    };
    let mut persistent = side("pool-persistent", pool_wall_ms).with(
        "speedup_pool_vs_scoped",
        scoped_wall_ms / pool_wall_ms.max(1e-9),
    );
    for (g, wall) in grain_wall_ms {
        persistent = persistent.with(&format!("grain_{g}_wall_ms"), wall);
    }
    vec![side("pool-scoped", scoped_wall_ms), persistent]
}

/// One rung of the web-workload ladder: a Zipf-popular catalog with 10⁵+
/// sparse-interest users ([`WebConfig::scaled`]) generated in the compact
/// quantized lane layout and solved through the two-level sharded pipeline
/// — the million-user regime both features exist for. Each rung carries a
/// *machine-independent* memory gate (bytes of derived lanes per user,
/// checked in-harness) on top of the usual baseline-gated wall times.
#[derive(Clone, Copy, Debug)]
pub struct WebRung {
    /// Stable name used to match baseline entries (`web-*`).
    pub name: &'static str,
    /// Users in the instance; the catalog scales as [`WebConfig::scaled`].
    pub users: usize,
    /// Super-shards of the two-level solve (`ShardConfig::super_shards`).
    pub super_shards: usize,
    /// Inner shard size cap (`ShardConfig::max_streams`).
    pub shard_streams: usize,
    /// Hard ceiling on `lane_bytes / users` for the compact layout. The
    /// compact lanes cost 8 bytes per interest (u32 user id + f32 weight)
    /// plus 4 bytes per user cap, so 8-interest users fit in ≈ 70 B/user —
    /// while the exact f64 layout needs ≈ 104. The gate is byte-exact
    /// across machines, so it asserts in-harness rather than via baseline.
    pub max_bytes_per_user: f64,
}

/// The web rungs a ladder runs: the 10⁵-user rung everywhere (it is the
/// acceptance target), plus a larger rung on the full ladder. The tiny
/// ladder gets a miniature rung for unit tests.
#[must_use]
pub fn web_rungs(ladder: Ladder) -> Vec<WebRung> {
    const WEB_100K: WebRung = WebRung {
        name: "web-100k",
        users: 100_000,
        super_shards: 8,
        shard_streams: 64,
        max_bytes_per_user: 80.0,
    };
    match ladder {
        Ladder::Tiny => vec![WebRung {
            name: "web-tiny",
            users: 3_000,
            super_shards: 2,
            shard_streams: 24,
            max_bytes_per_user: 96.0,
        }],
        Ladder::Small => vec![WEB_100K],
        Ladder::Full => vec![
            WEB_100K,
            WebRung {
                name: "web-250k",
                users: 250_000,
                super_shards: 12,
                shard_streams: 64,
                max_bytes_per_user: 80.0,
            },
            // The million-user north-star rung: full-ladder only, with the
            // same certificate / feasibility / determinism guards as every
            // web cell.
            WebRung {
                name: "web-1m",
                users: 1_000_000,
                super_shards: 16,
                shard_streams: 64,
                max_bytes_per_user: 80.0,
            },
        ],
    }
}

/// The registry the `perf --web NAME` smoke mode resolves against: every
/// web rung any ladder defines.
#[must_use]
pub fn web_rung_by_name(name: &str) -> Option<WebRung> {
    web_rungs(Ladder::Full)
        .into_iter()
        .chain(web_rungs(Ladder::Tiny))
        .find(|r| r.name == name)
}

/// Measures one web rung: generate the compact instance once (timed,
/// single-threaded), gate its per-user lane footprint, then run the
/// two-level sharded solve (timed) at 1 and at `threads` workers and check
/// each certificate.
///
/// Returns the `web-gen` cell (`users`, `streams`, `lane_bytes`,
/// `bytes_per_user`) at one thread and a `web-solve` cell per thread count
/// (`utility`, `upper_bound` with the quantization error folded in,
/// `gap_fraction`, `num_shards`, and `skew_ratio` — the stream-weighted
/// super-shard skew after head splitting).
///
/// # Panics
///
/// Panics if the compact lanes exceed the rung's bytes-per-user ceiling,
/// if a solve fails or produces an infeasible assignment, or if the
/// certificate bracket `utility ≤ upper_bound` is violated.
#[must_use]
pub fn run_web_rung(rung: &WebRung, threads: usize) -> Vec<Cell> {
    let config = WebConfig::scaled(rung.users).with_lane_mode(LaneMode::Compact);
    let start = Instant::now();
    let instance = config.generate(9_000);
    let gen_wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let lane_bytes = instance.lane_bytes();
    let bytes_per_user = lane_bytes as f64 / rung.users as f64;
    assert!(
        bytes_per_user <= rung.max_bytes_per_user,
        "web rung {}: compact lanes cost {bytes_per_user:.1} B/user, over the \
         {:.0} B/user ceiling",
        rung.name,
        rung.max_bytes_per_user
    );
    let streams = instance.num_streams() as f64;
    let mut cells = vec![Cell::new(rung.name, "web-gen", 1, gen_wall_ms)
        .with("users", rung.users as f64)
        .with("streams", streams)
        .with("lane_bytes", lane_bytes as f64)
        .with("bytes_per_user", bytes_per_user)];

    let thread_counts = if threads > 1 {
        vec![1, threads]
    } else {
        vec![1]
    };
    for t in thread_counts {
        let shard = ShardConfig {
            max_streams: rung.shard_streams,
            super_shards: rung.super_shards,
            ..ShardConfig::default()
        }
        .with_threads(t);
        let start = Instant::now();
        let out = algo::solve_sharded(&instance, &shard).expect("web workloads are valid");
        let solve_wall_ms = start.elapsed().as_secs_f64() * 1e3;

        assert!(
            out.utility.is_finite() && out.utility <= out.upper_bound,
            "web rung {}: certificate bracket violated ({} > {})",
            rung.name,
            out.utility,
            out.upper_bound
        );
        out.assignment
            .check_feasible(&instance)
            .expect("two-level web solves end feasible");
        cells.push(
            Cell::new(rung.name, "web-solve", t, solve_wall_ms)
                .with("users", rung.users as f64)
                .with("streams", streams)
                .with("utility", out.utility)
                .with("upper_bound", out.upper_bound)
                .with("gap_fraction", out.gap_fraction)
                .with("num_shards", out.num_shards as f64)
                .with("skew_ratio", out.skew_ratio),
        );
    }
    cells
}

/// Runs *only* one web rung (1 vs `threads` workers) plus calibration: the
/// fast `perf --web NAME` smoke mode CI uses to gate the web regime on
/// every push without paying for the whole ladder. The report carries
/// only web cells; [`check_baseline`] skips baseline entries whose rung
/// this run did not measure, so the full baseline still gates the web
/// cells.
#[must_use]
pub fn run_web_only(rung: &WebRung, threads: usize) -> PerfReport {
    let threads = mmd_par::resolve(threads).max(2);
    PerfReport::assemble(threads, Vec::new(), run_web_rung(rung, threads))
}

/// Generates a rung's instance batch (single-budget workloads, fixed
/// seeds, so every solver family accepts them and runs are reproducible).
/// Clustered rungs (`clusters > 0`) use the contended planted-community
/// family the sharded solver targets.
#[must_use]
pub fn rung_instances(rung: &Rung) -> Vec<mmd_core::Instance> {
    (0..rung.instances)
        .map(|i| {
            if rung.clusters > 0 {
                ClusteredConfig::contended(
                    rung.clusters,
                    (rung.streams / rung.clusters).max(1),
                    (rung.users / rung.clusters).max(1),
                )
                .generate(2_000 + i as u64)
            } else {
                WorkloadConfig {
                    catalog: CatalogConfig {
                        streams: rung.streams,
                        measures: rung.measures.max(1),
                        ..CatalogConfig::default()
                    },
                    population: PopulationConfig {
                        users: rung.users,
                        user_measures: 1,
                        ..PopulationConfig::default()
                    },
                    budget_fraction: 0.35,
                    ..WorkloadConfig::default()
                }
                .generate(1_000 + i as u64)
            }
        })
        .collect()
}

/// The §2.3 configuration the ladder uses: a bounded sweep so the cost
/// scales with the ladder rather than `O(n³)`.
#[must_use]
pub fn ladder_partial_enum() -> PartialEnumConfig {
    PartialEnumConfig {
        max_seed_size: 2,
        seed_limit: Some(160),
        threads: 1,
    }
}

/// Solves one batch with one solver on `threads` workers (re-solving it
/// [`Algo::repeats`] times so the wall time is well above timer noise),
/// returning `(wall_ms, total_utility)`. For every solver except
/// [`Algo::Sharded`] the parallelism is batch-level only — each instance is
/// solved with the solver's own sequential configuration. The sharded
/// solver inverts this: instances are processed one after another and the
/// `threads` workers fan out *inside* each instance, across its shards.
/// Either way, per-instance results are identical at every thread count.
#[must_use]
pub fn run_batch(
    algo: Algo,
    rung: &Rung,
    instances: &[mmd_core::Instance],
    threads: usize,
) -> (f64, f64) {
    let solve_once = || -> Vec<f64> {
        match algo {
            Algo::Greedy => mmd_par::parallel_map(threads, instances, |_, inst| {
                algo::greedy(inst).expect("single-budget rung").utility
            }),
            Algo::FixedGreedy => mmd_par::parallel_map(threads, instances, |_, inst| {
                algo::solve_smd_unit(inst, Feasibility::Strict)
                    .expect("single-budget rung")
                    .utility
            }),
            Algo::PartialEnum => {
                let cfg = ladder_partial_enum();
                mmd_par::parallel_map(threads, instances, |_, inst| {
                    algo::solve_smd_partial_enum(inst, &cfg, Feasibility::Strict)
                        .expect("single-budget rung")
                        .utility
                })
            }
            Algo::Pipeline => algo::solve_batch(instances, &MmdConfig::default(), threads)
                .into_iter()
                .map(|r| r.expect("workload instances are well-formed").utility)
                .collect(),
            Algo::Sharded => {
                let cfg = ShardConfig {
                    max_streams: rung.shard_target(),
                    ..ShardConfig::default()
                }
                .with_threads(threads);
                instances
                    .iter()
                    .map(|inst| {
                        algo::solve_sharded(inst, &cfg)
                            .expect("workload instances are well-formed")
                            .utility
                    })
                    .collect()
            }
        }
    };
    let start = Instant::now();
    let mut utilities = solve_once();
    for _ in 1..algo.repeats() {
        utilities = solve_once();
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    (wall_ms, utilities.iter().sum())
}

/// Measures the fixed calibration workload (single-threaded fixed greedy
/// over a small batch): the unit in which baselines are rescaled across
/// machines.
#[must_use]
pub fn calibrate() -> f64 {
    let rung = Rung {
        name: "cal",
        streams: 36,
        users: 24,
        instances: 16,
        clusters: 0,
        measures: 1,
        algos: STANDARD_ALGOS,
    };
    let instances = rung_instances(&rung);
    let (wall_ms, _) = run_batch(Algo::FixedGreedy, &rung, &instances, 1);
    wall_ms
}

/// Runs every family of the ladder: the solver rungs at 1 and `threads`
/// workers, then the coverage-kernel, ingest (1 and `threads`), pool and
/// web rungs.
///
/// # Panics
///
/// Panics if any family's in-harness guard fails, or if any solver —
/// including the sharded path on clustered rungs — produces different
/// total utility at different thread counts: the determinism guard, which
/// every report runs over its multi-thread cells.
#[must_use]
pub fn run_ladder(ladder: Ladder, threads: usize) -> PerfReport {
    let threads = mmd_par::resolve(threads).max(2);
    let rungs = ladder.rungs();
    let mut cells = Vec::new();
    for rung in &rungs {
        let instances = rung_instances(rung);
        for &algo in rung.algos {
            let solved = (rung.instances * algo.repeats()) as f64;
            for t in [1, threads] {
                let (wall_ms, utility) = run_batch(algo, rung, &instances, t);
                cells.push(
                    Cell::new(rung.name, algo.name(), t, wall_ms)
                        .with("instances_per_sec", solved / (wall_ms / 1e3).max(1e-9))
                        .with("utility", utility),
                );
            }
        }
    }
    cells.extend(kernel_rungs(ladder).iter().flat_map(run_coverage_kernel));
    for rung in &ingest_rungs(ladder) {
        cells.extend(run_ingest_rung(rung, 1));
        cells.extend(run_ingest_rung(rung, threads));
    }
    cells.extend(pool_rungs(ladder).iter().flat_map(run_pool_rung));
    for rung in &web_rungs(ladder) {
        cells.extend(run_web_rung(rung, threads));
    }
    PerfReport::assemble(threads, rungs, cells)
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Formats an extra for the summary table: integers without a fraction,
/// everything else to three decimals.
fn short(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

impl PerfReport {
    /// Assembles a report over measured cells and measures calibration.
    /// Every multi-thread cell is checked against its single-threaded twin
    /// — `utility` and `upper_bound`, where recorded, must be bit-identical
    /// (the determinism guard) — and gains a `speedup_vs_single_thread`
    /// extra.
    ///
    /// # Panics
    ///
    /// Panics on a determinism violation or a repeated
    /// `(rung, algo, threads)` key.
    fn assemble(threads: usize, rungs: Vec<Rung>, mut cells: Vec<Cell>) -> PerfReport {
        for i in 0..cells.len() {
            let (head, tail) = cells.split_at_mut(i);
            let cell = &mut tail[0];
            let twin = |c: &&Cell| c.rung == cell.rung && c.algo == cell.algo;
            assert!(
                !head.iter().filter(twin).any(|c| c.threads == cell.threads),
                "perf cell {}/{} at {} threads is measured twice",
                cell.rung,
                cell.algo,
                cell.threads
            );
            if cell.threads == 1 {
                continue;
            }
            let Some(one) = head.iter().filter(twin).find(|c| c.threads == 1) else {
                continue;
            };
            for key in ["utility", "upper_bound"] {
                let (a, b) = (one.extra(key), cell.extra(key));
                assert!(
                    a.map(f64::to_bits) == b.map(f64::to_bits),
                    "{} on rung {} is not deterministic across thread counts: \
                     {key} {a:?} vs {b:?}",
                    cell.algo,
                    cell.rung
                );
            }
            let speedup = one.wall_ms / cell.wall_ms.max(1e-9);
            cell.extras
                .push(("speedup_vs_single_thread".to_string(), speedup));
        }
        PerfReport {
            threads,
            available_parallelism: mmd_par::resolve(0),
            rungs,
            cells,
            calibration_ms: calibrate(),
        }
    }

    /// The report as a JSON value (the `BENCH_perf.json` schema, see the
    /// [module docs](self)).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let rungs = self
            .rungs
            .iter()
            .map(|r| {
                obj(vec![
                    ("name", Value::String(r.name.to_string())),
                    ("streams", Value::Number(r.streams as f64)),
                    ("users", Value::Number(r.users as f64)),
                    ("instances", Value::Number(r.instances as f64)),
                    ("clusters", Value::Number(r.clusters as f64)),
                ])
            })
            .collect();
        obj(vec![
            ("schema", Value::String(REPORT_SCHEMA.to_string())),
            ("threads", Value::Number(self.threads as f64)),
            (
                "available_parallelism",
                Value::Number(self.available_parallelism as f64),
            ),
            ("calibration_ms", Value::Number(self.calibration_ms)),
            ("rungs", Value::Array(rungs)),
            (
                "cells",
                Value::Array(self.cells.iter().map(Cell::to_value).collect()),
            ),
        ])
    }

    /// The report as pretty-printed JSON text.
    ///
    /// # Panics
    ///
    /// Panics if a measurement is non-finite (cannot happen: wall times and
    /// utilities are finite by construction).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut text = serde_json::to_string_pretty(&self.to_value())
            .expect("perf reports contain only finite numbers");
        text.push('\n');
        text
    }

    /// A human-readable summary table (stderr companion to the JSON): one
    /// row per cell, extras inline.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut t = Table::new(
            format!("perf ladder (1 vs {} threads)", self.threads),
            &["rung", "algo", "threads", "wall ms", "extras"],
        );
        for c in &self.cells {
            let extras: Vec<String> = c
                .extras
                .iter()
                .map(|(k, v)| format!("{k} {}", short(*v)))
                .collect();
            t.row(&[
                c.rung.clone(),
                c.algo.clone(),
                c.threads.to_string(),
                format!("{:.1}", c.wall_ms),
                extras.join(" · "),
            ]);
        }
        t.to_markdown()
    }

    /// The `(rung, algo)` keys of this report, in first-measured order.
    fn keys(&self) -> Vec<(&str, &str)> {
        let mut keys: Vec<(&str, &str)> = Vec::new();
        for c in &self.cells {
            let key = (c.rung.as_str(), c.algo.as_str());
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        keys
    }

    /// Derives a committable baseline from this run: the wall time of
    /// every `(rung, algo)`'s [`gated_cell`], plus this machine's
    /// calibration time.
    #[must_use]
    pub fn to_baseline(&self) -> Value {
        let entries = self
            .keys()
            .into_iter()
            .filter_map(|(rung, algo)| gated_cell(&self.cells, rung, algo))
            .map(|c| {
                obj(vec![
                    ("rung", Value::String(c.rung.clone())),
                    ("algo", Value::String(c.algo.clone())),
                    ("wall_ms", Value::Number(c.wall_ms)),
                ])
            })
            .collect();
        obj(vec![
            ("schema", Value::String(BASELINE_SCHEMA.to_string())),
            ("tolerance", Value::Number(DEFAULT_TOLERANCE)),
            ("calibration_ms", Value::Number(self.calibration_ms)),
            ("entries", Value::Array(entries)),
        ])
    }
}

fn number(value: &Value, what: &str) -> Result<f64, String> {
    match value {
        Value::Number(n) => Ok(*n),
        other => Err(format!("{what}: expected number, found {}", other.kind())),
    }
}

/// Checks a report against a committed baseline.
///
/// The baseline's wall times are first rescaled by
/// `report.calibration_ms / baseline.calibration_ms` so that a slower or
/// faster machine shifts the whole baseline rather than tripping the gate;
/// then any [`gated_cell`] exceeding its scaled baseline by more than
/// `tolerance` (the baseline's own unless overridden) is a regression.
///
/// An entry whose rung this run did not measure at all (the small ladder
/// against `web-1m`, every non-web rung under `perf --web`) is skipped. An
/// entry whose rung was measured but whose algo has no cell is an error:
/// a renamed cell must not silently drop out of the gate.
///
/// Returns the per-cell comparison log, or the list of regressions.
///
/// # Errors
///
/// Returns `Err` with regression and missing-cell descriptions, or a
/// malformed-baseline message (including a non-finite tolerance, which
/// would open the gate).
pub fn check_baseline(
    report: &PerfReport,
    baseline: &Value,
    tolerance_override: Option<f64>,
) -> Result<Vec<String>, Vec<String>> {
    let shape = |msg: String| vec![msg];
    let tolerance = match tolerance_override {
        Some(t) => t,
        None => match baseline.get("tolerance") {
            Some(v) => number(v, "tolerance").map_err(shape)?,
            None => DEFAULT_TOLERANCE,
        },
    };
    if !tolerance.is_finite() {
        return Err(shape(format!("tolerance must be finite, got {tolerance}")));
    }
    let base_cal = number(
        baseline
            .get("calibration_ms")
            .ok_or_else(|| shape("baseline missing calibration_ms".into()))?,
        "calibration_ms",
    )
    .map_err(shape)?;
    // Clamp the machine factor: a wildly different calibration means the
    // baseline does not transfer, and an unbounded factor would let the
    // gate wave anything through.
    let factor = (report.calibration_ms / base_cal.max(1e-9)).clamp(0.1, 10.0);
    let Some(Value::Array(entries)) = baseline.get("entries") else {
        return Err(shape("baseline missing entries array".into()));
    };

    let mut log = Vec::new();
    let mut regressions = Vec::new();
    for entry in entries {
        let rung = match entry.get("rung") {
            Some(Value::String(s)) => s.clone(),
            _ => return Err(shape("baseline entry missing rung".into())),
        };
        let algo = match entry.get("algo") {
            Some(Value::String(s)) => s.clone(),
            _ => return Err(shape("baseline entry missing algo".into())),
        };
        let base_wall = number(
            entry
                .get("wall_ms")
                .ok_or_else(|| shape("baseline entry missing wall_ms".into()))?,
            "wall_ms",
        )
        .map_err(shape)?;
        let Some(cell) = gated_cell(&report.cells, &rung, &algo) else {
            if report.cells.iter().any(|c| c.rung == rung) {
                regressions.push(format!(
                    "MISSING {rung}/{algo}: rung {rung} was measured but has no {algo} cell"
                ));
            } else {
                // Baseline covers a rung this run did not measure (e.g. the
                // small CI ladder against a full baseline): not comparable.
                log.push(format!("{rung}/{algo}: not measured in this run, skipped"));
            }
            continue;
        };
        if base_wall < GATE_FLOOR_MS {
            log.push(format!(
                "{rung}/{algo}: baseline {base_wall:.2} ms is below the {GATE_FLOOR_MS} ms gate floor, skipped"
            ));
            continue;
        }
        let allowed = base_wall * factor * (1.0 + tolerance);
        let line = format!(
            "{rung}/{algo}: measured {:.1} ms, allowed {:.1} ms (baseline {:.1} ms × machine {:.2} × {:.0}% headroom)",
            cell.wall_ms,
            allowed,
            base_wall,
            factor,
            (1.0 + tolerance) * 100.0,
        );
        if cell.wall_ms > allowed {
            regressions.push(format!("REGRESSION {line}"));
        } else {
            log.push(format!("ok {line}"));
        }
    }
    if regressions.is_empty() {
        Ok(log)
    } else {
        Err(regressions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> PerfReport {
        run_ladder(Ladder::Tiny, 2)
    }

    /// A hand-built report with fixed wall times, so gate-logic tests are
    /// independent of real timing: every solver at 1 and 4 threads, and
    /// both sides of one rung per paired family. 13 gated cells.
    fn synthetic_report() -> PerfReport {
        let mut cells: Vec<Cell> = ALGOS
            .iter()
            .flat_map(|algo| {
                [(1, 100.0), (4, 30.0)]
                    .map(|(threads, wall)| Cell::new("t0", algo.name(), threads, wall))
            })
            .collect();
        for (rung, threads, pair) in [
            ("cov-t0", 1, ["coverage-scalar", "coverage-soa"]),
            ("ing-t0", 1, ["ingest-incremental", "ingest-full"]),
            ("pool-t0", POOL_THREADS, ["pool-scoped", "pool-persistent"]),
            ("web-t0", 1, ["web-gen", "web-solve"]),
        ] {
            cells.extend(pair.map(|algo| Cell::new(rung, algo, threads, 100.0)));
        }
        PerfReport {
            threads: 4,
            available_parallelism: 4,
            rungs: Ladder::Tiny.rungs(),
            cells,
            calibration_ms: 50.0,
        }
    }

    #[test]
    fn ladder_runs_and_serializes() {
        let report = tiny_report();
        let parsed: Value = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(
            parsed.get("schema"),
            Some(&Value::String(REPORT_SCHEMA.into()))
        );
        // The serialized cells round-trip into the report's own, and
        // (rung, algo, threads) keys are unique.
        let Some(Value::Array(values)) = parsed.get("cells") else {
            panic!("cells must be an array");
        };
        let cells: Vec<Cell> = values.iter().filter_map(Cell::from_value).collect();
        assert_eq!(cells, report.cells);
        let keys: std::collections::BTreeSet<_> = cells
            .iter()
            .map(|c| (&c.rung, &c.algo, c.threads))
            .collect();
        assert_eq!(keys.len(), cells.len(), "duplicate cell keys");
        // Solver cells: (t0: 4 standard algos + t1: pipeline & sharded) ×
        // 2 thread counts, the sharded rung measured and covered by the
        // determinism guard, multi-thread cells carrying a speedup.
        let solver = |c: &&Cell| c.rung == "t0" || c.rung == "t1";
        assert_eq!(cells.iter().filter(solver).count(), 12);
        assert!(cells.iter().filter(solver).any(|c| c.algo == "sharded"));
        for c in cells.iter().filter(solver) {
            assert!(c.extra("instances_per_sec").is_some() && c.extra("utility").is_some());
            assert_eq!(c.extra("speedup_vs_single_thread").is_some(), c.threads > 1);
        }
        // Every paired family ran (its in-harness guards passed) and
        // landed with the fields it has always reported: kernel and pool
        // once, ingest and the web solve at 1 and N threads, the web
        // generation once.
        let pool_grains = POOL_GRAINS.map(|g| format!("grain_{g}_wall_ms"));
        let grains: Vec<&str> = pool_grains.iter().map(String::as_str).collect();
        let incremental = ["speedup_incremental_vs_full", "resolved_shard_fraction"];
        let solve = ["upper_bound", "gap_fraction", "utility"];
        let expected: [(&str, &str, usize, &[&str]); 11] = [
            ("cov-tiny", "coverage-scalar", 1, &["checksum"]),
            ("cov-tiny", "coverage-soa", 1, &["speedup_soa_vs_scalar"]),
            ("ing-tiny", "ingest-incremental", 1, &incremental),
            ("ing-tiny", "ingest-full", 1, &["utility"]),
            ("ing-tiny", "ingest-incremental", 2, &incremental),
            ("ing-tiny", "ingest-full", 2, &["utility"]),
            ("pool-tiny", "pool-scoped", POOL_THREADS, &["checksum"]),
            ("pool-tiny", "pool-persistent", POOL_THREADS, &grains),
            ("web-tiny", "web-gen", 1, &["bytes_per_user"]),
            ("web-tiny", "web-solve", 1, &solve),
            ("web-tiny", "web-solve", 2, &solve),
        ];
        assert_eq!(cells.len(), 12 + expected.len());
        for (rung, algo, threads, extras) in expected {
            let cell = cells
                .iter()
                .find(|c| (c.rung.as_str(), c.algo.as_str(), c.threads) == (rung, algo, threads))
                .unwrap_or_else(|| panic!("missing cell {rung}/{algo} at {threads} threads"));
            for &extra in extras {
                assert!(cell.extra(extra).is_some(), "{rung}/{algo} lacks {extra}");
            }
        }
    }

    #[test]
    fn ingest_rung_measures_both_paths() {
        let rung = ingest_rungs(Ladder::Tiny)[0];
        let cells = run_ingest_rung(&rung, 2);
        // run_ingest_rung's internal guards already asserted value
        // equivalence and the full twin's dominance.
        let [incr, full] = &cells[..] else {
            panic!("two cells expected, got {cells:?}");
        };
        assert_eq!(incr.algo, "ingest-incremental");
        assert_eq!(full.algo, "ingest-full");
        assert!(incr.wall_ms > 0.0 && full.wall_ms > 0.0);
        assert!(incr.extra("updates_per_sec").unwrap() > 0.0);
        let fraction = incr.extra("resolved_shard_fraction").unwrap();
        assert!(
            fraction < 1.0,
            "drift-only churn must leave some shards clean, got {fraction}"
        );
        assert!(incr.extra("utility").unwrap() > 0.0);
    }

    #[test]
    fn web_rung_measures_and_gates() {
        let rung = web_rungs(Ladder::Tiny)[0];
        let cells = run_web_rung(&rung, 2);
        // run_web_rung's internal guards already asserted the bytes/user
        // ceiling, certificate bracket and feasibility.
        let [gen, one, many] = &cells[..] else {
            panic!("three cells expected, got {cells:?}");
        };
        assert_eq!((gen.algo.as_str(), gen.threads), ("web-gen", 1));
        assert_eq!((one.algo.as_str(), one.threads), ("web-solve", 1));
        assert_eq!((many.algo.as_str(), many.threads), ("web-solve", 2));
        assert_eq!(gen.extra("users"), Some(rung.users as f64));
        assert!(gen.extra("streams").unwrap() >= 64.0);
        assert!(gen.wall_ms > 0.0 && one.wall_ms > 0.0);
        let bytes_per_user = gen.extra("bytes_per_user").unwrap();
        assert!(bytes_per_user > 0.0 && bytes_per_user <= rung.max_bytes_per_user);
        let utility = one.extra("utility").unwrap();
        assert!(utility > 0.0 && utility <= one.extra("upper_bound").unwrap());
        assert!((0.0..=1.0).contains(&one.extra("gap_fraction").unwrap()));
        let num_shards = one.extra("num_shards").unwrap();
        assert!(
            num_shards >= rung.super_shards as f64,
            "two-level solve must split into at least one shard per \
             super-shard, got {num_shards}"
        );
    }

    #[test]
    fn web_rungs_resolve_by_name() {
        assert_eq!(web_rung_by_name("web-100k").unwrap().users, 100_000);
        assert_eq!(web_rung_by_name("web-tiny").unwrap().users, 3_000);
        assert!(web_rung_by_name("web-1g").is_none());
        // Every ladder's rungs are reachable from the registry (the smoke
        // mode must be able to name any of them).
        for ladder in [Ladder::Tiny, Ladder::Small, Ladder::Full] {
            for rung in web_rungs(ladder) {
                assert!(web_rung_by_name(rung.name).is_some(), "{}", rung.name);
            }
        }
    }

    #[test]
    fn utilities_are_thread_count_invariant() {
        // PerfReport::assemble asserts this internally; double-check on
        // the report.
        let report = tiny_report();
        let mut pairs = 0;
        for many in report.cells.iter().filter(|c| c.threads > 1) {
            if let Some(one) = report
                .cells
                .iter()
                .find(|c| c.threads == 1 && c.rung == many.rung && c.algo == many.algo)
            {
                assert_eq!(one.extra("utility"), many.extra("utility"));
                pairs += 1;
            }
        }
        // 6 solver + 2 ingest + 1 web-solve pairs.
        assert_eq!(pairs, 9);
    }

    /// A baseline over the synthetic report's gated cells, every entry at
    /// `wall_ms`, plus `extra` entries.
    fn baseline(calibration_ms: f64, wall_ms: f64, extra: &[(&str, &str)]) -> Value {
        let report = synthetic_report();
        let keys = report.keys().into_iter().chain(extra.iter().copied());
        let entries = keys
            .map(|(rung, algo)| {
                obj(vec![
                    ("rung", Value::String(rung.into())),
                    ("algo", Value::String(algo.into())),
                    ("wall_ms", Value::Number(wall_ms)),
                ])
            })
            .collect();
        obj(vec![
            ("calibration_ms", Value::Number(calibration_ms)),
            ("entries", Value::Array(entries)),
        ])
    }

    #[test]
    fn baseline_roundtrip_passes_self_check() {
        let report = synthetic_report();
        let baseline = report.to_baseline();
        let passes = check_baseline(&report, &baseline, None).unwrap();
        // 5 solver + 2 coverage-kernel + 2 ingest + 2 pool + 2 web cells.
        assert_eq!(passes.len(), 13, "{passes:?}");
        assert!(passes.iter().all(|l| l.starts_with("ok ")));
    }

    #[test]
    fn regression_is_detected() {
        let report = synthetic_report();
        // Above the gate floor but far below the measured 100 ms: every
        // cell must regress.
        let err = check_baseline(&report, &baseline(50.0, 10.0, &[]), None).unwrap_err();
        assert_eq!(err.len(), 13);
        assert!(err[0].starts_with("REGRESSION"));
    }

    #[test]
    fn gate_floor_skips_noise_cells() {
        let report = synthetic_report();
        // Below GATE_FLOOR_MS.
        let passes = check_baseline(&report, &baseline(50.0, 1.0, &[]), None).unwrap();
        assert!(
            passes.iter().all(|l| l.contains("gate floor")),
            "{passes:?}"
        );
    }

    #[test]
    fn calibration_rescales_the_baseline() {
        let report = synthetic_report(); // calibration 50 ms, cells 100 ms
                                         // 90 × 1.3 > 100: passes as-is.
        assert!(check_baseline(&report, &baseline(50.0, 90.0, &[]), None).is_ok());
        // Pretend the baseline machine was 2× slower (calibration 100 ms):
        // factor = 50/100 = 0.5 → allowed 90 × 0.5 × 1.3 = 58.5 < 100.
        let err = check_baseline(&report, &baseline(100.0, 90.0, &[]), None).unwrap_err();
        assert_eq!(err.len(), 13);
    }

    #[test]
    fn baseline_skips_unmeasured_rungs() {
        let report = synthetic_report();
        let with_xxl = baseline(50.0, 100.0, &[("xxl", "greedy")]);
        let passes = check_baseline(&report, &with_xxl, None).unwrap();
        assert!(passes.iter().any(|l| l.contains("not measured")));
    }

    #[test]
    fn missing_algo_on_a_measured_rung_fails_the_gate() {
        // A renamed cell: the rung ran, the baseline's algo is gone.
        let report = synthetic_report();
        let renamed = baseline(50.0, 100.0, &[("t0", "greedy-renamed")]);
        let err = check_baseline(&report, &renamed, None).unwrap_err();
        assert_eq!(err.len(), 1, "{err:?}");
        assert!(err[0].starts_with("MISSING t0/greedy-renamed"), "{err:?}");
    }

    #[test]
    fn tolerance_override_wins() {
        let report = synthetic_report();
        let baseline = report.to_baseline();
        // With an enormous negative headroom every cell regresses.
        let err = check_baseline(&report, &baseline, Some(-0.99999)).unwrap_err();
        assert_eq!(err.len(), 13);
    }

    #[test]
    fn non_finite_tolerance_is_rejected() {
        // Walls far below the measurement: any finite tolerance fails the
        // gate, so only the tolerance check can answer.
        let report = synthetic_report();
        let mut base = baseline(50.0, 10.0, &[]);
        for t in [f64::NAN, f64::INFINITY] {
            let err = check_baseline(&report, &base, Some(t)).unwrap_err();
            assert_eq!(err.len(), 1, "{err:?}");
            assert!(err[0].contains("tolerance must be finite"), "{err:?}");
        }
        // The baseline's own field is held to the same rule.
        if let Value::Object(fields) = &mut base {
            fields.push(("tolerance".into(), Value::Number(f64::NAN)));
        }
        let err = check_baseline(&report, &base, None).unwrap_err();
        assert!(err[0].contains("tolerance must be finite"), "{err:?}");
    }

    #[test]
    fn ladder_parse() {
        assert_eq!(Ladder::parse("small").unwrap(), Ladder::Small);
        assert_eq!(Ladder::parse("full").unwrap(), Ladder::Full);
        assert!(Ladder::parse("medium").is_err());
    }
}
