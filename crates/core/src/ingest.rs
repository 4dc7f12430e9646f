//! **Async ingest**: a streaming update frontend with incremental
//! shard-local re-solve.
//!
//! The paper's §5 setting is a system under churn — streams arrive and
//! depart continuously, interests drift, budgets get re-provisioned. The
//! offline pipeline answers every change by regenerating and re-solving the
//! whole instance; this module answers it incrementally. An
//! [`IngestEngine`] owns a live problem model and its committed solution,
//! accepts a typed update stream ([`Update`]), and answers each applied
//! batch with the same tree solve as [`solve_sharded`] — except that every
//! leaf whose solve would repeat a cached one takes its solution from a
//! *leaf memo* instead of re-solving.
//!
//! # Equivalence contract
//!
//! After every [`apply`](IngestEngine::apply) the engine's state is
//! **bit-identical** to a from-scratch [`solve_sharded`] of the updated
//! instance at the same [`ShardConfig`] — the property
//! `tests/ingest_churn.rs` pins differentially across thread counts. It
//! holds by construction, because there is only one pipeline:
//!
//! * both paths call the same tree solve of [`crate::algo::shard`]: build
//!   the root partition with its bounds and water-filled shares, plan
//!   every child, solve the leaves through one [`solve_batch`] loop,
//!   finish each child, merge and reconcile. The partition is refreshed
//!   on every apply, so structural drift cannot accumulate;
//! * the only difference is the memo: a leaf reuses the cached solution
//!   with the same global membership when that entry is not stale, no
//!   member was touched by the batch, and its water-filled share is
//!   unchanged. Membership, content and share determine the leaf's
//!   instance (its name is only a label), so the reused solution is the
//!   one the solve would return.
//!
//! The expensive part of a sharded solve is the per-leaf pipeline solves;
//! everything else is linear-ish bookkeeping that both paths run. On
//! low-churn batches over many leaves the incremental path therefore beats
//! the full re-solve by roughly the inverse dirty fraction (the `ingest`
//! rungs of the perf ladder gate this).
//!
//! # Certificate semantics
//!
//! Every applied batch returns an [`IngestOutcome`] with a refreshed
//! *certified* bracket `utility ≤ OPT ≤ upper_bound` for the updated
//! instance (same Lemma 2.1 argument as the sharded solver: per-shard
//! bounds plus cut mass). Between applies the committed certificate keeps
//! referring to the last applied state; pending updates are provisional
//! until the next apply.
//!
//! # Re-shard trigger
//!
//! When more than [`IngestConfig::max_dirty_fraction`] of the leaves miss
//! the memo (at either tree depth), or the root cut mass exceeds
//! [`IngestConfig::max_cut_fraction`] of the upper bound, the engine
//! escalates to a full re-solve: every leaf is solved and the memo is
//! ignored (the partition itself is always fresh). Incremental bookkeeping
//! buys nothing once most of the solution is stale — the trigger keeps the
//! engine from paying memo overhead on top of a full solve's work.
//!
//! # Solve-cost governance
//!
//! [`IngestConfig::budget`] arms the [`crate::govern`] layer: soft/hard
//! limits on one apply's wall time and work (streams × users re-solved),
//! checked between leaf solves, with the escalating degrade ladder —
//! widen the certified gap (skip remaining dirty solves, keep their fresh
//! bounds), defer an escalated full re-solve to background maintenance
//! ([`refresh_wanted`](IngestEngine::refresh_wanted)), or shed to the
//! last committed bracket. Under the default
//! [`SolveBudget::unlimited`] every apply is bit-identical to an
//! ungoverned engine; once a budget degrades an apply, the equivalence
//! contract is intentionally suspended until the stale shards are
//! re-solved (the next affordable apply, or a
//! [`refresh_full`](IngestEngine::refresh_full)) — the certificate itself
//! stays sound
//! throughout, because skipped shards keep their freshly recomputed upper
//! bounds while contributing only their stale (or empty) utility.
//!
//! # Admission between re-solves
//!
//! [`IngestSnapshot::provisional_admissions`] runs the §5
//! [`OnlineAllocator`] (Algorithm 2) over updates the snapshot has not
//! applied: warm-started from the committed assignment via
//! [`preload`](OnlineAllocator::preload), it decides each pending arrival
//! by the exponential-cost rule, giving an immediate, feasibility-safe
//! admission verdict without waiting for the batch re-solve (which later
//! supersedes it). An engine previews its own queue as
//! `engine.snapshot(epoch).provisional_admissions(engine.pending(), config)`.
//!
//! # Truly asynchronous applies
//!
//! The engine keeps its committed state as one [`IngestSnapshot`] whose
//! instances, model and assignment sit behind `Arc`s: a commit moves the
//! freshly solved parts into new `Arc`s, and
//! [`snapshot`](IngestEngine::snapshot) copies only the handles.
//! [`async_apply`] lifts the engine onto a dedicated solver thread: an
//! [`async_apply::AsyncIngest`] accepts pre-validated batches as numbered
//! *epochs* while re-solves run in the background, publishing each
//! committed snapshot with an atomic swap so readers never block on an
//! in-flight re-solve. Batch order — and therefore bit-identity with the
//! synchronous path — is preserved because one solver thread applies
//! epochs strictly in submission order.
//!
//! A panic inside a re-solve does not take the engine down:
//! [`apply`](IngestEngine::apply) and
//! [`refresh_full`](IngestEngine::refresh_full) catch it and return
//! [`IngestError::SolverPanic`] with the committed state untouched. A
//! panic elsewhere on the async solver thread ends that thread; its
//! waiters and later submitters then get `SolverPanic` instead of
//! blocking.
//!
//! [`solve_sharded`]: crate::algo::shard::solve_sharded
//! [`solve_batch`]: crate::algo::batch::solve_batch

pub mod async_apply;

use crate::algo::online::{OfferOutcome, OnlineAllocator, OnlineConfig};
use crate::algo::shard::{
    fraction_of, solve_tree, Governance, Leaf, LeafMemo, LeafState, Shard, ShardConfig, Tree,
    TreeSolve,
};
use crate::assignment::Assignment;
use crate::error::{BuildError, SolveError};
use crate::govern::SolveBudget;
use crate::ids::{StreamId, UserId};
use crate::instance::Instance;
use crate::num;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// One update of the streaming frontend.
#[derive(Clone, Debug, PartialEq)]
pub enum Update {
    /// The stream becomes available: its costs and its current interests
    /// re-enter the instance. A no-op if the stream is already live.
    StreamArrival(StreamId),
    /// The stream leaves: its costs and interests leave the instance (its
    /// interest weights are retained for a later re-arrival). A no-op if
    /// the stream is already departed.
    StreamDeparture(StreamId),
    /// Sets the utility `w_u(S)` to `weight`. `0` removes the interest;
    /// a weight for a previously unknown (user, stream) pair creates one
    /// (with zero capacity loads). Weights of departed streams are updated
    /// in the retained model and take effect on re-arrival.
    InterestChange {
        /// The user whose interest changes.
        user: UserId,
        /// The stream concerned.
        stream: StreamId,
        /// The new utility (finite, nonnegative; `0` removes).
        weight: f64,
    },
    /// Re-provisions server budget `B_i`. Must remain at least the cost of
    /// every currently live stream in that measure (model assumption
    /// `c_i(S) ≤ B_i`).
    BudgetChange {
        /// The server measure.
        measure: usize,
        /// The new budget (nonnegative; `f64::INFINITY` = unconstrained).
        budget: f64,
    },
}

/// Errors raised by [`IngestEngine`] operations.
#[derive(Debug)]
pub enum IngestError {
    /// An update referenced a stream outside the engine's universe.
    UnknownStream(StreamId),
    /// An update referenced an unknown user.
    UnknownUser(UserId),
    /// An update referenced an unknown server measure.
    UnknownMeasure(usize),
    /// An interest weight was negative, infinite or NaN.
    InvalidWeight {
        /// The offending update's user.
        user: UserId,
        /// The offending update's stream.
        stream: StreamId,
        /// The rejected weight.
        weight: f64,
    },
    /// A budget was negative or NaN.
    InvalidBudget {
        /// The measure concerned.
        measure: usize,
        /// The rejected budget.
        budget: f64,
    },
    /// Applying the update would violate `c_i(S) ≤ B_i` for a live stream.
    CostExceedsBudget {
        /// The stream whose cost no longer fits.
        stream: StreamId,
        /// The measure concerned.
        measure: usize,
        /// The stream's cost in that measure.
        cost: f64,
        /// The budget it exceeds.
        budget: f64,
    },
    /// Materializing the updated instance failed (internal invariant).
    Build(BuildError),
    /// A shard solve failed.
    Solve(SolveError),
    /// A re-solve panicked. The panic was caught and the committed state
    /// is unchanged; the message is the panic's payload.
    SolverPanic(String),
    /// An asynchronous apply epoch was processed, but its outcome was
    /// pruned from the retention window before the waiter looked (see
    /// [`AsyncIngest::wait`](crate::AsyncIngest::wait)). The epoch *was*
    /// committed or rejected — only the record of which is gone.
    OutcomeExpired {
        /// The epoch whose outcome is no longer retained.
        epoch: u64,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::UnknownStream(s) => write!(f, "update references unknown {s}"),
            IngestError::UnknownUser(u) => write!(f, "update references unknown {u}"),
            IngestError::UnknownMeasure(i) => write!(f, "update references unknown measure {i}"),
            IngestError::InvalidWeight {
                user,
                stream,
                weight,
            } => write!(f, "invalid weight {weight} for ({user}, {stream})"),
            IngestError::InvalidBudget { measure, budget } => {
                write!(f, "invalid budget {budget} for measure {measure}")
            }
            IngestError::CostExceedsBudget {
                stream,
                measure,
                cost,
                budget,
            } => write!(
                f,
                "{stream} costs {cost} in measure {measure}, above budget {budget}"
            ),
            IngestError::Build(e) => write!(f, "materializing updated instance: {e}"),
            IngestError::Solve(e) => write!(f, "re-solving dirty shards: {e}"),
            IngestError::SolverPanic(message) => write!(f, "re-solve panicked: {message}"),
            IngestError::OutcomeExpired { epoch } => write!(
                f,
                "outcome of apply epoch {epoch} fell out of the retention window"
            ),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<BuildError> for IngestError {
    fn from(e: BuildError) -> Self {
        IngestError::Build(e)
    }
}

impl From<SolveError> for IngestError {
    fn from(e: SolveError) -> Self {
        IngestError::Solve(e)
    }
}

/// Configuration for [`IngestEngine`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IngestConfig {
    /// The sharded-solver configuration every state is solved under (shard
    /// size cap, thread count, per-shard pipeline, budget slack). The
    /// engine's equivalence contract is against [`solve_sharded`] at
    /// exactly this configuration.
    ///
    /// [`solve_sharded`]: crate::algo::shard::solve_sharded
    pub shard: ShardConfig,
    /// Full re-solve when more than this fraction of the shards (inner
    /// shards at depth 2) miss the leaf memo (see the module docs). `1.0`
    /// never escalates; `0.0` escalates on any miss at all (a batch that
    /// touched nothing still re-solves nothing — there is nothing stale to
    /// refresh).
    pub max_dirty_fraction: f64,
    /// Full re-solve when the root's `cut_mass / upper_bound` exceeds
    /// this fraction — the partition has degraded enough that memoized
    /// locality is suspect.
    pub max_cut_fraction: f64,
    /// Per-apply solve-cost budget (see [`crate::govern`]). The default is
    /// [`SolveBudget::unlimited`], under which every apply is bit-identical
    /// to an ungoverned engine; any configured limit arms the degrade
    /// ladder (soft trip → widen the gap, hard trip →
    /// [`SolveBudget::hard_action`]).
    pub budget: SolveBudget,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            shard: ShardConfig::default(),
            max_dirty_fraction: 0.5,
            max_cut_fraction: 0.25,
            budget: SolveBudget::unlimited(),
        }
    }
}

impl IngestConfig {
    /// Sets the worker thread count of the shard fan-out.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.shard.threads = threads;
        self
    }

    /// Sets the per-apply solve-cost budget.
    #[must_use]
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// The result of one applied batch: how much work the batch caused, and
/// the refreshed certificate for the updated instance.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IngestOutcome {
    /// Updates applied in this batch.
    pub updates_applied: usize,
    /// Shards of the refreshed partition.
    pub num_shards: usize,
    /// Shards that missed the leaf memo (before any trigger escalation).
    pub dirty_shards: usize,
    /// Shards actually re-solved (equals `num_shards` on a full re-solve).
    pub resolved_shards: usize,
    /// Super-shards of the coarse partition (0 in single-level mode; in
    /// two-level mode `num_shards`/`dirty_shards`/`resolved_shards` count
    /// *inner* shards).
    pub super_shards: usize,
    /// Super-shards holding an inner shard that missed the leaf memo,
    /// before any trigger escalation (0 in single-level mode).
    pub dirty_supers: usize,
    /// Super-shards holding an inner shard re-solved by this apply (equals
    /// `super_shards` on a full re-solve; 0 in single-level mode).
    pub resolved_supers: usize,
    /// Whether a re-shard trigger escalated this batch to a full re-solve.
    pub full_resolve: bool,
    /// Capped utility of the committed assignment — certified lower bound.
    pub utility: f64,
    /// Certified upper bound on the updated instance's optimum.
    pub upper_bound: f64,
    /// Relative gap `(upper_bound − utility) / upper_bound`, clamped to
    /// `[0, 1]`, `0` when the upper bound is `0`.
    pub gap_fraction: f64,
    /// Interests cut by the size-capped splitter in the fresh partition.
    pub cut_edges: usize,
    /// Total utility of the cut interests.
    pub cut_mass: f64,
    /// Streams dropped by the global budget repair pass.
    pub repaired_streams: usize,
    /// Whether solve-cost governance degraded this apply in any way (a
    /// budget trip or a deferred full re-solve). Always `false` under
    /// [`SolveBudget::unlimited`].
    pub degraded: bool,
    /// Whether the soft budget limit tripped during this apply.
    pub soft_tripped: bool,
    /// Whether the hard budget limit tripped during this apply.
    pub hard_tripped: bool,
    /// Dirty shards whose re-solve was skipped by a budget trip (their
    /// stale or empty local solutions were merged instead; their fresh
    /// upper bounds stay in the certificate).
    pub skipped_shards: usize,
    /// `true` when this outcome was answered from the last committed
    /// bracket because a hard trip shed the apply
    /// ([`ShedToCache`](crate::govern::DegradeAction::ShedToCache)): the
    /// batch was *not* applied and the certificate describes the previous
    /// committed instance.
    pub stale: bool,
    /// Fraction of `upper_bound` contributed by shard bounds whose solves
    /// were skipped (`1.0` for a shed apply, `0.0` when nothing was
    /// skipped). The certified gap can be wider than usual by at most
    /// this fraction.
    pub stale_gap_fraction: f64,
    /// Whether an escalated full re-solve was deferred to background
    /// maintenance instead of blocking this batch (see
    /// [`IngestEngine::refresh_wanted`]).
    pub deferred_full: bool,
}

/// Monotone operation counters of an [`IngestEngine`] — the substrate of a
/// serving frontend's machine-readable metrics snapshot (`mmd-serve`).
///
/// All counters except [`last_apply_nanos`](Self::last_apply_nanos) (a
/// gauge) are nondecreasing over the engine's lifetime. The initial solve
/// performed by [`IngestEngine::new`] is not counted — counters cover the
/// update stream only, so a freshly constructed engine reports all zeros.
///
/// # Examples
///
/// ```
/// use mmd_core::{Instance, IngestConfig, IngestEngine};
/// use mmd_core::ingest::Update;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Instance::builder("m").server_budgets(vec![10.0]);
/// let s = b.add_stream(vec![1.0]);
/// let u = b.add_user(f64::INFINITY, vec![]);
/// b.add_interest(u, s, 2.0, vec![])?;
/// let mut engine = IngestEngine::new(b.build()?, IngestConfig::default())?;
/// assert_eq!(engine.metrics().applies, 0);
///
/// engine.push(Update::StreamDeparture(s))?;
/// engine.apply()?;
/// let m = engine.metrics();
/// assert_eq!(m.applies, 1);
/// assert_eq!(m.updates_applied, 1);
/// assert!(m.total_apply_nanos >= m.last_apply_nanos);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestMetrics {
    /// Successfully applied batches ([`apply`](IngestEngine::apply) calls
    /// that returned `Ok`, plus [`refresh_full`](IngestEngine::refresh_full)
    /// runs).
    pub applies: u64,
    /// Updates committed across all successful applies.
    pub updates_applied: u64,
    /// Applies escalated to a full re-solve (re-shard trigger or an
    /// explicit [`refresh_full`](IngestEngine::refresh_full)).
    pub full_resolves: u64,
    /// Shards re-solved across all applies.
    pub resolved_shards: u64,
    /// Total shard slots across all applies (`num_shards` summed per
    /// batch); `resolved_shards / shard_slots` is the engine's lifetime
    /// dirty-work ratio — see [`dirty_fraction`](Self::dirty_fraction).
    pub shard_slots: u64,
    /// Super-shard slots across all applies (`super_shards` summed per
    /// batch; stays 0 in single-level mode).
    pub super_slots: u64,
    /// Super-shards holding a re-solved inner shard, across all applies
    /// (two-level mode).
    pub resolved_supers: u64,
    /// Shard solves skipped because the leaf memo held the
    /// `(membership, content, share)`-keyed solution (either mode; the
    /// solves that did run are [`resolved_shards`](Self::resolved_shards)).
    pub inner_cache_hits: u64,
    /// [`apply`](IngestEngine::apply) calls that returned an error (the
    /// committed state was left untouched each time).
    pub rejected_batches: u64,
    /// Updates rejected by structural validation in
    /// [`push`](IngestEngine::push) / [`push_batch`](IngestEngine::push_batch)
    /// (never enqueued).
    pub rejected_updates: u64,
    /// Wall-clock nanoseconds of the most recent successful apply (gauge).
    pub last_apply_nanos: u64,
    /// Wall-clock nanoseconds summed over all successful applies.
    pub total_apply_nanos: u64,
    /// Applies during which the soft budget limit tripped.
    pub budget_soft_trips: u64,
    /// Applies during which the hard budget limit tripped.
    pub budget_hard_trips: u64,
    /// Applies degraded by solve-cost governance in any way (skipped
    /// shard solves, a deferred full re-solve, or a shed apply).
    pub degraded_applies: u64,
    /// Escalated full re-solves deferred to background maintenance
    /// instead of blocking their batch.
    pub deferred_full_resolves: u64,
}

impl IngestMetrics {
    /// Lifetime re-solved fraction of shard-batch slots: `1.0` means every
    /// batch re-solved every shard, `0.0` means no shard work at all (or no
    /// applies yet).
    pub fn dirty_fraction(&self) -> f64 {
        if self.shard_slots == 0 {
            0.0
        } else {
            self.resolved_shards as f64 / self.shard_slots as f64
        }
    }

    /// Lifetime re-solved fraction of super-shard slots (two-level mode):
    /// `1.0` means every batch re-solved an inner shard in every
    /// super-shard, `0.0` means no inner shard was re-solved at all (or no
    /// two-level applies yet).
    pub fn dirty_super_fraction(&self) -> f64 {
        if self.super_slots == 0 {
            0.0
        } else {
            self.resolved_supers as f64 / self.super_slots as f64
        }
    }
}

/// One user's current interest state in the mutable model.
#[derive(Clone, Debug)]
struct InterestState {
    weight: f64,
    loads: Vec<f64>,
}

/// Per-element touch flags accumulated while a batch is applied to the
/// model: a leaf with a touched member never reuses its memo entry.
struct Touched {
    streams: Vec<bool>,
    users: Vec<bool>,
}

impl Touched {
    /// Flags every stream and user of `base` as `touched`.
    fn uniform(base: &Instance, touched: bool) -> Self {
        Touched {
            streams: vec![touched; base.num_streams()],
            users: vec![touched; base.num_users()],
        }
    }

    /// Whether any member of `shard` was touched.
    fn touches(&self, shard: &Shard) -> bool {
        shard.streams.iter().any(|s| self.streams[s.index()])
            || shard.users.iter().any(|u| self.users[u.index()])
    }
}

/// The mutable problem model behind the immutable [`Instance`] snapshots.
#[derive(Clone, Debug)]
struct Model {
    live: Vec<bool>,
    budgets: Vec<f64>,
    /// Per user: current interests (weight + capacity loads), keyed by
    /// stream. Retained across departures so re-arrivals restore them.
    interests: Vec<BTreeMap<StreamId, InterestState>>,
}

impl Model {
    fn from_instance(base: &Instance) -> Self {
        Model {
            live: vec![true; base.num_streams()],
            budgets: base.budgets().to_vec(),
            interests: base
                .users()
                .map(|u| {
                    base.user(u)
                        .interests()
                        .iter()
                        .map(|i| {
                            (
                                i.stream(),
                                InterestState {
                                    weight: i.utility(),
                                    loads: i.loads().to_vec(),
                                },
                            )
                        })
                        .collect()
                })
                .collect(),
        }
    }

    /// Applies one update, recording what it touched: the structural
    /// checks of [`Universe::validate`], then the stateful budget checks.
    /// Errors leave the model in the state reached so far — callers apply
    /// batches to a scratch clone and commit on success.
    fn apply(
        &mut self,
        base: &Instance,
        update: &Update,
        touched: &mut Touched,
    ) -> Result<(), IngestError> {
        Universe::of(base).validate(update)?;
        match *update {
            Update::StreamArrival(s) => {
                for (i, &b) in self.budgets.iter().enumerate() {
                    let cost = base.cost(s, i);
                    if !num::approx_le(cost, b) {
                        return Err(IngestError::CostExceedsBudget {
                            stream: s,
                            measure: i,
                            cost,
                            budget: b,
                        });
                    }
                }
                if !self.live[s.index()] {
                    self.live[s.index()] = true;
                    touched.streams[s.index()] = true;
                }
            }
            Update::StreamDeparture(s) => {
                if self.live[s.index()] {
                    self.live[s.index()] = false;
                    touched.streams[s.index()] = true;
                }
            }
            Update::InterestChange {
                user,
                stream,
                weight,
            } => {
                let per_user = &mut self.interests[user.index()];
                if weight == 0.0 {
                    per_user.remove(&stream);
                } else {
                    let m_c = base.user(user).num_capacities();
                    per_user
                        .entry(stream)
                        .and_modify(|i| i.weight = weight)
                        .or_insert_with(|| InterestState {
                            weight,
                            loads: vec![0.0; m_c],
                        });
                }
                // Weight edits of departed streams change nothing
                // materialized; the eventual re-arrival touches the stream.
                if self.live[stream.index()] {
                    touched.streams[stream.index()] = true;
                    touched.users[user.index()] = true;
                }
            }
            Update::BudgetChange { measure, budget } => {
                for (si, &live) in self.live.iter().enumerate() {
                    let s = StreamId::new(si);
                    let cost = base.cost(s, measure);
                    if live && !num::approx_le(cost, budget) {
                        return Err(IngestError::CostExceedsBudget {
                            stream: s,
                            measure,
                            cost,
                            budget,
                        });
                    }
                }
                // Budgets reach the leaves only through their water-filled
                // shares, which key the memo: nothing to mark touched.
                self.budgets[measure] = budget;
            }
        }
        Ok(())
    }

    /// Builds the immutable [`Instance`] snapshot of the current model:
    /// departed streams stay in the universe (stable ids) with zero costs
    /// and no interests.
    fn materialize(&self, base: &Instance) -> Result<Instance, BuildError> {
        let m = base.num_measures();
        let mut b = Instance::builder(base.name()).server_budgets(self.budgets.clone());
        for s in base.streams() {
            b.add_stream(if self.live[s.index()] {
                base.costs(s).to_vec()
            } else {
                vec![0.0; m]
            });
        }
        for u in base.users() {
            let spec = base.user(u);
            b.add_user(spec.utility_cap(), spec.capacities().to_vec());
        }
        for (ui, per_user) in self.interests.iter().enumerate() {
            for (&s, interest) in per_user {
                if self.live[s.index()] && interest.weight > 0.0 {
                    b.add_interest(UserId::new(ui), s, interest.weight, interest.loads.clone())?;
                }
            }
        }
        b.build()
    }
}

/// The leaf memo: every leaf of the last committed tree, found through
/// the leaf holding a given stream or user. A leaf is looked up by its
/// first stream (or, when it has none, its first user) and matches only
/// an entry with exactly its membership.
#[derive(Clone, Debug, Default)]
struct LeafCache {
    leaves: Vec<Leaf>,
    leaf_of_stream: Vec<usize>,
    leaf_of_user: Vec<usize>,
}

impl LeafCache {
    fn new(leaves: Vec<Leaf>, instance: &Instance) -> Self {
        let mut leaf_of_stream = vec![usize::MAX; instance.num_streams()];
        let mut leaf_of_user = vec![usize::MAX; instance.num_users()];
        for (j, leaf) in leaves.iter().enumerate() {
            for s in &leaf.shard.streams {
                leaf_of_stream[s.index()] = j;
            }
            for u in &leaf.shard.users {
                leaf_of_user[u.index()] = j;
            }
        }
        LeafCache {
            leaves,
            leaf_of_stream,
            leaf_of_user,
        }
    }
}

/// The memo as one resolve sees it. An entry is fresh when a budget trip
/// did not skip its solve (stale entries never hit, so governance
/// self-heals), no member was touched by the batch, and it was solved
/// under the same share.
struct MemoView<'a> {
    cache: &'a LeafCache,
    touched: &'a Touched,
}

impl LeafMemo for MemoView<'_> {
    fn find(&self, leaf: &Shard, share: &[f64]) -> Option<(&Assignment, bool)> {
        let cache = self.cache;
        let j = match (leaf.streams.first(), leaf.users.first()) {
            (Some(s), _) => cache.leaf_of_stream.get(s.index()),
            (None, Some(u)) => cache.leaf_of_user.get(u.index()),
            (None, None) => None,
        }?;
        let entry = cache.leaves.get(*j).filter(|e| e.shard == *leaf)?;
        let fresh = entry.state != LeafState::Skipped
            && entry.share == share
            && !self.touched.touches(leaf);
        Some((&entry.local, fresh))
    }
}

/// The fixed id universe of an engine: the dimension bounds every update
/// is validated against.
///
/// Updates never grow an instance — arrivals and departures toggle
/// liveness of streams that exist in the base instance — so structural
/// validation (unknown ids, non-finite numbers) needs only these three
/// counts. The async apply path validates on the submitting thread with a
/// `Universe` while the engine itself lives on the solver thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Universe {
    streams: usize,
    users: usize,
    measures: usize,
}

impl Universe {
    /// The universe of `instance`.
    #[must_use]
    pub fn of(instance: &Instance) -> Self {
        Universe {
            streams: instance.num_streams(),
            users: instance.num_users(),
            measures: instance.num_measures(),
        }
    }

    /// Number of streams in the universe.
    #[must_use]
    pub fn num_streams(&self) -> usize {
        self.streams
    }

    /// Number of users in the universe.
    #[must_use]
    pub fn num_users(&self) -> usize {
        self.users
    }

    /// Number of server cost measures.
    #[must_use]
    pub fn num_measures(&self) -> usize {
        self.measures
    }

    /// Structural validation of one update against this universe: unknown
    /// ids and invalid numbers are rejected here, stateful validation
    /// (budget coverage) happens at apply time.
    ///
    /// # Errors
    ///
    /// Returns the structural [`IngestError`] for the first violation.
    pub fn validate(&self, update: &Update) -> Result<(), IngestError> {
        match *update {
            Update::StreamArrival(s) | Update::StreamDeparture(s) => {
                if s.index() >= self.streams {
                    return Err(IngestError::UnknownStream(s));
                }
            }
            Update::InterestChange {
                user,
                stream,
                weight,
            } => {
                if stream.index() >= self.streams {
                    return Err(IngestError::UnknownStream(stream));
                }
                if user.index() >= self.users {
                    return Err(IngestError::UnknownUser(user));
                }
                if !weight.is_finite() || weight < 0.0 {
                    return Err(IngestError::InvalidWeight {
                        user,
                        stream,
                        weight,
                    });
                }
            }
            Update::BudgetChange { measure, budget } => {
                if measure >= self.measures {
                    return Err(IngestError::UnknownMeasure(measure));
                }
                if budget.is_nan() || budget < 0.0 {
                    return Err(IngestError::InvalidBudget { measure, budget });
                }
            }
        }
        Ok(())
    }
}

/// The stateful streaming frontend (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct IngestEngine {
    /// The committed state, shared with every snapshot taken of it.
    committed: IngestSnapshot,
    config: IngestConfig,
    pending: Vec<Update>,
    cache: LeafCache,
    /// Set when governance deferred an escalated full re-solve
    /// ([`DeferFull`](crate::govern::DegradeAction::DeferFull)); cleared
    /// by a successful [`refresh_full`](Self::refresh_full).
    deferred_refresh: bool,
    /// Fault injection: the resolve of the apply or refresh with this
    /// 1-based ordinal (committed plus rejected) panics.
    #[cfg(test)]
    panic_on_apply: Option<u64>,
    /// Fault injection: taking the snapshot of this epoch panics, outside
    /// the re-solve's `catch_panic` (see [`PANIC_ON_PUBLISH`]).
    #[cfg(any(test, feature = "fault-injection"))]
    panic_on_publish: Option<u64>,
}

#[cfg(any(test, feature = "fault-injection"))]
thread_local! {
    /// Fault injection for tests: an engine created on a thread where this
    /// is `Some(epoch)` panics when it takes that epoch's snapshot. On an
    /// [`AsyncIngest`](crate::AsyncIngest) that is the publish after the
    /// epoch's apply, so the solver thread dies there.
    pub static PANIC_ON_PUBLISH: std::cell::Cell<Option<u64>> =
        const { std::cell::Cell::new(None) };
}

/// Runs `resolve`, turning a panic inside it into
/// [`IngestError::SolverPanic`]. Resolves write nothing to the engine, so
/// a caught panic leaves the committed state as it was.
fn catch_panic<T>(resolve: impl FnOnce() -> Result<T, IngestError>) -> Result<T, IngestError> {
    panic::catch_unwind(AssertUnwindSafe(resolve)).unwrap_or_else(|payload| {
        let message = (payload.downcast_ref::<String>().map(String::as_str))
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("opaque payload");
        Err(IngestError::SolverPanic(message.to_owned()))
    })
}

impl IngestEngine {
    /// Creates an engine over `base` — every stream initially live — and
    /// solves the initial state fully.
    ///
    /// # Errors
    ///
    /// Propagates materialization or solve failures ([`IngestError::Build`]
    /// / [`IngestError::Solve`]; neither occurs for well-formed instances).
    pub fn new(base: Instance, config: IngestConfig) -> Result<Self, IngestError> {
        let started = Instant::now();
        let base = Arc::new(base);
        let mut engine = IngestEngine {
            committed: IngestSnapshot {
                epoch: 0,
                assignment: Arc::new(Assignment::for_instance(&base)),
                model: Arc::new(Model::from_instance(&base)),
                current: Arc::clone(&base),
                base,
                last: IngestOutcome::default(),
                metrics: IngestMetrics::default(),
            },
            config,
            pending: Vec::new(),
            cache: LeafCache::default(),
            deferred_refresh: false,
            #[cfg(test)]
            panic_on_apply: None,
            #[cfg(any(test, feature = "fault-injection"))]
            panic_on_publish: PANIC_ON_PUBLISH.get(),
        };
        let touched = Touched::uniform(&engine.committed.base, true);
        // The initial solve is never governed: a serving frontend needs a
        // complete certified bracket before it can degrade from one.
        let model = &engine.committed.model;
        let (current, tree) = engine.resolve(model, &touched, started, SolveBudget::unlimited())?;
        let Tree::Solved(tree) = tree else {
            unreachable!("an unlimited budget never sheds")
        };
        engine.commit(current, *tree, 0, started);
        engine.committed.metrics = IngestMetrics::default();
        Ok(engine)
    }

    /// The engine's configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// The committed instance snapshot (the last applied state).
    pub fn current_instance(&self) -> &Instance {
        self.committed.current_instance()
    }

    /// The committed assignment.
    pub fn assignment(&self) -> &Assignment {
        self.committed.assignment()
    }

    /// Capped utility of the committed assignment.
    pub fn utility(&self) -> f64 {
        self.committed.utility()
    }

    /// The last applied batch's outcome (the current certificate).
    pub fn last_outcome(&self) -> &IngestOutcome {
        self.committed.last_outcome()
    }

    /// Monotone operation counters since construction (the initial solve is
    /// not counted). See [`IngestMetrics`].
    pub fn metrics(&self) -> &IngestMetrics {
        self.committed.metrics()
    }

    /// Updates queued but not yet applied.
    pub fn pending(&self) -> &[Update] {
        &self.pending
    }

    /// Number of currently live streams (committed model).
    pub fn num_live(&self) -> usize {
        self.committed.num_live()
    }

    /// The engine's fixed id [`Universe`] — what
    /// [`push`](Self::push)/[`push_batch`](Self::push_batch) validate
    /// against, exported so asynchronous frontends can pre-validate on the
    /// submitting thread.
    #[must_use]
    pub fn universe(&self) -> Universe {
        Universe::of(&self.committed.base)
    }

    /// The committed state stamped with `epoch` — what the async apply
    /// path publishes after each commit so queries never wait on an
    /// in-flight re-solve. It shares the engine's instances, model and
    /// assignment, so taking one copies no `Instance`, model or
    /// `Assignment`.
    #[must_use]
    pub fn snapshot(&self, epoch: u64) -> IngestSnapshot {
        #[cfg(any(test, feature = "fault-injection"))]
        assert_ne!(self.panic_on_publish, Some(epoch), "injected publish fault");
        IngestSnapshot {
            epoch,
            ..self.committed.clone()
        }
    }

    /// Queues one update for the next [`apply`](Self::apply). Structural
    /// validation (unknown ids, invalid numbers) happens immediately;
    /// stateful validation (budget coverage) happens at apply time.
    ///
    /// # Errors
    ///
    /// Returns the structural [`IngestError`] without queuing anything.
    pub fn push(&mut self, update: Update) -> Result<(), IngestError> {
        self.push_batch([update]).map(drop)
    }

    /// Queues a whole batch atomically: either every update passes
    /// structural validation and all are enqueued in order, or none are.
    ///
    /// This is the serving frontend's entry point — interleaved clients
    /// push whole frames, and a frame whose third update is garbage must
    /// not leave its first two in the shared pending queue (a later
    /// `apply`, possibly triggered by another client, would silently commit
    /// the partial batch).
    ///
    /// # Errors
    ///
    /// Returns the first structural [`IngestError`] in the batch; the
    /// pending queue is left exactly as it was.
    ///
    /// # Examples
    ///
    /// ```
    /// use mmd_core::{Instance, IngestConfig, IngestEngine, StreamId};
    /// use mmd_core::ingest::Update;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut b = Instance::builder("b").server_budgets(vec![10.0]);
    /// let s = b.add_stream(vec![1.0]);
    /// let u = b.add_user(f64::INFINITY, vec![]);
    /// b.add_interest(u, s, 2.0, vec![])?;
    /// let mut engine = IngestEngine::new(b.build()?, IngestConfig::default())?;
    ///
    /// // The poisoned tail rejects the whole batch: nothing is queued.
    /// let poisoned = vec![
    ///     Update::StreamDeparture(s),
    ///     Update::StreamArrival(StreamId::new(99)),
    /// ];
    /// assert!(engine.push_batch(poisoned).is_err());
    /// assert!(engine.pending().is_empty());
    /// # Ok(())
    /// # }
    /// ```
    pub fn push_batch(
        &mut self,
        updates: impl IntoIterator<Item = Update>,
    ) -> Result<usize, IngestError> {
        let updates: Vec<Update> = updates.into_iter().collect();
        for update in &updates {
            if let Err(e) = self.universe().validate(update) {
                self.committed.metrics.rejected_updates += 1;
                return Err(e);
            }
        }
        let n = updates.len();
        self.pending.extend(updates);
        Ok(n)
    }

    /// Drops all pending updates without applying them.
    pub fn clear_pending(&mut self) {
        self.pending.clear();
    }

    /// Applies every pending update as one batch: mutates the model,
    /// refreshes the shard partition, re-solves the dirty shards, re-runs
    /// the global reconciliation passes, and returns the refreshed
    /// certificate.
    ///
    /// On error (stateful validation, a solve failure or a panic inside
    /// the re-solve) the committed state is unchanged and the pending
    /// queue is retained for inspection;
    /// [`clear_pending`](Self::clear_pending) discards it.
    ///
    /// # Errors
    ///
    /// Returns the first [`IngestError`] encountered.
    pub fn apply(&mut self) -> Result<IngestOutcome, IngestError> {
        let started = Instant::now();
        let base = &self.committed.base;
        let mut model = Model::clone(&self.committed.model);
        let mut touched = Touched::uniform(base, false);
        let resolved = self
            .pending
            .iter()
            .try_for_each(|update| model.apply(base, update, &mut touched))
            .and_then(|()| {
                catch_panic(|| self.resolve(&model, &touched, started, self.config.budget))
            });
        match resolved {
            Ok((current, Tree::Solved(tree))) => {
                self.committed.model = Arc::new(model);
                let applied = std::mem::take(&mut self.pending).len();
                Ok(self.commit(current, *tree, applied, started))
            }
            Ok((_, Tree::Shed { soft_tripped })) => {
                // A hard budget trip shed the apply: the committed state
                // keeps serving as-is and the pending updates are retained
                // for a retry. The returned outcome is the last committed
                // bracket, marked stale — its certificate describes the
                // *previous* instance, not the requested post-batch one.
                let IngestSnapshot { last, metrics, .. } = &mut self.committed;
                metrics.budget_soft_trips += u64::from(soft_tripped);
                metrics.budget_hard_trips += 1;
                metrics.degraded_applies += 1;
                last.updates_applied = 0;
                last.degraded = true;
                last.soft_tripped = soft_tripped;
                last.hard_tripped = true;
                last.stale = true;
                last.stale_gap_fraction = 1.0;
                Ok(*last)
            }
            Err(e) => {
                self.committed.metrics.rejected_batches += 1;
                Err(e)
            }
        }
    }

    /// Forces a full re-solve of the committed state — every shard is
    /// treated as dirty, nothing is reused from the memo. Pending updates
    /// are untouched (they still need an [`apply`](Self::apply)).
    ///
    /// This is the graceful-maintenance entry point of a serving frontend:
    /// scheduled in the background (between request bursts), it refreshes
    /// every memoized shard solution and the certificate from first
    /// principles. By the engine's equivalence contract the committed
    /// state is already bit-identical to a from-scratch solve, so the
    /// committed assignment and bracket are unchanged — the value is the
    /// rebuilt memo (and the differential reassurance itself).
    ///
    /// # Errors
    ///
    /// Propagates materialization or solve failures and panics inside the
    /// re-solve; the committed state is unchanged on error.
    pub fn refresh_full(&mut self) -> Result<IngestOutcome, IngestError> {
        let started = Instant::now();
        let touched = Touched::uniform(&self.committed.base, true);
        // The deferred-refresh request is consumed by the *attempt*, not
        // the success — a failing refresh must not put background
        // maintenance into a hot retry loop (the next DeferFull trip
        // re-arms it).
        self.deferred_refresh = false;
        // Maintenance is never governed: it runs off the latency path, and
        // it is how a degraded engine catches back up (stale memo entries
        // are rebuilt from fresh solves here).
        let unlimited = SolveBudget::unlimited();
        let model = &self.committed.model;
        match catch_panic(|| self.resolve(model, &touched, started, unlimited)) {
            Ok((current, Tree::Solved(tree))) => Ok(self.commit(current, *tree, 0, started)),
            Ok((_, Tree::Shed { .. })) => unreachable!("an unlimited budget never sheds"),
            Err(e) => {
                self.committed.metrics.rejected_batches += 1;
                Err(e)
            }
        }
    }

    /// Whether governance deferred an escalated full re-solve
    /// ([`DeferFull`](crate::govern::DegradeAction::DeferFull)) that
    /// background maintenance should pick up: serving frontends call
    /// [`refresh_full`](Self::refresh_full) at the next idle moment when
    /// this is `true` — [`AsyncIngest`](crate::AsyncIngest) does so when
    /// its epoch queue drains. Any refresh attempt clears it.
    #[must_use]
    pub fn refresh_wanted(&self) -> bool {
        self.deferred_refresh
    }

    /// Commits one solved tree over `current`: reports the work it did,
    /// rebuilds the leaf memo from its leaves, moves the instance and the
    /// merged assignment into the committed state and folds the outcome
    /// into the monotone counters. The memo is rebuilt only after the tree
    /// solve merged and reconciled: those passes are sensitive to where
    /// the merged assignment's allocations live.
    fn commit(
        &mut self,
        current: Instance,
        tree: TreeSolve,
        updates_applied: usize,
        started: Instant,
    ) -> IngestOutcome {
        let count = |state| tree.leaves.iter().filter(|l| l.state == state).count();
        let out = tree.outcome;
        let outcome = IngestOutcome {
            updates_applied,
            num_shards: out.num_shards,
            dirty_shards: tree.leaves.iter().filter(|l| l.missed).count(),
            resolved_shards: count(LeafState::Solved),
            super_shards: tree.supers,
            dirty_supers: tree.dirty_supers,
            resolved_supers: tree.resolved_supers,
            full_resolve: tree.full_resolve,
            utility: out.utility,
            upper_bound: out.upper_bound,
            gap_fraction: out.gap_fraction,
            cut_edges: out.cut_edges,
            cut_mass: out.cut_mass,
            repaired_streams: out.repaired_streams,
            degraded: tree.soft_tripped || tree.hard_tripped || tree.deferred_full,
            soft_tripped: tree.soft_tripped,
            hard_tripped: tree.hard_tripped,
            skipped_shards: count(LeafState::Skipped),
            stale: false,
            stale_gap_fraction: fraction_of(tree.skipped_bound, out.upper_bound),
            deferred_full: tree.deferred_full,
        };
        self.committed.metrics.inner_cache_hits += count(LeafState::Reused) as u64;
        self.cache = LeafCache::new(tree.leaves, &current);
        self.committed.current = Arc::new(current);
        self.committed.assignment = Arc::new(out.assignment);
        self.committed.last = outcome;
        self.deferred_refresh |= outcome.deferred_full;
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let m = &mut self.committed.metrics;
        m.applies += 1;
        m.updates_applied += outcome.updates_applied as u64;
        m.full_resolves += u64::from(outcome.full_resolve);
        m.resolved_shards += outcome.resolved_shards as u64;
        m.shard_slots += outcome.num_shards as u64;
        m.super_slots += outcome.super_shards as u64;
        m.resolved_supers += outcome.resolved_supers as u64;
        m.budget_soft_trips += u64::from(outcome.soft_tripped);
        m.budget_hard_trips += u64::from(outcome.hard_tripped);
        m.degraded_applies += u64::from(outcome.degraded);
        m.deferred_full_resolves += u64::from(outcome.deferred_full);
        m.last_apply_nanos = nanos;
        m.total_apply_nanos = m.total_apply_nanos.saturating_add(nanos);
        outcome
    }

    /// The incremental core: materializes `model` and runs the tree solve
    /// of [`solve_sharded`] over it with the leaf memo. Writes nothing to
    /// the engine — [`Self::commit`] installs the result — so an error or a
    /// panic anywhere in here leaves the committed state intact.
    ///
    /// A leaf reuses its memo entry when the entry has the leaf's global
    /// membership, is not stale, was solved under the same share and no
    /// member was touched: that key fully determines the leaf's instance
    /// (names are labels), so the reuse is bit-exact. Every other leaf is
    /// solved through the tree solve's one governed loop.
    ///
    /// [`solve_sharded`]: crate::algo::shard::solve_sharded
    fn resolve(
        &self,
        model: &Model,
        touched: &Touched,
        started: Instant,
        budget: SolveBudget,
    ) -> Result<(Instance, Tree), IngestError> {
        #[cfg(test)]
        {
            let m = &self.committed.metrics;
            if self.panic_on_apply == Some(m.applies + m.rejected_batches + 1) {
                panic!("injected solver fault");
            }
        }
        let current = model.materialize(&self.committed.base)?;
        let memo = MemoView {
            cache: &self.cache,
            touched,
        };
        let governance = Governance {
            memo: &memo,
            max_dirty_fraction: self.config.max_dirty_fraction,
            max_cut_fraction: self.config.max_cut_fraction,
            budget,
            started,
        };
        let tree = solve_tree(&current, &self.config.shard, Some(&governance))?;
        Ok((current, tree))
    }
}

/// An engine's committed state, stamped with the epoch that produced it.
///
/// The engine keeps its own committed state as one of these: the base and
/// committed instances, the model and the assignment sit behind `Arc`s and
/// are never mutated, so [`IngestEngine::snapshot`] shares them instead of
/// copying, and a snapshot taken earlier keeps describing its own epoch
/// however the engine moves on. Published by [`async_apply::AsyncIngest`]
/// after every commit via an atomic `Arc` swap: readers (query handlers,
/// health probes) always see a complete certified
/// `utility ≤ OPT ≤ upper_bound` bracket — either the pre-apply state or
/// the post-apply state, never a torn intermediate — while the solver
/// thread re-solves the next batch.
#[derive(Clone, Debug)]
pub struct IngestSnapshot {
    epoch: u64,
    base: Arc<Instance>,
    model: Arc<Model>,
    current: Arc<Instance>,
    assignment: Arc<Assignment>,
    last: IngestOutcome,
    metrics: IngestMetrics,
}

impl IngestSnapshot {
    /// The epoch whose commit produced this snapshot (0 = initial solve).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The committed instance (the last applied state).
    #[must_use]
    pub fn current_instance(&self) -> &Instance {
        &self.current
    }

    /// The committed assignment.
    #[must_use]
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Capped utility of the committed assignment.
    #[must_use]
    pub fn utility(&self) -> f64 {
        self.last.utility
    }

    /// The outcome of the apply that produced this snapshot (the current
    /// certificate).
    #[must_use]
    pub fn last_outcome(&self) -> &IngestOutcome {
        &self.last
    }

    /// Engine counters as of this snapshot's commit.
    #[must_use]
    pub fn metrics(&self) -> &IngestMetrics {
        &self.metrics
    }

    /// Number of live streams in the committed model.
    #[must_use]
    pub fn num_live(&self) -> usize {
        self.model.live.iter().filter(|&&l| l).count()
    }

    /// The §5 online preview over this snapshot: `pending` updates that
    /// have not been applied to it are applied to a scratch copy of its
    /// model, the preview is materialized (with orphaned streams zeroed),
    /// and each pending arrival is offered, in queue order, to an
    /// [`OnlineAllocator`] warm-started from the committed assignment.
    /// Purely advisory: the next apply supersedes the verdicts.
    ///
    /// # Errors
    ///
    /// Propagates stateful validation errors from `pending` and
    /// [`SolveError`]s from the allocator's normalization.
    pub fn provisional_admissions(
        &self,
        pending: &[Update],
        config: OnlineConfig,
    ) -> Result<Vec<OfferOutcome>, IngestError> {
        let base = &self.base;
        let mut scratch = Model::clone(&self.model);
        let mut touched = Touched::uniform(base, false);
        let mut arrivals = Vec::new();
        for update in pending {
            scratch.apply(base, update, &mut touched)?;
            if let Update::StreamArrival(s) = *update {
                arrivals.push(s);
            }
        }
        let mut preview = scratch.materialize(base)?;
        // Audience-less live streams (every interest churned away) would
        // fail the eq.-(1) normalization; they can never be assigned, so
        // zeroing their costs changes no decision.
        let orphans: Vec<StreamId> = preview
            .streams()
            .filter(|&s| {
                preview.audience(s).is_empty() && preview.costs(s).iter().any(|&c| c > 0.0)
            })
            .collect();
        if !orphans.is_empty() {
            for s in &orphans {
                scratch.live[s.index()] = false;
            }
            preview = scratch.materialize(base)?;
        }
        let mut allocator =
            OnlineAllocator::with_config(&preview, config).map_err(IngestError::Solve)?;
        allocator.preload(&self.assignment);
        Ok(arrivals.into_iter().map(|s| allocator.offer(s)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::shard::{solve_sharded, HierarchicalSharding};
    use crate::num::approx_eq;

    fn sid(i: usize) -> StreamId {
        StreamId::new(i)
    }
    fn uid(i: usize) -> UserId {
        UserId::new(i)
    }

    /// Three disjoint communities (2 streams + 1 user each), uncontended.
    fn three_components() -> Instance {
        let mut b = Instance::builder("3c").server_budgets(vec![100.0]);
        let s: Vec<_> = (0..6).map(|i| b.add_stream(vec![2.0 + i as f64])).collect();
        for c in 0..3 {
            let u = b.add_user(f64::INFINITY, vec![]);
            b.add_interest(u, s[2 * c], 4.0 + c as f64, vec![]).unwrap();
            b.add_interest(u, s[2 * c + 1], 3.0, vec![]).unwrap();
        }
        b.build().unwrap()
    }

    fn engine(inst: Instance) -> IngestEngine {
        IngestEngine::new(inst, IngestConfig::default()).unwrap()
    }

    /// The differential yardstick: the committed state must equal a
    /// from-scratch sharded solve of the committed instance, bit for bit.
    fn assert_matches_scratch(engine: &IngestEngine) {
        let scratch = solve_sharded(engine.current_instance(), &engine.config().shard).unwrap();
        assert_eq!(engine.assignment(), &scratch.assignment);
        assert_eq!(engine.utility().to_bits(), scratch.utility.to_bits());
        assert_eq!(
            engine.last_outcome().upper_bound.to_bits(),
            scratch.upper_bound.to_bits()
        );
    }

    #[test]
    fn initial_solve_matches_scratch() {
        let eng = engine(three_components());
        assert_eq!(eng.last_outcome().num_shards, 3);
        assert!(eng.last_outcome().utility > 0.0);
        assert_matches_scratch(&eng);
    }

    #[test]
    fn two_level_mode_applies_incrementally() {
        let config = IngestConfig {
            shard: ShardConfig::default().with_super_shards(2),
            ..IngestConfig::default()
        };
        let mut eng = IngestEngine::new(three_components(), config).unwrap();
        assert_matches_scratch(&eng);
        assert_eq!(eng.last_outcome().super_shards, 3);

        eng.push(Update::StreamDeparture(sid(0))).unwrap();
        let out = eng.apply().unwrap();
        // Only the departed stream's super-shard and the residual
        // super-shard the stream moved to hold leaves that miss the memo;
        // the other communities' leaves are memo hits.
        assert!(
            !out.full_resolve,
            "2/4 dirty supers is at, not above, the trigger"
        );
        assert_eq!(out.super_shards, 4);
        assert_eq!(out.dirty_supers, 2);
        assert_eq!(out.resolved_supers, 2);
        assert!(out.resolved_shards < out.num_shards);
        assert!(!eng.assignment().in_range(sid(0)));
        assert_matches_scratch(&eng);

        // Re-arrival restores the original coarse partition; only the
        // re-merged super-shard re-solves a leaf.
        eng.push(Update::StreamArrival(sid(0))).unwrap();
        let back = eng.apply().unwrap();
        assert!(!back.full_resolve);
        assert_eq!(back.super_shards, 3);
        assert_eq!(back.dirty_supers, 1);
        assert_matches_scratch(&eng);

        let m = eng.metrics();
        assert_eq!(m.super_slots, 7);
        assert_eq!(m.resolved_supers, 3);
        assert!(m.dirty_super_fraction() < 1.0);
    }

    #[test]
    fn two_level_escalation_kills_both_reuse_levels() {
        let config = IngestConfig {
            shard: ShardConfig::default().with_super_shards(2),
            max_dirty_fraction: 0.0,
            ..IngestConfig::default()
        };
        let mut eng = IngestEngine::new(three_components(), config).unwrap();
        eng.push(Update::StreamDeparture(sid(0))).unwrap();
        let out = eng.apply().unwrap();
        assert!(out.full_resolve);
        assert_eq!(out.resolved_supers, out.super_shards);
        assert_eq!(out.resolved_shards, out.num_shards);
        assert_eq!(eng.metrics().inner_cache_hits, 0);
        assert_matches_scratch(&eng);
    }

    #[test]
    fn two_level_budget_change_stays_equivalent() {
        let config = IngestConfig {
            shard: ShardConfig::default().with_super_shards(2),
            ..IngestConfig::default()
        };
        let mut eng = IngestEngine::new(three_components(), config).unwrap();
        // Tighten the shared budget into contention: every coarse share
        // moves, so the engine escalates — and must still match scratch.
        eng.push(Update::BudgetChange {
            measure: 0,
            budget: 12.0,
        })
        .unwrap();
        eng.apply().unwrap();
        assert_matches_scratch(&eng);
        eng.push(Update::BudgetChange {
            measure: 0,
            budget: 100.0,
        })
        .unwrap();
        eng.apply().unwrap();
        assert_matches_scratch(&eng);
    }

    #[test]
    fn departure_dirties_only_the_touched_shards() {
        let mut eng = engine(three_components());
        eng.push(Update::StreamDeparture(sid(0))).unwrap();
        let out = eng.apply().unwrap();
        assert_eq!(out.updates_applied, 1);
        // The departed stream's community shrinks and the stream itself
        // moves to a new residual shard: exactly those two shards (of the
        // fresh partition's four) are dirty; the other communities reuse
        // their cached solves.
        assert_eq!(out.num_shards, 4);
        assert_eq!(out.dirty_shards, 2, "only the touched shards");
        assert_eq!(out.resolved_shards, 2);
        assert!(!out.full_resolve, "2/4 dirty is at, not above, the trigger");
        assert!(!eng.assignment().in_range(sid(0)));
        assert_matches_scratch(&eng);
    }

    #[test]
    fn arrival_restores_departed_stream() {
        let mut eng = engine(three_components());
        let before = eng.utility();
        eng.push(Update::StreamDeparture(sid(0))).unwrap();
        eng.apply().unwrap();
        assert!(eng.utility() < before);
        eng.push(Update::StreamArrival(sid(0))).unwrap();
        let out = eng.apply().unwrap();
        assert_eq!(out.dirty_shards, 1);
        assert!(approx_eq(eng.utility(), before));
        assert_matches_scratch(&eng);
    }

    #[test]
    fn interest_change_retargets_utility() {
        let mut eng = engine(three_components());
        eng.push(Update::InterestChange {
            user: uid(0),
            stream: sid(0),
            weight: 40.0,
        })
        .unwrap();
        let out = eng.apply().unwrap();
        assert_eq!(out.dirty_shards, 1);
        assert!(eng.utility() > 40.0);
        assert_matches_scratch(&eng);
        // Removing it again (weight 0) drops the stream's audience.
        eng.push(Update::InterestChange {
            user: uid(0),
            stream: sid(0),
            weight: 0.0,
        })
        .unwrap();
        eng.apply().unwrap();
        assert_eq!(eng.current_instance().audience(sid(0)).len(), 0);
        assert_matches_scratch(&eng);
    }

    #[test]
    fn new_interest_creates_cross_community_edge() {
        let mut eng = engine(three_components());
        // u0 takes an interest in community 1's stream: two communities
        // merge, both old shards are dirty.
        eng.push(Update::InterestChange {
            user: uid(0),
            stream: sid(2),
            weight: 1.5,
        })
        .unwrap();
        let out = eng.apply().unwrap();
        assert_eq!(out.num_shards, 2, "two communities merged");
        assert_matches_scratch(&eng);
    }

    #[test]
    fn budget_change_recomputes_bounds_and_stays_equivalent() {
        let mut eng = engine(three_components());
        // Tighten the budget into contention: every share moves.
        eng.push(Update::BudgetChange {
            measure: 0,
            budget: 12.0,
        })
        .unwrap();
        let out = eng.apply().unwrap();
        assert!(out.repaired_streams > 0 || out.utility > 0.0);
        assert_matches_scratch(&eng);
        // And relax it again.
        eng.push(Update::BudgetChange {
            measure: 0,
            budget: 100.0,
        })
        .unwrap();
        eng.apply().unwrap();
        assert_matches_scratch(&eng);
    }

    #[test]
    fn untouched_batches_are_noop_and_cheap() {
        let mut eng = engine(three_components());
        let before = *eng.last_outcome();
        let out = eng.apply().unwrap();
        assert_eq!(out.updates_applied, 0);
        assert_eq!(out.dirty_shards, 0);
        assert_eq!(out.resolved_shards, 0);
        assert!(!out.full_resolve);
        assert_eq!(out.utility.to_bits(), before.utility.to_bits());
        assert_matches_scratch(&eng);
    }

    #[test]
    fn dirty_fraction_trigger_escalates_to_full_resolve() {
        let inst = three_components();
        let config = IngestConfig {
            max_dirty_fraction: 0.0,
            ..IngestConfig::default()
        };
        let mut eng = IngestEngine::new(inst, config).unwrap();
        eng.push(Update::StreamDeparture(sid(0))).unwrap();
        let out = eng.apply().unwrap();
        assert!(out.full_resolve);
        assert_eq!(out.dirty_shards, 2, "shrunk community + residual shard");
        assert_eq!(out.resolved_shards, out.num_shards);
        assert_matches_scratch(&eng);
    }

    #[test]
    fn push_validates_structurally() {
        let mut eng = engine(three_components());
        assert!(matches!(
            eng.push(Update::StreamArrival(sid(99))),
            Err(IngestError::UnknownStream(_))
        ));
        assert!(matches!(
            eng.push(Update::InterestChange {
                user: uid(7),
                stream: sid(0),
                weight: 1.0
            }),
            Err(IngestError::UnknownUser(_))
        ));
        assert!(matches!(
            eng.push(Update::InterestChange {
                user: uid(0),
                stream: sid(0),
                weight: f64::NAN
            }),
            Err(IngestError::InvalidWeight { .. })
        ));
        assert!(matches!(
            eng.push(Update::BudgetChange {
                measure: 5,
                budget: 1.0
            }),
            Err(IngestError::UnknownMeasure(5))
        ));
        assert!(eng.pending().is_empty());
    }

    #[test]
    fn apply_rejects_budget_below_live_cost_and_keeps_state() {
        let mut eng = engine(three_components());
        let committed = eng.utility();
        // Stream 5 costs 7.0: a budget of 5.0 cannot host it while live.
        eng.push(Update::BudgetChange {
            measure: 0,
            budget: 5.0,
        })
        .unwrap();
        assert!(matches!(
            eng.apply(),
            Err(IngestError::CostExceedsBudget { .. })
        ));
        assert_eq!(eng.pending().len(), 1, "pending retained for inspection");
        assert_eq!(eng.utility(), committed, "committed state unchanged");
        eng.clear_pending();
        assert!(eng.pending().is_empty());
        // Departing the costly streams first makes the same change legal.
        for i in 2..6 {
            eng.push(Update::StreamDeparture(sid(i))).unwrap();
        }
        eng.push(Update::BudgetChange {
            measure: 0,
            budget: 5.0,
        })
        .unwrap();
        eng.apply().unwrap();
        assert_matches_scratch(&eng);
    }

    #[test]
    fn provisional_admissions_decide_pending_arrivals() {
        let mut eng = engine(three_components());
        eng.push(Update::StreamDeparture(sid(0))).unwrap();
        eng.apply().unwrap();
        eng.push(Update::StreamArrival(sid(0))).unwrap();
        let offers = eng
            .snapshot(0)
            .provisional_admissions(eng.pending(), OnlineConfig::default())
            .unwrap();
        assert_eq!(offers.len(), 1);
        assert_eq!(offers[0].stream, sid(0));
        assert!(
            !offers[0].assigned.is_empty(),
            "uncontended arrival must be admitted provisionally"
        );
        // Advisory only: committed state untouched, pending still queued.
        assert!(!eng.assignment().in_range(sid(0)));
        assert_eq!(eng.pending().len(), 1);
        // The real apply then commits it.
        eng.apply().unwrap();
        assert!(eng.assignment().in_range(sid(0)));
        assert_matches_scratch(&eng);
    }

    #[test]
    fn batched_mixed_updates_stay_equivalent() {
        let mut eng = engine(three_components());
        eng.push(Update::StreamDeparture(sid(3))).unwrap();
        eng.push(Update::InterestChange {
            user: uid(2),
            stream: sid(4),
            weight: 9.0,
        })
        .unwrap();
        eng.push(Update::StreamArrival(sid(3))).unwrap();
        let out = eng.apply().unwrap();
        assert_eq!(out.updates_applied, 3);
        assert_matches_scratch(&eng);
        assert_eq!(eng.num_live(), 6, "departure + re-arrival nets out");
    }

    #[test]
    fn push_batch_is_all_or_nothing() {
        let mut eng = engine(three_components());
        // A poison update mid-batch (unknown stream) rejects the whole
        // batch: the first, valid update must not linger in the queue
        // where another client's apply would commit it.
        let poisoned = vec![
            Update::StreamDeparture(sid(0)),
            Update::StreamArrival(sid(99)),
            Update::StreamDeparture(sid(2)),
        ];
        assert!(matches!(
            eng.push_batch(poisoned),
            Err(IngestError::UnknownStream(_))
        ));
        assert!(eng.pending().is_empty(), "no partial batch enqueued");
        assert_eq!(eng.metrics().rejected_updates, 1);
        // The clean batch goes through in order.
        let n = eng
            .push_batch(vec![
                Update::StreamDeparture(sid(0)),
                Update::StreamArrival(sid(0)),
            ])
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(eng.pending().len(), 2);
        eng.apply().unwrap();
        assert_matches_scratch(&eng);
    }

    #[test]
    fn poison_batch_apply_leaves_committed_state_and_cache_intact() {
        let mut eng = engine(three_components());
        eng.push(Update::StreamDeparture(sid(3))).unwrap();
        eng.apply().unwrap();
        let assignment_before = eng.assignment().clone();
        let outcome_before = *eng.last_outcome();

        // A stateful poison (budget below a live stream's cost) rejected at
        // apply time: committed assignment, certificate AND the shard
        // cache must be exactly as before the failed batch.
        eng.push(Update::InterestChange {
            user: uid(0),
            stream: sid(0),
            weight: 7.0,
        })
        .unwrap();
        eng.push(Update::BudgetChange {
            measure: 0,
            budget: 5.0,
        })
        .unwrap();
        assert!(matches!(
            eng.apply(),
            Err(IngestError::CostExceedsBudget { .. })
        ));
        assert_eq!(eng.assignment(), &assignment_before);
        assert_eq!(*eng.last_outcome(), outcome_before);
        assert_eq!(eng.metrics().rejected_batches, 1);
        eng.clear_pending();

        // The cache survives unpoisoned: the next incremental apply still
        // matches a from-scratch solve bit for bit (a partially mutated
        // cache would surface here as a divergence).
        eng.push(Update::InterestChange {
            user: uid(1),
            stream: sid(2),
            weight: 11.0,
        })
        .unwrap();
        let out = eng.apply().unwrap();
        assert!(out.dirty_shards < out.num_shards, "incremental path taken");
        assert_matches_scratch(&eng);
    }

    #[test]
    fn metrics_count_applies_and_full_resolves() {
        let mut eng = engine(three_components());
        assert_eq!(*eng.metrics(), IngestMetrics::default());

        eng.push(Update::StreamDeparture(sid(0))).unwrap();
        eng.apply().unwrap();
        let m1 = *eng.metrics();
        assert_eq!(m1.applies, 1);
        assert_eq!(m1.updates_applied, 1);
        assert_eq!(m1.resolved_shards, 2);
        assert_eq!(m1.shard_slots, 4);
        assert!(m1.dirty_fraction() > 0.0 && m1.dirty_fraction() < 1.0);
        assert!(m1.total_apply_nanos >= m1.last_apply_nanos);

        // refresh_full counts as an apply escalated to a full re-solve and
        // leaves the committed state bit-identical.
        let utility_before = eng.utility();
        let out = eng.refresh_full().unwrap();
        assert!(out.full_resolve);
        assert_eq!(eng.utility().to_bits(), utility_before.to_bits());
        assert_matches_scratch(&eng);
        let m2 = *eng.metrics();
        assert_eq!(m2.applies, 2);
        assert_eq!(m2.full_resolves, 1);
        assert_eq!(m2.updates_applied, 1, "refresh applies no updates");

        // Counters are monotone.
        assert!(m2.resolved_shards >= m1.resolved_shards);
        assert!(m2.shard_slots >= m1.shard_slots);
        assert!(m2.total_apply_nanos >= m1.total_apply_nanos);
    }

    #[test]
    fn snapshots_share_the_committed_state_and_outlive_later_commits() {
        let mut eng = engine(three_components());
        eng.push(Update::StreamDeparture(sid(0))).unwrap();
        eng.apply().unwrap();
        let snap = eng.snapshot(1);
        // Taking a snapshot copies no part of the committed state.
        assert!(std::ptr::eq(
            eng.current_instance(),
            snap.current_instance()
        ));
        assert!(std::ptr::eq(eng.assignment(), snap.assignment()));
        let bits = |o: &IngestOutcome| (o.utility.to_bits(), o.upper_bound.to_bits());
        let frozen = (bits(snap.last_outcome()), snap.assignment().clone());

        // A committed apply, a shed apply and a full refresh later, the
        // snapshot still describes the state it was taken of.
        eng.push(Update::StreamArrival(sid(0))).unwrap();
        eng.apply().unwrap();
        eng.config.budget = SolveBudget::default().with_hard_work(0);
        eng.push(Update::StreamDeparture(sid(2))).unwrap();
        assert!(eng.apply().unwrap().stale, "the zero budget sheds");
        eng.config.budget = SolveBudget::unlimited();
        eng.clear_pending();
        eng.refresh_full().unwrap();
        assert_matches_scratch(&eng);
        let later = eng.snapshot(2);
        assert!(std::ptr::eq(
            eng.current_instance(),
            later.current_instance()
        ));
        assert!(std::ptr::eq(eng.assignment(), later.assignment()));
        assert!(later.assignment().in_range(sid(0)));

        assert_eq!(snap.epoch(), 1);
        assert_eq!(
            (bits(snap.last_outcome()), snap.assignment().clone()),
            frozen
        );
        assert!(!snap.assignment().in_range(sid(0)));
        assert_eq!(snap.num_live(), 5);
        assert_eq!(snap.metrics().applies, 1);
    }

    #[test]
    fn empty_instance_is_handled() {
        let inst = Instance::builder("e")
            .server_budgets(vec![1.0])
            .build()
            .unwrap();
        let mut eng = engine(inst);
        assert_eq!(eng.last_outcome().num_shards, 0);
        assert_eq!(eng.utility(), 0.0);
        let out = eng.apply().unwrap();
        assert_eq!(out.gap_fraction, 0.0);
    }

    /// Two super-shards under one contended budget. Super A (streams 0–3)
    /// is one component whose weak `u0 → s1` link the inner cap 3 cuts,
    /// leaving the leaves `{s0; u0}` and `{s1, s2, s3; u1}`; super B
    /// (streams 4–7) is one user's catalog.
    fn two_contended_supers() -> Instance {
        let mut b = Instance::builder("2s").server_budgets(vec![4.0]);
        let s: Vec<_> = (0..8).map(|_| b.add_stream(vec![1.0])).collect();
        let u0 = b.add_user(f64::INFINITY, vec![]);
        let u1 = b.add_user(f64::INFINITY, vec![]);
        let u2 = b.add_user(f64::INFINITY, vec![]);
        b.add_interest(u0, s[0], 20.0, vec![]).unwrap();
        b.add_interest(u0, s[1], 0.1, vec![]).unwrap();
        for (i, w) in [5.0, 4.0, 3.0].into_iter().enumerate() {
            b.add_interest(u1, s[1 + i], w, vec![]).unwrap();
        }
        for (i, w) in [3.0, 2.5, 2.0, 1.5].into_iter().enumerate() {
            b.add_interest(u2, s[4 + i], w, vec![]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn a_leaf_is_a_memo_hit_when_only_its_super_shards_share_moved() {
        let config = IngestConfig {
            shard: ShardConfig {
                max_streams: 3,
                super_shards: 2,
                ..ShardConfig::default()
            },
            ..IngestConfig::default()
        };
        let mut eng = IngestEngine::new(two_contended_supers(), config).unwrap();
        let in_a = |l: &&Leaf| l.shard.streams.iter().all(|s| s.index() < 4);
        let before: Vec<Leaf> = eng.cache.leaves.iter().filter(in_a).cloned().collect();
        assert_eq!(before.len(), 2, "super A holds two leaves");
        let share_of_a = |eng: &IngestEngine| {
            let root = HierarchicalSharding::new(eng.current_instance(), &config.shard);
            root.shares[root.supers.shard_of_stream[0]].clone()
        };
        let a_share = share_of_a(&eng);

        // Only super B is touched, but its bound moves the root water-fill.
        eng.push(Update::InterestChange {
            user: uid(2),
            stream: sid(4),
            weight: 4.0,
        })
        .unwrap();
        let out = eng.apply().unwrap();
        assert_ne!(share_of_a(&eng), a_share, "super A's share moved");
        assert_eq!((out.dirty_supers, out.resolved_supers), (1, 1));
        let after: Vec<&Leaf> = eng.cache.leaves.iter().filter(in_a).collect();
        for (old, new) in before.iter().zip(after) {
            assert_eq!(new.shard, old.shard);
            assert_eq!(new.share, old.share, "the leaf's own share did not move");
            assert_eq!(new.state, LeafState::Reused);
        }
        // A's two leaves, and B's untouched `{s7}` leaf, whose saturated
        // share sits at its demand.
        assert_eq!(eng.metrics().inner_cache_hits, 3);
        assert_matches_scratch(&eng);
    }

    /// Two super-shards of three 2-stream leaves each, uncontended: the
    /// weak `u_i → s_{2i+2}` links connect a super-shard and the inner cap
    /// 2 cuts them.
    fn two_chained_supers() -> Instance {
        let mut b = Instance::builder("chains").server_budgets(vec![100.0]);
        let s: Vec<_> = (0..12).map(|_| b.add_stream(vec![1.0])).collect();
        for i in 0..6 {
            let u = b.add_user(f64::INFINITY, vec![]);
            b.add_interest(u, s[2 * i], 5.0, vec![]).unwrap();
            b.add_interest(u, s[2 * i + 1], 4.0, vec![]).unwrap();
            if i % 3 != 2 {
                b.add_interest(u, s[2 * i + 2], 0.1, vec![]).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn two_level_escalation_counts_missed_leaves_not_dirty_supers() {
        let replay = |max_dirty_fraction: f64| {
            let config = IngestConfig {
                shard: ShardConfig {
                    max_streams: 2,
                    super_shards: 2,
                    ..ShardConfig::default()
                },
                max_dirty_fraction,
                ..IngestConfig::default()
            };
            let mut eng = IngestEngine::new(two_chained_supers(), config).unwrap();
            assert_eq!(eng.last_outcome().num_shards, 6);
            assert_eq!(eng.last_outcome().super_shards, 2);
            // One leaf in each super-shard: every super-shard is dirty,
            // but only 2 of the 6 leaves miss the memo.
            for (user, stream) in [(0, 0), (3, 6)] {
                eng.push(Update::InterestChange {
                    user: uid(user),
                    stream: sid(stream),
                    weight: 6.0,
                })
                .unwrap();
            }
            let out = eng.apply().unwrap();
            assert_eq!((out.dirty_shards, out.dirty_supers), (2, 2));
            assert_matches_scratch(&eng);
            out
        };
        // 2/6 missed leaves stay under 0.5 although 2/2 supers are dirty.
        let incremental = replay(0.5);
        assert!(!incremental.full_resolve);
        assert_eq!(incremental.resolved_shards, 2);
        // ... and escalate above 0.3.
        let full = replay(0.3);
        assert!(full.full_resolve);
        assert_eq!(full.resolved_shards, 6);
        assert_eq!(full.resolved_supers, 2);
    }
}
