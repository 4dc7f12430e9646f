//! **Sharded solving** of instances too big for one core: partition the
//! stream–audience graph into near-independent shards, solve the shards
//! concurrently with [`solve_batch`], and reconcile the shared server
//! budgets.
//!
//! Streams interact in two ways only: through shared users (captured by the
//! bipartite connectivity of [`crate::graph`]) and through the shared server
//! budgets `B_i`. [`shard_instance`] makes the first interaction vanish by
//! splitting along connected components — and, when a component exceeds the
//! configured size cap, by cutting its *lowest-utility* interests first
//! (heaviest edges are merged first under a component-size cap, Kruskal
//! style) while recording the total utility of the cut interests as
//! `cut_mass`. [`solve_sharded`] then handles the second interaction with a
//! budget reconciler: each finite budget is water-filled across shards in
//! proportion to their utility upper bounds, capped at demand (uncontended
//! measures fund every shard fully), slightly over-provisioned
//! ([`ShardConfig::budget_slack`]) and floored so every stream still fits
//! its own shard's budget; the shards are solved concurrently, one global
//! repair pass restores feasibility where the slack or the floors
//! oversubscribed a budget, and a global [`residual_fill`] re-adds cut
//! interests and spends leftover budget.
//!
//! # The gap certificate
//!
//! The returned [`ShardedOutcome`] is *certified*: its assignment is
//! feasible in the original instance, so `utility` is a true lower bound on
//! the optimum, and `upper_bound` is a true upper bound, by Lemma 2.1's
//! submodularity/subadditivity of the capped utility `w(T)`. Concretely,
//! restricting an optimal assignment to one shard keeps it feasible for the
//! *full* budgets, every cross-shard (user, stream) pair is one of the cut
//! interests, and `min(W_u, a + b) ≤ min(W_u, a) + min(W_u, b)`, so
//!
//! ```text
//! OPT ≤ Σ_k ub(shard_k) + cut_mass,
//! ```
//!
//! where `ub(shard)` is the cheap per-shard bound of
//! [`utility_upper_bound`]: the smaller of the cap-sum bound
//! `Σ_u min(W_u, Σ_S w_u(S))` and, per finite budget measure, a fractional
//! knapsack over singleton utilities. `tests/theorem_bounds.rs` checks the
//! certificate against `mmd-exact`; `tests/shard_equivalence.rs` pins the
//! shard-vs-monolithic differential behaviour.
//!
//! # The partition tree
//!
//! Every solve runs over one explicit tree ([`HierarchicalSharding`]), and
//! [`ShardConfig::super_shards`] decides its depth. At depth 1 (the default)
//! the root partition is [`shard_instance`] at `max_streams` and its
//! children are the leaves: the flat solve described above. With
//! `super_shards ≥ 2` the root is a *coarse* partition at cap
//! `⌈|S| / super_shards⌉` ([`super_partition`], head-split while its
//! [`Sharding::skew_ratio`] exceeds [`HEAD_SPLIT_SKEW`], so a
//! Zipf catalog head cannot pin one super-shard as the critical path), and
//! every child is a super-shard carrying a depth-1 tree of its own: an
//! *inner* partition at `max_streams` granularity with its own water-fill
//! of the super-shard's share. Either way one water-fill of every finite
//! budget runs across the root's children, and all leaves are solved
//! through **one flat [`solve_batch`] fan-out**, so workers steal leaf
//! solves across children and the outcome stays bit-identical at any
//! thread count. Certificate terms come from the root only — per-child
//! bounds under the FULL budgets plus the root's `cut_mass` (plus the
//! compact-lane quantization mass) — because budget-restricted inner
//! bounds would not be valid for the full-budget optimum.

use crate::algo::batch::solve_batch;
use crate::algo::reduction::{residual_fill, MmdConfig};
use crate::assignment::Assignment;
use crate::error::SolveError;
use crate::govern::{DegradeAction, SolveBudget};
use crate::graph::{collect_components, UnionFind};
use crate::ids::{StreamId, UserId};
use crate::instance::Instance;
use crate::num;
use std::time::Instant;

/// Configuration for [`solve_sharded`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardConfig {
    /// Target maximum number of streams per shard. Components larger than
    /// this are split by cutting their lowest-utility interests. `0` means
    /// "component granularity": no cap, nothing is ever cut.
    pub max_streams: usize,
    /// Worker threads across shard solves (`0` = all cores, `1` =
    /// sequential). Shards are independent sub-instances solved through
    /// [`solve_batch`], so the outcome is bit-identical at any thread
    /// count.
    pub threads: usize,
    /// The Theorem 1.1 pipeline configuration applied to every shard. Its
    /// own `threads` knobs default to 1 so shard-level parallelism is not
    /// multiplied by intra-solve parallelism.
    pub mmd: MmdConfig,
    /// Resource-augmentation factor on contended budget shares: each shard
    /// receives `(1 + budget_slack) ×` its water-filled share (still capped
    /// at its demand), deliberately oversubscribing the budget so that the
    /// *global* repair pass — not the local split — arbitrates the marginal
    /// streams across shards. `0.0` disables the augmentation. Uncontended
    /// measures are never inflated, so exactly-decomposable instances stay
    /// bit-identical to the monolithic solve.
    pub budget_slack: f64,
    /// Number of super-shards for two-level sharding (`0` or `1` disables
    /// it — the default). With `k ≥ 2`, the catalog is first partitioned at
    /// the coarse cap `⌈|S| / k⌉` into a [`HierarchicalSharding`]: each
    /// finite budget is water-filled *once* across the few super-shards,
    /// every super-shard is partitioned again at `max_streams` granularity,
    /// and all inner shards across all super-shards are solved through one
    /// flat [`solve_batch`] fan-out (workers steal inner-shard solves
    /// across super-shards, so a skewed super-shard cannot pin a worker).
    /// The water-fill's refill loop is worst-case quadratic in the number
    /// of parties, so splitting it across two levels (`k` outer +
    /// `shards/k` inner parties instead of `shards`) is what keeps
    /// partition + water-fill subquadratic at 10⁵–10⁶ users. The
    /// certificate stays valid by the same Lemma 2.1 subadditivity, taken
    /// at the super-shard level (see [`solve_sharded`]).
    pub super_shards: usize,
}

/// Skew threshold for head-splitting the coarse partition (two-level mode
/// only): while the super level's stream-weighted skew ratio
/// ([`Sharding::skew_ratio`]: largest / mean streams per shard) exceeds
/// this, the largest super-shard is re-cut at half its stream count
/// (floored at `max_streams`). Without it a Zipf(θ≈1) catalog head leaves
/// one super-shard holding most of the work.
pub const HEAD_SPLIT_SKEW: f64 = 2.0;

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            max_streams: 0,
            threads: 1,
            mmd: MmdConfig::default(),
            budget_slack: 0.2,
            super_shards: 0,
        }
    }
}

impl ShardConfig {
    /// Sets the shard-level worker thread count (the [`solve_batch`]
    /// fan-out). Per-shard solves stay sequential, mirroring the batch
    /// convention.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables two-level sharding with the given number of super-shards
    /// (`0` or `1` keeps the flat, depth-1 partition tree).
    #[must_use]
    pub fn with_super_shards(mut self, super_shards: usize) -> Self {
        self.super_shards = super_shards;
        self
    }
}

/// One shard: a subset of streams and users (original ids, ascending).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Streams in the shard, ascending.
    pub streams: Vec<StreamId>,
    /// Users in the shard, ascending.
    pub users: Vec<UserId>,
}

/// An interest removed by the size-capped splitter: its user and stream
/// ended up in different shards.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CutInterest {
    /// The user side of the cut interest.
    pub user: UserId,
    /// The stream side of the cut interest.
    pub stream: StreamId,
    /// The utility `w_u(S)` lost if nothing re-adds the pair.
    pub utility: f64,
}

/// The result of [`shard_instance`]: a partition of all streams and users
/// into shards, plus the interests cut to enforce the size cap.
#[derive(Clone, Debug)]
pub struct Sharding {
    /// The shards; every stream and every user appears in exactly one.
    pub shards: Vec<Shard>,
    /// Interests whose endpoints landed in different shards.
    pub cut: Vec<CutInterest>,
    /// Total utility of the cut interests (`Σ w_u(S)` over [`Self::cut`]).
    pub cut_mass: f64,
    /// For each stream (by index), the shard it belongs to.
    pub shard_of_stream: Vec<usize>,
    /// For each user (by index), the shard it belongs to.
    pub shard_of_user: Vec<usize>,
}

impl Sharding {
    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Stream count of the largest shard (0 when there are no shards).
    #[must_use]
    pub fn largest_shard_streams(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.streams.len())
            .max()
            .unwrap_or(0)
    }

    /// Stream-weighted skew ratio of the partition: largest / mean streams
    /// per shard. `1.0` means perfectly balanced; a Zipf catalog head
    /// typically pushes the coarse partition well above it. `0.0` when the
    /// partition has no shards or no streams. This is the observable that
    /// triggers head-splitting ([`HEAD_SPLIT_SKEW`]).
    #[must_use]
    pub fn skew_ratio(&self) -> f64 {
        let total: usize = self.shards.iter().map(|s| s.streams.len()).sum();
        if self.shards.is_empty() || total == 0 {
            return 0.0;
        }
        let mean = total as f64 / self.shards.len() as f64;
        self.largest_shard_streams() as f64 / mean
    }

    /// Points the membership maps at the current shard list.
    fn index_members(&mut self) {
        for (k, shard) in self.shards.iter().enumerate() {
            for &s in &shard.streams {
                self.shard_of_stream[s.index()] = k;
            }
            for &u in &shard.users {
                self.shard_of_user[u.index()] = k;
            }
        }
    }
}

/// Partitions an instance into shards along stream–audience connectivity.
///
/// With `max_streams == 0` the shards are exactly the connected components
/// of the bipartite graph (no interest is ever cut). With a cap, interests
/// are processed in decreasing utility order and merged Kruskal-style under
/// the constraint that no shard exceeds `max_streams` streams; interests
/// whose endpoints cannot be merged are *cut* and reported with their total
/// utility (`cut_mass`). Streams that end up without any user (no audience,
/// or all their interests cut) are packed into cap-sized residual shards;
/// users without any surviving interest ride along in the first residual
/// shard so that the shards always partition the full instance.
#[must_use]
pub fn shard_instance(instance: &Instance, max_streams: usize) -> Sharding {
    let ns = instance.num_streams();
    let nu = instance.num_users();
    // Node layout: streams 0..ns (weight 1), users ns..ns+nu (weight 0),
    // so a component's weight is its stream count.
    let mut weights = vec![1usize; ns];
    weights.extend(std::iter::repeat_n(0usize, nu));
    let mut uf = UnionFind::new(weights);

    let mut edges: Vec<(f64, usize, usize)> = Vec::with_capacity(instance.num_interests());
    for u in instance.users() {
        for interest in instance.user(u).interests() {
            edges.push((interest.utility(), u.index(), interest.stream().index()));
        }
    }
    if max_streams > 0 {
        // Heaviest interests merge first, so the cap cuts low-weight edges.
        // Ties break by (user, stream) for determinism.
        edges.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
        });
    }
    for &(_, u, s) in &edges {
        uf.union_capped(s, ns + u, max_streams);
    }

    // Interests whose endpoints did not end up connected are cut. (An edge
    // refused earlier can still be connected through later merges, so this
    // is a second pass over the final forest.)
    let mut cut = Vec::new();
    let mut cut_mass = 0.0f64;
    for &(w, u, s) in &edges {
        if !uf.connected(s, ns + u) {
            cut.push(CutInterest {
                user: UserId::new(u),
                stream: StreamId::new(s),
                utility: w,
            });
            cut_mass += w;
        }
    }
    cut.sort_by_key(|c| (c.user, c.stream));

    // Components with both sides populated become shards; the rest are
    // packed into residual shards (streams chunked to the cap).
    let mut shards: Vec<Shard> = Vec::new();
    let mut residual_streams: Vec<StreamId> = Vec::new();
    let mut residual_users: Vec<UserId> = Vec::new();
    for comp in collect_components(&mut uf, ns, nu) {
        if !comp.streams.is_empty() && !comp.users.is_empty() {
            shards.push(Shard {
                streams: comp.streams,
                users: comp.users,
            });
        } else {
            residual_streams.extend(comp.streams);
            residual_users.extend(comp.users);
        }
    }
    if !residual_streams.is_empty() {
        let chunk = if max_streams > 0 {
            max_streams
        } else {
            residual_streams.len()
        };
        let mut first = true;
        for streams in residual_streams.chunks(chunk) {
            shards.push(Shard {
                streams: streams.to_vec(),
                users: if first {
                    std::mem::take(&mut residual_users)
                } else {
                    Vec::new()
                },
            });
            first = false;
        }
    } else if !residual_users.is_empty() {
        shards.push(Shard {
            streams: Vec::new(),
            users: residual_users,
        });
    }

    let mut sharding = Sharding {
        shards,
        cut,
        cut_mass,
        shard_of_stream: vec![usize::MAX; ns],
        shard_of_user: vec![usize::MAX; nu],
    };
    sharding.index_members();
    debug_assert!(sharding.shard_of_stream.iter().all(|&k| k != usize::MAX));
    debug_assert!(sharding.shard_of_user.iter().all(|&k| k != usize::MAX));
    sharding
}

/// Water-fills each finite server budget across the shards.
///
/// Shares are proportional to `weights` (the caller's estimate of each
/// shard's utility potential — [`solve_sharded`] uses the per-shard
/// [`utility_upper_bound`]), but capped at the shard's *demand* in that
/// measure: a shard never receives more budget than its streams can spend,
/// and the freed remainder is re-filled across the still-unsaturated
/// shards. When a measure is uncontended every shard is simply fully
/// funded, so the split is demand-exact regardless of the weights — the
/// property the exactly-decomposable differential test relies on.
///
/// On contended measures each share is additionally inflated by
/// `(1 + slack)` (capped at the shard's demand): the deliberate
/// oversubscription of [`ShardConfig::budget_slack`], resolved by the
/// global repair pass. Every share is floored at the shard's costliest
/// single stream so the shard instance satisfies the model assumption
/// `c_i(S) ≤ B_i`; the floors too can oversubscribe a contended budget,
/// which the repair pass of [`solve_sharded`] undoes globally.
///
/// # Panics
///
/// Panics if `weights.len()` differs from the number of shards.
#[must_use]
pub fn split_budgets(
    instance: &Instance,
    sharding: &Sharding,
    weights: &[f64],
    slack: f64,
) -> Vec<Vec<f64>> {
    assert_eq!(weights.len(), sharding.shards.len(), "one weight per shard");
    let m = instance.num_measures();
    let n = sharding.shards.len();
    let mut out = vec![vec![0.0f64; m]; n];
    for i in 0..m {
        let budget = instance.budget(i);
        if budget.is_infinite() {
            for share in &mut out {
                share[i] = f64::INFINITY;
            }
            continue;
        }
        let demands: Vec<f64> = sharding
            .shards
            .iter()
            .map(|sh| sh.streams.iter().map(|&s| instance.cost(s, i)).sum())
            .collect();
        let total: f64 = demands.iter().sum();
        let shares = if num::approx_le(total, budget) {
            demands.clone()
        } else {
            let mut filled = waterfill(budget, &demands, weights);
            for (share, &demand) in filled.iter_mut().zip(&demands) {
                *share = (*share * (1.0 + slack.max(0.0))).min(demand);
            }
            filled
        };
        for (k, share) in out.iter_mut().enumerate() {
            let floor = sharding.shards[k]
                .streams
                .iter()
                .map(|&s| instance.cost(s, i))
                .fold(0.0f64, f64::max);
            share[i] = shares[k].max(floor);
        }
    }
    out
}

/// Splits `budget` across shards proportionally to `weights`, capping each
/// share at the shard's `demand` and re-filling the freed remainder among
/// the unsaturated shards until no cap is newly hit (classic water-filling;
/// terminates in at most one round per shard).
fn waterfill(budget: f64, demands: &[f64], weights: &[f64]) -> Vec<f64> {
    let n = demands.len();
    let mut shares = vec![0.0f64; n];
    let mut saturated = vec![false; n];
    let mut remaining = budget;
    loop {
        let active_weight: f64 = weights
            .iter()
            .zip(&saturated)
            .filter(|&(_, &s)| !s)
            .map(|(&w, _)| w.max(0.0))
            .sum();
        if remaining <= 0.0 || active_weight <= 0.0 {
            // Degenerate weights (e.g. every shard's utility potential is
            // 0): never divide by the zero weight total — fall back to
            // demand-proportional shares among whatever is still
            // unsaturated, and when the demands are degenerate too, to an
            // equal split capped at demand (the function's share ≤ demand
            // contract; all-zero demands therefore get all-zero shares).
            // No division below ever has a zero denominator.
            if remaining > 0.0 {
                let active_demand: f64 = demands
                    .iter()
                    .zip(&saturated)
                    .filter(|&(_, &s)| !s)
                    .map(|(&d, _)| d)
                    .sum();
                let active_n = saturated.iter().filter(|&&s| !s).count();
                for k in 0..n {
                    if !saturated[k] {
                        shares[k] = if active_demand > 0.0 {
                            remaining * demands[k] / active_demand
                        } else if active_n > 0 {
                            (remaining / active_n as f64).min(demands[k])
                        } else {
                            0.0
                        };
                    }
                }
            }
            return shares;
        }
        let mut hit_cap = false;
        for k in 0..n {
            if saturated[k] {
                continue;
            }
            let offer = remaining * weights[k].max(0.0) / active_weight;
            if num::approx_ge(offer, demands[k]) {
                shares[k] = demands[k];
                saturated[k] = true;
                hit_cap = true;
            }
        }
        if hit_cap {
            remaining = budget
                - shares
                    .iter()
                    .zip(&saturated)
                    .fold(0.0, |acc, (&s, &sat)| if sat { acc + s } else { acc });
            continue;
        }
        for k in 0..n {
            if !saturated[k] {
                shares[k] = remaining * weights[k].max(0.0) / active_weight;
            }
        }
        return shares;
    }
}

/// Builds the standalone [`Instance`] of one shard: same costs, caps and
/// capacities, only the shard's streams/users, only intra-shard interests,
/// and the given per-measure budgets. Local ids are dense in the order of
/// `shard.streams` / `shard.users`.
#[must_use]
pub fn build_shard_instance(
    instance: &Instance,
    shard: &Shard,
    budgets: &[f64],
    name: &str,
) -> Instance {
    let mut local_stream = vec![usize::MAX; instance.num_streams()];
    for (li, &s) in shard.streams.iter().enumerate() {
        local_stream[s.index()] = li;
    }
    build_shard_instance_with(instance, shard, budgets, name, &|s| {
        let li = local_stream[s.index()];
        (li != usize::MAX).then_some(li)
    })
}

/// The membership-parameterized core of [`build_shard_instance`]:
/// `local_of` maps a global stream id to its dense local index within the
/// shard, or `None` for streams outside it. The partition tree passes a
/// lookup backed by [`Sharding`]'s precomputed maps so that building every
/// shard costs O(shard), not O(instance) each.
fn build_shard_instance_with(
    instance: &Instance,
    shard: &Shard,
    budgets: &[f64],
    name: &str,
    local_of: &dyn Fn(StreamId) -> Option<usize>,
) -> Instance {
    let mut b = Instance::builder(name)
        .server_budgets(budgets.to_vec())
        .lane_mode(instance.lane_mode());
    for &s in &shard.streams {
        b.add_stream(instance.costs(s).to_vec());
    }
    for &gu in &shard.users {
        let spec = instance.user(gu);
        b.add_user(spec.utility_cap(), spec.capacities().to_vec());
    }
    for (lu, &gu) in shard.users.iter().enumerate() {
        for interest in instance.user(gu).interests() {
            let Some(ls) = local_of(interest.stream()) else {
                continue; // cut interest: stream lives in another shard
            };
            b.add_interest(
                UserId::new(lu),
                StreamId::new(ls),
                interest.utility(),
                interest.loads().to_vec(),
            )
            .expect("shard interests are unique and ids valid");
        }
    }
    b.build().expect("shard instances inherit validity")
}

/// A cheap, certified upper bound on the capped utility achievable using
/// only `streams` and `users` of `instance` under its full server budgets:
/// the smaller of the cap-sum bound `Σ_u min(W_u, Σ_S w_u(S))` and, for
/// every finite positive budget measure, a fractional knapsack over the
/// streams' singleton utilities (valid since `w(T) ≤ Σ_{S∈T} w({S})` by
/// subadditivity). Interests crossing the boundary of the given sets are
/// ignored — account for them separately (see the module docs).
#[must_use]
pub fn utility_upper_bound(instance: &Instance, streams: &[StreamId], users: &[UserId]) -> f64 {
    let mut member = vec![false; instance.num_users()];
    for &u in users {
        member[u.index()] = true;
    }
    let mut stream_member = vec![false; instance.num_streams()];
    for &s in streams {
        stream_member[s.index()] = true;
    }
    utility_upper_bound_with(instance, streams, users, &|u| member[u.index()], &|s| {
        stream_member[s.index()]
    })
}

/// The membership-parameterized core of [`utility_upper_bound`].
/// [`shard_utility_bound`] passes lookups backed by [`Sharding`]'s
/// precomputed maps so that bounding every shard costs O(shard), not
/// O(instance) each.
fn utility_upper_bound_with(
    instance: &Instance,
    streams: &[StreamId],
    users: &[UserId],
    user_in: &dyn Fn(UserId) -> bool,
    stream_in: &dyn Fn(StreamId) -> bool,
) -> f64 {
    // Cap-sum bound.
    let mut cap_sum = 0.0f64;
    for &u in users {
        let spec = instance.user(u);
        let total: f64 = spec
            .interests()
            .iter()
            .filter(|i| stream_in(i.stream()))
            .map(|i| i.utility())
            .sum();
        cap_sum += total.min(spec.utility_cap());
    }

    // Per-measure fractional knapsack over singleton utilities. Iterates
    // the exact audience pairs (not the kernel lanes) so the bound is
    // computed from exact `f64` weights in every lane mode — certificates
    // must never inherit quantization from the compact lanes.
    let caps = instance.user_caps();
    let singleton = |s: StreamId| -> f64 {
        instance
            .audience(s)
            .iter()
            .filter(|&&(u, _)| user_in(u))
            .map(|&(u, w)| w.min(caps[u.index()]))
            .sum()
    };
    let values: Vec<f64> = streams.iter().map(|&s| singleton(s)).collect();
    let mut best = cap_sum;
    for i in 0..instance.num_measures() {
        let budget = instance.budget(i);
        if !budget.is_finite() {
            continue;
        }
        let mut items: Vec<(f64, f64)> = streams
            .iter()
            .zip(&values)
            .map(|(&s, &v)| (v, instance.cost(s, i)))
            .filter(|&(v, _)| v > 0.0)
            .collect();
        // Densest first; free items are infinitely dense.
        items.sort_by(|a, b| {
            let da = if a.1 <= 0.0 { f64::INFINITY } else { a.0 / a.1 };
            let db = if b.1 <= 0.0 { f64::INFINITY } else { b.0 / b.1 };
            db.total_cmp(&da)
        });
        let mut room = budget;
        let mut bound = 0.0f64;
        for (v, c) in items {
            if c <= 0.0 {
                bound += v;
            } else if c <= room {
                bound += v;
                room -= c;
            } else {
                bound += v * (room / c).max(0.0);
                break;
            }
        }
        best = best.min(bound);
    }
    best
}

/// The per-shard upper bound of [`utility_upper_bound`], computed through a
/// [`Sharding`]'s precomputed membership maps so that bounding one shard
/// costs O(shard), not O(instance). This is the bound the partition tree
/// derives for every child of its root ([`HierarchicalSharding::new`]).
///
/// # Panics
///
/// Panics if `k` is not a valid shard index of `sharding`.
#[must_use]
pub fn shard_utility_bound(instance: &Instance, sharding: &Sharding, k: usize) -> f64 {
    let shard = &sharding.shards[k];
    utility_upper_bound_with(
        instance,
        &shard.streams,
        &shard.users,
        &|u| sharding.shard_of_user[u.index()] == k,
        &|s| sharding.shard_of_stream[s.index()] == k,
    )
}

/// The coarse (super) level of the two-level partition: the catalog
/// partitioned at cap `⌈|S| / super_shards⌉` (never coarser than
/// `max_streams`), then head-split while the stream-weighted skew ratio
/// exceeds [`HEAD_SPLIT_SKEW`]. Deterministic and thread-count invariant;
/// the ingest engine and [`solve_sharded`] both partition through this
/// function, which their bit-for-bit equivalence depends on.
#[must_use]
pub fn super_partition(instance: &Instance, config: &ShardConfig) -> Sharding {
    let super_cap = instance
        .num_streams()
        .div_ceil(config.super_shards.max(1))
        .max(config.max_streams.max(1));
    let mut supering = shard_instance(instance, super_cap);
    split_head_shards(instance, &mut supering, config.max_streams, HEAD_SPLIT_SKEW);
    supering
}

/// Head-splitting: while the partition's skew ratio exceeds `threshold`,
/// re-cut the largest shard (ties to the smallest index) at half its
/// stream count, floored at the inner cap `max_streams`. Each round builds
/// the head's sub-instance and re-runs the same Kruskal splitter on it, so
/// the split cuts the head's lowest-utility interests first, exactly like
/// the coarse partition itself; newly cut interests fold into the
/// partition's cut list and `cut_mass` (they stay certificate-accounted).
fn split_head_shards(
    instance: &Instance,
    supering: &mut Sharding,
    max_streams: usize,
    threshold: f64,
) {
    let floor = max_streams.max(1);
    let mut split_any = false;
    while supering.skew_ratio() > threshold {
        let mut head = 0usize;
        for (k, s) in supering.shards.iter().enumerate() {
            if s.streams.len() > supering.shards[head].streams.len() {
                head = k;
            }
        }
        let head_streams = supering.shards[head].streams.len();
        let cap = head_streams.div_ceil(2).max(floor);
        if cap >= head_streams {
            // The head is already at the inner cap: nothing to gain. Break
            // (not return) so the membership-map rebuild below still runs if
            // an earlier round spliced the shard list.
            break;
        }
        let shard = supering.shards[head].clone();
        let sub = build_shard_instance(
            instance,
            &shard,
            instance.budgets(),
            "head-split", // partitioned only, never solved: the name is a label
        );
        let parts = shard_instance(&sub, cap);
        // Translate the local split back to global ids. Local ids are
        // dense in the (ascending) order of the head's members, so the
        // monotone translation keeps every shard's id vectors ascending.
        let new_shards: Vec<Shard> = parts
            .shards
            .iter()
            .map(|p| Shard {
                streams: p
                    .streams
                    .iter()
                    .map(|ls| shard.streams[ls.index()])
                    .collect(),
                users: p.users.iter().map(|lu| shard.users[lu.index()]).collect(),
            })
            .collect();
        supering.cut.extend(parts.cut.iter().map(|c| CutInterest {
            user: shard.users[c.user.index()],
            stream: shard.streams[c.stream.index()],
            utility: c.utility,
        }));
        supering.cut_mass += parts.cut_mass;
        supering.shards.splice(head..=head, new_shards);
        split_any = true;
    }
    if split_any {
        supering.cut.sort_by_key(|c| (c.user, c.stream));
        supering.index_members();
    }
}

/// The root of the partition tree: one partition of the instance plus its
/// certificate terms and water-filled budget shares. This is the single
/// source of truth for sharded solving — [`solve_sharded`] and the ingest
/// engine both solve through one tree per call — and the only place where
/// the tree's depth is decided:
///
/// * with [`ShardConfig::super_shards`] `≤ 1` the root partition is
///   [`shard_instance`] at `max_streams`, and its children are the leaves
///   (depth 1: the flat solve);
/// * with `super_shards ≥ 2` it is the coarse [`super_partition`], and
///   every child is a super-shard partitioned again at `max_streams`, whose
///   inner shards are the leaves (depth 2).
///
/// `bounds[k]` is [`shard_utility_bound`] of child `k` under the **full**
/// server budgets. It serves double duty: as the water-fill weight steering
/// `shares[k]`, and as the only per-child certificate contribution —
/// `Σ bounds + supers.cut_mass (+ quantization mass)` is the certified
/// upper bound, with inner-level bounds deliberately excluded
/// (budget-restricted inner bounds are not valid for the full-budget
/// optimum).
#[derive(Clone, Debug)]
pub struct HierarchicalSharding {
    /// The root partition over global ids: the flat shards at depth 1, the
    /// coarse super-shards (after head-splitting) at depth 2.
    pub supers: Sharding,
    /// Per-child utility bound under the full budgets: water-fill weight
    /// and certificate term at once.
    pub bounds: Vec<f64>,
    /// Per-child water-filled budget share (one entry per measure).
    pub shares: Vec<Vec<f64>>,
    /// `true` at depth 2, where every child is a planned super-shard.
    two_level: bool,
    /// Dense local index of every stream within its child.
    local_of_stream: Vec<usize>,
}

impl HierarchicalSharding {
    /// Builds the root for `instance`: partition (see the type docs for
    /// its depth), full-budget bounds, water-filled shares.
    #[must_use]
    pub fn new(instance: &Instance, config: &ShardConfig) -> Self {
        let two_level = config.super_shards > 1;
        let supers = if two_level {
            super_partition(instance, config)
        } else {
            shard_instance(instance, config.max_streams)
        };
        let bounds: Vec<f64> = (0..supers.num_shards())
            .map(|k| shard_utility_bound(instance, &supers, k))
            .collect();
        let shares = split_budgets(instance, &supers, &bounds, config.budget_slack);
        // One O(instance) pass for all per-child membership lookups:
        // together with the partition's shard_of_* maps this keeps every
        // per-child step at O(child) instead of O(instance) — the
        // difference between linear and quadratic total work at 10⁵–10⁶
        // streams.
        let mut local_of_stream = vec![0usize; instance.num_streams()];
        for shard in &supers.shards {
            for (li, &s) in shard.streams.iter().enumerate() {
                local_of_stream[s.index()] = li;
            }
        }
        HierarchicalSharding {
            supers,
            bounds,
            shares,
            two_level,
            local_of_stream,
        }
    }

    /// Number of children of the root (super-shards at depth 2, shards at
    /// depth 1).
    #[must_use]
    pub fn num_supers(&self) -> usize {
        self.supers.num_shards()
    }

    /// The certified upper bound these terms imply for `instance`:
    /// `Σ bounds + root cut_mass + quantization mass`.
    #[must_use]
    pub fn upper_bound(&self, instance: &Instance) -> f64 {
        self.bounds.iter().sum::<f64>() + self.supers.cut_mass + instance.quantization_error()
    }

    /// Builds child `k`'s standalone instance: the same costs, caps and
    /// capacities, only the child's members and intra-child interests, the
    /// child's share as budgets, and the name `"{instance}#{label}{k}"` (a
    /// label only — solve results never depend on it). Costs O(child).
    fn build_child(&self, instance: &Instance, k: usize, label: &str) -> Instance {
        build_shard_instance_with(
            instance,
            &self.supers.shards[k],
            &self.shares[k],
            &format!("{}#{label}{k}", instance.name()),
            &|s| {
                (self.supers.shard_of_stream[s.index()] == k)
                    .then(|| self.local_of_stream[s.index()])
            },
        )
    }

    /// Plans every child of the root for solving, fanned out on
    /// `config.threads` workers (input-ordered, so fully deterministic).
    /// At depth 2 each child becomes its own sub-instance, partitioned by a
    /// depth-1 tree of its own: the inner partition at `max_streams`, the
    /// inner bounds (water-fill weights only — never certificate terms) and
    /// the inner water-fill of the child's share.
    fn plan<'a>(&'a self, instance: &'a Instance, config: &ShardConfig) -> Vec<Child<'a>> {
        let inner_config = ShardConfig {
            super_shards: 0,
            ..*config
        };
        mmd_par::parallel_map(config.threads, &self.supers.shards, |k, _| Child {
            root: self,
            instance,
            k,
            plan: self.two_level.then(|| {
                let sub = self.build_child(instance, k, "super");
                let inner = HierarchicalSharding::new(&sub, &inner_config);
                SuperPlan { sub, inner }
            }),
        })
    }
}

/// A planned super-shard: its standalone sub-instance (local ids, budgets =
/// the super-shard's water-filled share) and the depth-1 tree over it.
struct SuperPlan {
    sub: Instance,
    inner: HierarchicalSharding,
}

/// One child of the root, planned for solving. At depth 1 the child is
/// itself the only leaf: solved under its root share, with no tail of its
/// own (exactly the flat solve). At depth 2 it is a planned super-shard
/// whose inner shards are the leaves, finished by the super-shard tail of
/// [`Child::finish`].
struct Child<'a> {
    root: &'a HierarchicalSharding,
    instance: &'a Instance,
    /// The child's index in the root partition.
    k: usize,
    plan: Option<SuperPlan>,
}

impl Child<'_> {
    /// Number of leaves under the child.
    fn num_leaves(&self) -> usize {
        self.plan.as_ref().map_or(1, |p| p.inner.num_supers())
    }

    /// The tree and instance leaf `j` is a child of, and its index there.
    fn leaf_parent(&self, j: usize) -> (&HierarchicalSharding, &Instance, usize) {
        match &self.plan {
            None => (self.root, self.instance, self.k),
            Some(plan) => (&plan.inner, &plan.sub, j),
        }
    }

    /// Leaf `j` with its global membership and budget share, unsolved
    /// (an empty local). Membership, member content and share fully
    /// determine the leaf's instance (up to its name), so they key the
    /// leaf memo.
    fn leaf(&self, j: usize) -> Leaf {
        let (tree, _, i) = self.leaf_parent(j);
        let leaf = &tree.supers.shards[i];
        let shard = if self.plan.is_some() {
            // Sub-instance ids are dense in the child's member order.
            let outer = &self.root.supers.shards[self.k];
            Shard {
                streams: leaf
                    .streams
                    .iter()
                    .map(|s| outer.streams[s.index()])
                    .collect(),
                users: leaf.users.iter().map(|u| outer.users[u.index()]).collect(),
            }
        } else {
            leaf.clone()
        };
        Leaf {
            local: Assignment::new(shard.users.len()),
            shard,
            share: tree.shares[i].clone(),
            state: LeafState::Solved,
            missed: true,
            child: self.k,
            index: j,
        }
    }

    /// Builds leaf `j`'s standalone instance, named `"{instance}#shard{k}"`
    /// at depth 1 and `"{instance}#super{k}#shard{j}"` at depth 2.
    fn build_leaf(&self, j: usize) -> Instance {
        let (tree, instance, i) = self.leaf_parent(j);
        tree.build_child(instance, i, "shard")
    }

    /// The child's solution over its own members from its leaves'
    /// solutions (`locals`, leaf-local ids, in leaf order), with the number
    /// of streams the child's own repair pass dropped. At depth 1 that is
    /// the one leaf's solution as is. At depth 2 it is the super-shard
    /// tail: merge the leaves over the sub-instance and [`reconcile`] it
    /// against the share budgets, exactly like the root does for its
    /// children.
    fn finish<'b>(&self, locals: impl IntoIterator<Item = &'b Assignment>) -> (Assignment, usize) {
        let Some(plan) = &self.plan else {
            let local = locals
                .into_iter()
                .next()
                .expect("a leaf child has one leaf");
            return (local.clone(), 0);
        };
        let mut merged = Assignment::for_instance(&plan.sub);
        for (shard, local) in plan.inner.supers.shards.iter().zip(locals) {
            merge_local(&mut merged, shard, local);
        }
        let repaired = reconcile(&plan.sub, &mut merged);
        (merged, repaired)
    }
}

/// Merges a solution over `shard`'s members (local ids dense in the order
/// of `shard.streams` / `shard.users`) into `merged`.
fn merge_local(merged: &mut Assignment, shard: &Shard, local: &Assignment) {
    for (lu, &gu) in shard.users.iter().enumerate() {
        for ls in local.streams_of(UserId::new(lu)) {
            merged.assign(gu, shard.streams[ls.index()]);
        }
    }
}

/// The reconciliation tail every merge runs: the budget repair pass, then
/// (when the repair left the assignment feasible) a [`residual_fill`].
/// Returns the number of streams the repair dropped. Each drop costs one
/// scan of the range plus a rescore of the streams it touched (see
/// [`repair_budgets`]), not a rescan of every range stream's audience.
fn reconcile(instance: &Instance, merged: &mut Assignment) -> usize {
    let repaired = repair_budgets(instance, merged);
    if merged.check_feasible(instance).is_ok() {
        residual_fill(instance, merged);
    }
    repaired
}

/// `part / whole` clamped to `[0, 1]`, and `0` when `whole` is not a
/// positive finite number — the gap fractions of a certified bracket stay
/// NaN-free even if a bound were ever non-finite.
pub(crate) fn fraction_of(part: f64, whole: f64) -> f64 {
    if whole.is_finite() && whole > 0.0 {
        (part / whole).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// Work units of one leaf solve: streams × users, floored at one so even
/// degenerate leaves register against a work budget.
fn work_units(streams: usize, users: usize) -> u64 {
    (streams as u64).saturating_mul(users as u64).max(1)
}

/// Where a leaf's solution in a [`TreeSolve`] came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LeafState {
    /// Taken from the leaf memo as is.
    Reused,
    /// Solved in this tree solve.
    Solved,
    /// Skipped by a budget trip: the memo entry with the same membership
    /// stands in for it, else an empty solution.
    Skipped,
}

/// One leaf of a solved tree: its global membership, the budget share it
/// is solved under, and its solution over its own members (leaf-local ids).
#[derive(Clone, Debug)]
pub(crate) struct Leaf {
    pub(crate) shard: Shard,
    pub(crate) share: Vec<f64>,
    pub(crate) local: Assignment,
    pub(crate) state: LeafState,
    /// `true` when the memo could not serve the leaf, before any
    /// escalation to a full re-solve.
    pub(crate) missed: bool,
    /// The root child the leaf belongs to, and its index under it.
    child: usize,
    index: usize,
}

/// A memo of solved leaves a tree solve may take solutions from (the
/// ingest engine's leaf cache).
pub(crate) trait LeafMemo {
    /// The memoized solution over exactly `leaf`'s members (leaf-local
    /// ids), if there is one, and whether it is what a fresh solve of the
    /// leaf under `share` would return: the entry is not stale, its
    /// members' content is untouched and it was solved under `share`.
    fn find(&self, leaf: &Shard, share: &[f64]) -> Option<(&Assignment, bool)>;
}

/// How an incremental caller drives a tree solve: the memo it reuses, the
/// thresholds that escalate to a full re-solve, and the solve-cost budget
/// of the [`crate::govern`] layer.
pub(crate) struct Governance<'a> {
    pub(crate) memo: &'a dyn LeafMemo,
    /// Solve every leaf when more than this fraction of them miss the memo.
    pub(crate) max_dirty_fraction: f64,
    /// Solve every leaf when the root's cut mass exceeds this fraction of
    /// the upper bound.
    pub(crate) max_cut_fraction: f64,
    pub(crate) budget: SolveBudget,
    /// When the apply started: wall limits count from here.
    pub(crate) started: Instant,
}

/// Result of a governed tree solve: the certified [`ShardedOutcome`] plus
/// what the incremental caller needs to report and to rebuild its memo.
#[derive(Debug)]
pub(crate) struct TreeSolve {
    pub(crate) outcome: ShardedOutcome,
    /// Every leaf in tree order (children in root order, leaves in child
    /// order).
    pub(crate) leaves: Vec<Leaf>,
    /// Root children at depth 2 (0 at depth 1), those holding a memo miss
    /// before escalation, and those holding a leaf solved here.
    pub(crate) supers: usize,
    pub(crate) dirty_supers: usize,
    pub(crate) resolved_supers: usize,
    /// Whether an escalation trigger made every leaf solve.
    pub(crate) full_resolve: bool,
    /// Whether governance deferred an escalated full re-solve.
    pub(crate) deferred_full: bool,
    pub(crate) soft_tripped: bool,
    pub(crate) hard_tripped: bool,
    /// Sum of the certificate terms of root children with a skipped leaf.
    pub(crate) skipped_bound: f64,
}

/// What a tree solve produced: a solved tree, or the signal that a hard
/// budget trip shed it ([`DegradeAction::ShedToCache`]) before any result.
pub(crate) enum Tree {
    Solved(Box<TreeSolve>),
    Shed { soft_tripped: bool },
}

/// The one tree solve behind [`solve_sharded`] and the ingest engine:
/// build the root ([`HierarchicalSharding`]), plan every child, take each
/// leaf's solution from the memo of `governance` when it is valid there,
/// solve the rest through one [`solve_batch`] loop, finish each child,
/// merge in child order and reconcile at the root.
///
/// Without `governance` every leaf is solved in a single `solve_batch`
/// call. With it, too many memo misses or too much cut mass escalate to
/// solving every leaf (unless the budget cannot afford that: then the
/// escalation is deferred), and the loop checks the budget between
/// worker-sized chunks of leaves, never mid-kernel. Leaf solves are
/// independent, so neither reuse nor chunking changes a result: a memo
/// entry is reused only when it is what the solve would return.
pub(crate) fn solve_tree(
    instance: &Instance,
    config: &ShardConfig,
    governance: Option<&Governance<'_>>,
) -> Result<Tree, SolveError> {
    let threads = config.threads;
    let root = HierarchicalSharding::new(instance, config);
    let upper_bound = root.upper_bound(instance);
    let children = root.plan(instance, config);
    let mut leaves: Vec<Leaf> = children
        .iter()
        .flat_map(|child| (0..child.num_leaves()).map(|j| child.leaf(j)))
        .collect();
    let found: Vec<Option<(&Assignment, bool)>> = leaves
        .iter_mut()
        .map(|leaf| {
            let entry = governance.and_then(|g| g.memo.find(&leaf.shard, &leaf.share));
            leaf.missed = !entry.is_some_and(|(_, fresh)| fresh);
            entry
        })
        .collect();

    let budget = governance.map_or(SolveBudget::unlimited(), |g| g.budget);
    let started = governance.map_or_else(Instant::now, |g| g.started);
    let misses = leaves.iter().filter(|l| l.missed).count();
    let mut full_resolve = governance.is_some_and(|g| {
        fraction_of(misses as f64, leaves.len() as f64) > g.max_dirty_fraction
            || fraction_of(root.supers.cut_mass, upper_bound) > g.max_cut_fraction
    });
    let mut deferred_full = false;
    if full_resolve {
        // DeferFull rung of the ladder: when solving every leaf cannot fit
        // the budget, stay incremental and ask background maintenance to
        // catch up instead of blowing the latency target on this solve.
        let full_work: u64 = leaves
            .iter()
            .map(|l| work_units(l.shard.streams.len(), l.shard.users.len()))
            .sum();
        let elapsed = started.elapsed();
        if budget.trips_soft(elapsed, 0, full_work) || budget.trips_hard(elapsed, 0, full_work) {
            full_resolve = false;
            deferred_full = true;
        }
    }
    if !full_resolve {
        for (leaf, entry) in leaves.iter_mut().zip(&found) {
            if let Some((local, true)) = entry {
                leaf.local = (*local).clone();
                leaf.state = LeafState::Reused;
            }
        }
    }

    let todo: Vec<usize> = (0..leaves.len())
        .filter(|&i| leaves[i].state == LeafState::Solved)
        .collect();
    let subs: Vec<Instance> = mmd_par::parallel_map(threads, &todo, |_, &i| {
        children[leaves[i].child].build_leaf(leaves[i].index)
    });
    // One chunk spans every leaf unless a budget is armed.
    let chunk = if budget.is_unlimited() {
        subs.len()
    } else {
        mmd_par::resolve(threads)
    }
    .max(1);
    let (mut soft_tripped, mut hard_tripped, mut spent) = (false, false, 0u64);
    for (batch, ids) in subs.chunks(chunk).zip(todo.chunks(chunk)) {
        let next_work: u64 = batch
            .iter()
            .map(|s| work_units(s.num_streams(), s.num_users()))
            .sum();
        let elapsed = started.elapsed();
        if !hard_tripped && budget.trips_hard(elapsed, spent, next_work) {
            hard_tripped = true;
            match budget.hard_action {
                DegradeAction::ShedToCache => return Ok(Tree::Shed { soft_tripped }),
                DegradeAction::DeferFull => deferred_full = true,
                DegradeAction::WidenGap => {}
            }
        }
        if !soft_tripped && !hard_tripped && budget.trips_soft(elapsed, spent, next_work) {
            soft_tripped = true;
        }
        if soft_tripped || hard_tripped {
            // The memo entry with the same membership is index-safe, and
            // the reconciliation passes re-enforce the real budgets; the
            // child's fresh bound stays in the certificate either way.
            for &i in ids {
                leaves[i].state = LeafState::Skipped;
                if let Some((local, _)) = found[i] {
                    leaves[i].local = local.clone();
                }
            }
            continue;
        }
        for (&i, solved) in ids.iter().zip(solve_batch(batch, &config.mmd, threads)) {
            leaves[i].local = solved?.assignment;
        }
        spent = spent.saturating_add(next_work);
    }

    // The per-child tails are independent too. Every child has at least
    // one leaf, so the leaves group into the children in order.
    let groups: Vec<&[Leaf]> = leaves.chunk_by(|a, b| a.child == b.child).collect();
    debug_assert_eq!(groups.len(), children.len());
    let finished: Vec<(Assignment, usize)> =
        mmd_par::parallel_map(threads, &children, |p, child| {
            child.finish(groups[p].iter().map(|l| &l.local))
        });
    let mut merged = Assignment::for_instance(instance);
    let mut cut_edges = root.supers.cut.len();
    let mut cut_mass = root.supers.cut_mass;
    let mut repaired_streams = 0usize;
    // The children's solutions are borrowed, not consumed, so they stay
    // allocated until after the reconcile: the merged assignment's tree
    // nodes then do not land scattered in their freed memory, which made
    // the reconcile passes about 1.5x slower on clustered instances.
    for (child, (local, repaired)) in children.iter().zip(&finished) {
        if let Some(plan) = &child.plan {
            // Interests cut by the child's inner partition.
            cut_edges += plan.inner.supers.cut.len();
            cut_mass += plan.inner.supers.cut_mass;
        }
        repaired_streams += repaired;
        merge_local(&mut merged, &root.supers.shards[child.k], local);
    }
    repaired_streams += reconcile(instance, &mut merged);
    let utility = merged.utility(instance);
    debug_assert!(
        merged.check_feasible(instance).is_ok(),
        "sharded output must be feasible: {:?}",
        merged.check_feasible(instance)
    );

    // Super-shard counters exist at depth 2 only.
    let supers = |holds: fn(&Leaf) -> bool| {
        let count = groups.iter().filter(|g| g.iter().any(holds)).count();
        if root.two_level {
            count
        } else {
            0
        }
    };
    let (dirty_supers, resolved_supers) = (
        supers(|l| l.missed),
        supers(|l| l.state == LeafState::Solved),
    );
    let skipped_bound = groups
        .iter()
        .zip(&root.bounds)
        .filter(|(g, _)| g.iter().any(|l| l.state == LeafState::Skipped))
        .fold(0.0f64, |acc, (_, bound)| acc + bound);
    Ok(Tree::Solved(Box::new(TreeSolve {
        outcome: ShardedOutcome {
            assignment: merged,
            utility,
            upper_bound,
            gap_fraction: fraction_of(upper_bound - utility, upper_bound),
            num_shards: leaves.len(),
            largest_shard: leaves
                .iter()
                .map(|l| l.shard.streams.len())
                .max()
                .unwrap_or(0),
            cut_edges,
            cut_mass,
            repaired_streams,
            skew_ratio: root.supers.skew_ratio(),
        },
        supers: supers(|_| true),
        dirty_supers,
        resolved_supers,
        leaves,
        full_resolve,
        deferred_full,
        soft_tripped,
        hard_tripped,
        skipped_bound,
    })))
}

/// Result of [`solve_sharded`]: a feasible assignment plus the certificate
/// bracketing the optimum (`utility ≤ OPT ≤ upper_bound`).
#[derive(Clone, Debug)]
pub struct ShardedOutcome {
    /// The final merged, repaired, feasible assignment.
    pub assignment: Assignment,
    /// Capped utility of [`Self::assignment`] — the certified lower bound.
    pub utility: f64,
    /// Certified upper bound on the optimum:
    /// `Σ_k ub(shard_k) + cut_mass` (see the module docs).
    pub upper_bound: f64,
    /// Relative optimality gap `(upper_bound − utility) / upper_bound`
    /// (0 when the upper bound is 0).
    pub gap_fraction: f64,
    /// Number of shards solved (the leaves of the partition tree).
    pub num_shards: usize,
    /// Stream count of the largest shard.
    pub largest_shard: usize,
    /// Number of interests cut by the size-capped splitter.
    pub cut_edges: usize,
    /// Total utility of the cut interests.
    pub cut_mass: f64,
    /// Streams dropped by the budget repair pass.
    pub repaired_streams: usize,
    /// Stream-weighted skew ratio ([`Sharding::skew_ratio`]) of the root
    /// partition: the flat partition in single-level mode, the coarse
    /// super level (after head-splitting) in two-level mode.
    pub skew_ratio: f64,
}

/// Solves one instance by sharding: build the root partition
/// ([`HierarchicalSharding`]: partition, full-budget bounds, water-filled
/// budget shares), plan its children, solve **every leaf of every child**
/// through one flat [`solve_batch`] fan-out at `config.threads` workers —
/// at depth 2 workers steal inner-shard solves across super-shards, so a
/// Zipf head cannot pin the critical path — finish each child, merge,
/// repair the shared budgets, and run a global [`residual_fill`].
///
/// The outcome is deterministic and bit-identical at any thread count
/// (`solve_batch` results are per-instance deterministic and
/// input-ordered). On an instance whose components are disjoint and whose
/// budgets are uncontended, the result is bit-identical to [`solve_mmd`]
/// (`tests/shard_equivalence.rs` pins this). The ingest engine runs the
/// same tree solve with a leaf memo, so its committed states are
/// bit-identical to this function's by construction.
///
/// Certificate: the upper bound is the root's
/// ([`HierarchicalSharding::upper_bound`]) at either depth — restricting OPT
/// to a child keeps it feasible for the full budgets, so the per-child
/// bounds plus the mass of the interests the root partition cut cover it
/// (Lemma 2.1; see the module docs).
///
/// [`solve_mmd`]: crate::algo::reduction::solve_mmd
///
/// # Examples
///
/// ```
/// use mmd_core::algo::shard::{solve_sharded, ShardConfig};
/// use mmd_core::Instance;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Two disjoint one-stream communities sharing one server budget.
/// let mut b = Instance::builder("shards").server_budgets(vec![4.0]);
/// let s0 = b.add_stream(vec![2.0]);
/// let s1 = b.add_stream(vec![2.0]);
/// let u0 = b.add_user(5.0, vec![]);
/// let u1 = b.add_user(5.0, vec![]);
/// b.add_interest(u0, s0, 3.0, vec![])?;
/// b.add_interest(u1, s1, 4.0, vec![])?;
/// let inst = b.build()?;
///
/// let out = solve_sharded(&inst, &ShardConfig::default())?;
/// // The outcome is certified: utility ≤ OPT ≤ upper_bound.
/// assert!(out.assignment.check_feasible(&inst).is_ok());
/// assert!(out.utility <= out.upper_bound);
/// assert_eq!(out.num_shards, 2);
/// assert_eq!(out.utility, 7.0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates [`SolveError`]s from the per-shard pipeline (none occur for
/// well-formed instances).
pub fn solve_sharded(
    instance: &Instance,
    config: &ShardConfig,
) -> Result<ShardedOutcome, SolveError> {
    match solve_tree(instance, config, None)? {
        Tree::Solved(tree) => Ok(tree.outcome),
        Tree::Shed { .. } => unreachable!("an unlimited budget never sheds"),
    }
}

/// The global repair pass: while some server budget is violated, drop the
/// transmitted stream with the smallest capped-utility loss per unit of
/// violating (budget-normalized) cost, deterministically (ties by id).
/// Returns the number of streams dropped. User capacities are never
/// violated by shard merges (users are never split across shards), so only
/// the server side needs repair.
///
/// Selection is two-tier: a stream costing into a violated zero budget must
/// go whatever its loss (tier 0, ordered by loss); every other stream is
/// ordered by loss per unit of violating pressure (tier 1). Ties go to the
/// smallest id: the range is scanned in ascending order and only a strictly
/// smaller `(tier, score)` replaces the incumbent.
///
/// # Cost
///
/// Each drop costs one O(|range|) selection scan, the per-measure
/// [`Assignment::server_cost`] sums, and a rescore of only the streams the
/// drop touched. Two things are cached across drops within one call:
///
/// - every user's raw utility `Σ_{S ∈ A(u)} w_u(S)`, recomputed with
///   [`Assignment::user_raw_utility`] only for the users that lost the
///   dropped stream;
/// - every range stream's `(tier, score)`. A stream's score reads only the
///   violated-measure set and the raw utilities of the users still
///   receiving it, so a drop marks dirty exactly the streams still assigned
///   to the users that lost it, and a change of the violated set marks
///   every stream dirty.
///
/// A dirty score is recomputed by the same arithmetic from the same inputs,
/// so every cached value has the bits a full recompute would give, and the
/// linear scan (no heap, whose total order would treat ties and `-0.0`
/// differently) picks exactly the stream the full-recompute loop picks. The
/// violated set is re-derived from the full cost sums after each drop, so no
/// running float total can flip a boundary `approx_le` either.
pub fn repair_budgets(instance: &Instance, assignment: &mut Assignment) -> usize {
    let violated_measures = |assignment: &Assignment| -> Vec<usize> {
        (0..instance.num_measures())
            .filter(|&i| !num::approx_le(assignment.server_cost(i, instance), instance.budget(i)))
            .collect()
    };
    let mut violated = violated_measures(assignment);
    if violated.is_empty() {
        return 0;
    }
    let mut raw: Vec<f64> = instance
        .users()
        .map(|u| assignment.user_raw_utility(u, instance))
        .collect();
    // `None` marks a stream whose drop relieves no violated measure.
    let mut score: Vec<Option<(u8, f64)>> = vec![None; instance.num_streams()];
    let mut dirty = vec![true; instance.num_streams()];
    let mut dropped = 0usize;
    loop {
        let mut best: Option<((u8, f64), StreamId)> = None;
        for s in assignment.range() {
            if dirty[s.index()] {
                score[s.index()] = repair_score(instance, assignment, &raw, &violated, s);
                dirty[s.index()] = false;
            }
            let Some(score) = score[s.index()] else {
                continue;
            };
            let better =
                best.is_none_or(|(bs, _)| score.0 < bs.0 || (score.0 == bs.0 && score.1 < bs.1));
            if better {
                best = Some((score, s));
            }
        }
        let Some((_, s)) = best else {
            // No stream can relieve the violation (cannot happen for
            // instances built through the validating builder).
            return dropped;
        };
        for &u in instance.audience_users(s) {
            let u = UserId::new(u as usize);
            if assignment.unassign(u, s) {
                raw[u.index()] = assignment.user_raw_utility(u, instance);
                for t in assignment.streams_of(u) {
                    dirty[t.index()] = true;
                }
            }
        }
        dropped += 1;
        let now = violated_measures(assignment);
        if now.is_empty() {
            return dropped;
        }
        if now != violated {
            violated = now;
            dirty.fill(true);
        }
    }
}

/// One stream's [`repair_budgets`] key under the `violated` measures and
/// the users' current raw utilities: `(0, loss)` when it costs into a
/// violated zero budget, `(1, loss / pressure)` otherwise, and `None` when
/// dropping it relieves no violated measure.
fn repair_score(
    instance: &Instance,
    assignment: &Assignment,
    raw: &[f64],
    violated: &[usize],
    s: StreamId,
) -> Option<(u8, f64)> {
    let pressure: f64 = violated
        .iter()
        .map(|&i| {
            let b = instance.budget(i);
            if b > 0.0 {
                instance.cost(s, i) / b
            } else if instance.cost(s, i) > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        })
        .sum();
    if pressure <= 0.0 {
        return None;
    }
    let mut loss = 0.0f64;
    let caps = instance.user_caps();
    // Exact audience pairs: repair decisions and their losses stay exact in
    // every lane mode.
    for &(u, w) in instance.audience(s) {
        if assignment.contains(u, s) {
            let cap = caps[u.index()];
            let r = raw[u.index()];
            loss += r.min(cap) - (r - w).min(cap);
        }
    }
    Some(if pressure.is_infinite() {
        (0u8, loss)
    } else {
        (1u8, loss / pressure)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::reduction::solve_mmd;
    use crate::num::approx_eq;

    fn sid(i: usize) -> StreamId {
        StreamId::new(i)
    }
    fn uid(i: usize) -> UserId {
        UserId::new(i)
    }

    /// Two disjoint components (2 streams + 1 user each) with an
    /// uncontended budget.
    fn two_components() -> Instance {
        let mut b = Instance::builder("2c").server_budgets(vec![100.0]);
        let s: Vec<_> = (0..4).map(|i| b.add_stream(vec![2.0 + i as f64])).collect();
        let u0 = b.add_user(f64::INFINITY, vec![]);
        let u1 = b.add_user(f64::INFINITY, vec![]);
        b.add_interest(u0, s[0], 4.0, vec![]).unwrap();
        b.add_interest(u0, s[1], 3.0, vec![]).unwrap();
        b.add_interest(u1, s[2], 5.0, vec![]).unwrap();
        b.add_interest(u1, s[3], 2.0, vec![]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn components_become_shards() {
        let inst = two_components();
        let sharding = shard_instance(&inst, 0);
        assert_eq!(sharding.num_shards(), 2);
        assert!(sharding.cut.is_empty());
        assert_eq!(sharding.cut_mass, 0.0);
        assert_eq!(sharding.shards[0].streams, vec![sid(0), sid(1)]);
        assert_eq!(sharding.shards[0].users, vec![uid(0)]);
        assert_eq!(sharding.shards[1].streams, vec![sid(2), sid(3)]);
        assert_eq!(sharding.shards[1].users, vec![uid(1)]);
        assert_eq!(sharding.shard_of_stream, vec![0, 0, 1, 1]);
        assert_eq!(sharding.shard_of_user, vec![0, 1]);
        assert_eq!(sharding.largest_shard_streams(), 2);
    }

    #[test]
    fn cap_cuts_lowest_utility_edges() {
        // Chain s0 -u0- s1 -u1- s2, with the u1–s2 edge the lightest.
        let mut b = Instance::builder("chain").server_budgets(vec![100.0]);
        let s: Vec<_> = (0..3).map(|_| b.add_stream(vec![1.0])).collect();
        let u0 = b.add_user(f64::INFINITY, vec![]);
        let u1 = b.add_user(f64::INFINITY, vec![]);
        b.add_interest(u0, s[0], 5.0, vec![]).unwrap();
        b.add_interest(u0, s[1], 4.0, vec![]).unwrap();
        b.add_interest(u1, s[1], 0.5, vec![]).unwrap();
        b.add_interest(u1, s[2], 0.4, vec![]).unwrap();
        let inst = b.build().unwrap();
        let sharding = shard_instance(&inst, 2);
        // The heavy pair {s0, s1} fills the cap; u1 joins it via its 0.5
        // edge; the 0.4 edge to s2 is cut and s2 becomes a residual shard.
        assert_eq!(sharding.cut.len(), 1);
        assert_eq!(sharding.cut[0].user, uid(1));
        assert_eq!(sharding.cut[0].stream, sid(2));
        assert!(approx_eq(sharding.cut_mass, 0.4));
        assert_eq!(sharding.num_shards(), 2);
        assert_eq!(sharding.shards[0].streams, vec![sid(0), sid(1)]);
        assert_eq!(sharding.shards[0].users, vec![uid(0), uid(1)]);
        assert_eq!(sharding.shards[1].streams, vec![sid(2)]);
        assert!(sharding.shards[1].users.is_empty());
        // Cap respected everywhere.
        assert!(sharding.largest_shard_streams() <= 2);
    }

    #[test]
    fn sharded_matches_monolithic_on_disjoint_components() {
        let inst = two_components();
        let mono = solve_mmd(&inst, &MmdConfig::default()).unwrap();
        for threads in [1usize, 2, 4] {
            let out = solve_sharded(&inst, &ShardConfig::default().with_threads(threads)).unwrap();
            assert_eq!(out.assignment, mono.assignment, "threads {threads}");
            assert_eq!(out.utility.to_bits(), mono.utility.to_bits());
            assert_eq!(out.num_shards, 2);
            assert_eq!(out.cut_edges, 0);
            assert_eq!(out.repaired_streams, 0);
        }
    }

    #[test]
    fn repair_restores_shared_budget_feasibility() {
        // Two components, each one stream of cost 10, budget 10: the floors
        // fund both shards fully, so the merge oversubscribes and repair
        // must drop the weaker stream.
        let mut b = Instance::builder("repair").server_budgets(vec![10.0]);
        let s0 = b.add_stream(vec![10.0]);
        let s1 = b.add_stream(vec![10.0]);
        let u0 = b.add_user(f64::INFINITY, vec![]);
        let u1 = b.add_user(f64::INFINITY, vec![]);
        b.add_interest(u0, s0, 7.0, vec![]).unwrap();
        b.add_interest(u1, s1, 3.0, vec![]).unwrap();
        let inst = b.build().unwrap();
        let out = solve_sharded(&inst, &ShardConfig::default()).unwrap();
        assert!(out.assignment.check_feasible(&inst).is_ok());
        assert_eq!(out.repaired_streams, 1);
        // The higher-utility stream survives.
        assert!(out.assignment.contains(u0, s0));
        assert!(!out.assignment.in_range(s1));
        assert!(approx_eq(out.utility, 7.0));
    }

    #[test]
    fn certificate_brackets_the_optimum() {
        let inst = two_components();
        let out = solve_sharded(&inst, &ShardConfig::default()).unwrap();
        // Uncontended: everything is served; the cap-sum bound is tight.
        assert!(approx_eq(out.utility, 14.0));
        assert!(out.upper_bound >= out.utility - 1e-9);
        assert!((0.0..=1.0).contains(&out.gap_fraction));
    }

    #[test]
    fn upper_bound_respects_budget_knapsack() {
        // Budget 5, two streams cost 5 each, utilities 8 and 6: OPT = 8,
        // knapsack bound = 8 (take the denser fully), cap-sum would say 14.
        let mut b = Instance::builder("knap").server_budgets(vec![5.0]);
        let s0 = b.add_stream(vec![5.0]);
        let s1 = b.add_stream(vec![5.0]);
        let u = b.add_user(f64::INFINITY, vec![]);
        b.add_interest(u, s0, 8.0, vec![]).unwrap();
        b.add_interest(u, s1, 6.0, vec![]).unwrap();
        let inst = b.build().unwrap();
        let streams: Vec<_> = inst.streams().collect();
        let users: Vec<_> = inst.users().collect();
        let ub = utility_upper_bound(&inst, &streams, &users);
        assert!(approx_eq(ub, 8.0), "ub = {ub}");
    }

    #[test]
    fn empty_instance_yields_empty_outcome() {
        let inst = Instance::builder("e")
            .server_budgets(vec![1.0])
            .build()
            .unwrap();
        let out = solve_sharded(&inst, &ShardConfig::default()).unwrap();
        assert_eq!(out.num_shards, 0);
        assert_eq!(out.utility, 0.0);
        assert_eq!(out.upper_bound, 0.0);
        assert_eq!(out.gap_fraction, 0.0);
    }

    #[test]
    fn coverless_streams_and_idle_users_are_partitioned() {
        let mut b = Instance::builder("res").server_budgets(vec![10.0]);
        for _ in 0..5 {
            b.add_stream(vec![1.0]); // no audience
        }
        b.add_user(1.0, vec![]); // no interests
        let inst = b.build().unwrap();
        let sharding = shard_instance(&inst, 2);
        // 5 coverless streams chunked to cap 2 → shards of 2, 2, 1; the
        // idle user rides in the first.
        assert_eq!(sharding.num_shards(), 3);
        assert!(sharding.shards.iter().all(|s| s.streams.len() <= 2));
        assert_eq!(sharding.shards[0].users, vec![uid(0)]);
        let total: usize = sharding.shards.iter().map(|s| s.streams.len()).sum();
        assert_eq!(total, 5);
        // Solving it is a no-op but must not fail.
        let out = solve_sharded(
            &inst,
            &ShardConfig {
                max_streams: 2,
                ..ShardConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.utility, 0.0);
    }

    #[test]
    fn waterfill_zero_weights_fall_back_to_demand_split() {
        // Every shard's utility potential is 0: instead of 0/0 = NaN
        // shares, the fill must degrade to a demand-proportional split.
        let shares = waterfill(6.0, &[9.0, 3.0], &[0.0, 0.0]);
        assert!(shares.iter().all(|s| s.is_finite()), "{shares:?}");
        assert!(approx_eq(shares[0], 4.5));
        assert!(approx_eq(shares[1], 1.5));
    }

    #[test]
    fn waterfill_fully_degenerate_stays_finite_and_demand_capped() {
        // Zero weights AND zero demands with budget left: the equal-split
        // fallback is capped at the (zero) demands — finite zero shares,
        // never NaN, never exceeding what a shard can spend.
        let shares = waterfill(6.0, &[0.0, 0.0, 0.0], &[0.0, 0.0, 0.0]);
        assert!(shares.iter().all(|s| s.is_finite()), "{shares:?}");
        assert_eq!(shares, vec![0.0, 0.0, 0.0]);
        // Zero weights, mixed demands: demand-proportional, still capped.
        let mixed = waterfill(6.0, &[9.0, 0.0], &[0.0, 0.0]);
        assert!(approx_eq(mixed[0], 6.0), "{mixed:?}");
        assert_eq!(mixed[1], 0.0);
        // And with no budget at all: all-zero shares.
        let none = waterfill(0.0, &[1.0, 2.0], &[0.0, 0.0]);
        assert_eq!(none, vec![0.0, 0.0]);
    }

    #[test]
    fn repair_is_a_noop_on_feasible_assignments() {
        // Hot path under ingest: every applied batch runs the global repair
        // pass, and on low-churn batches the merged assignment is already
        // feasible — repair must return 0 and leave it untouched.
        let inst = two_components();
        let solved = solve_mmd(&inst, &MmdConfig::default()).unwrap();
        let mut assignment = solved.assignment.clone();
        assert!(assignment.check_feasible(&inst).is_ok());
        assert_eq!(repair_budgets(&inst, &mut assignment), 0);
        assert_eq!(assignment, solved.assignment);
        // Same for the trivial empty assignment.
        let mut empty = Assignment::for_instance(&inst);
        assert_eq!(repair_budgets(&inst, &mut empty), 0);
        assert!(empty.is_empty());
    }

    /// The full-recompute repair loop: every drop recomputes every user's
    /// raw utility and rescans the audience of every range stream. Kept as
    /// the oracle [`repair_budgets`] must match drop for drop.
    fn repair_budgets_reference(instance: &Instance, assignment: &mut Assignment) -> usize {
        let m = instance.num_measures();
        let mut dropped = 0usize;
        loop {
            let violated: Vec<usize> = (0..m)
                .filter(|&i| {
                    !num::approx_le(assignment.server_cost(i, instance), instance.budget(i))
                })
                .collect();
            if violated.is_empty() {
                return dropped;
            }
            let raw: Vec<f64> = instance
                .users()
                .map(|u| assignment.user_raw_utility(u, instance))
                .collect();
            let mut best: Option<((u8, f64), StreamId)> = None;
            for s in assignment.range().collect::<Vec<_>>() {
                let pressure: f64 = violated
                    .iter()
                    .map(|&i| {
                        let b = instance.budget(i);
                        if b > 0.0 {
                            instance.cost(s, i) / b
                        } else if instance.cost(s, i) > 0.0 {
                            f64::INFINITY
                        } else {
                            0.0
                        }
                    })
                    .sum();
                if pressure <= 0.0 {
                    continue;
                }
                let mut loss = 0.0f64;
                let caps = instance.user_caps();
                for &(u, w) in instance.audience(s) {
                    if assignment.contains(u, s) {
                        let cap = caps[u.index()];
                        let r = raw[u.index()];
                        loss += r.min(cap) - (r - w).min(cap);
                    }
                }
                let score = if pressure.is_infinite() {
                    (0u8, loss)
                } else {
                    (1u8, loss / pressure)
                };
                let better = best
                    .is_none_or(|(bs, _)| score.0 < bs.0 || (score.0 == bs.0 && score.1 < bs.1));
                if better {
                    best = Some((score, s));
                }
            }
            let Some((_, s)) = best else {
                return dropped;
            };
            for &u in instance.audience_users(s) {
                assignment.unassign(UserId::new(u as usize), s);
            }
            dropped += 1;
        }
    }

    /// Every interest of `inst` assigned: the most over-budget start.
    fn assign_all(inst: &Instance) -> Assignment {
        let mut a = Assignment::for_instance(inst);
        for s in inst.streams() {
            for &(u, _) in inst.audience(s) {
                a.assign(u, s);
            }
        }
        a
    }

    /// Runs both repairs from `start` and checks they drop the same streams;
    /// returns the repaired assignment and the drop count.
    fn repair_both(inst: &Instance, start: &Assignment) -> (Assignment, usize) {
        let mut fast = start.clone();
        let mut reference = start.clone();
        let n = repair_budgets(inst, &mut fast);
        assert_eq!(n, repair_budgets_reference(inst, &mut reference));
        assert_eq!(fast, reference);
        (fast, n)
    }

    /// A random instance for the repair differential, derived from `seed`:
    /// each measure is a zero, infinite or finite budget, values come from
    /// small sets (so equal costs and utilities force ties), caps are
    /// often binding, and some streams are free.
    fn repair_instance(seed: u64, measures: usize, streams: usize, users: usize) -> Instance {
        let mut x = seed;
        let mut pick = move |n: usize| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % n as u64) as usize
        };
        let budgets: Vec<f64> = (0..measures)
            .map(|_| [0.0, f64::INFINITY, 5.0, 10.0][pick(4)])
            .collect();
        let mut b = Instance::builder("repair-diff").server_budgets(budgets.clone());
        let ids: Vec<StreamId> = (0..streams)
            .map(|_| {
                let costs = budgets
                    .iter()
                    .map(|&budget| {
                        if budget == 0.0 {
                            // Within the builder's tolerance of a zero
                            // budget, but three of them overspend it.
                            [0.0, 4e-10][pick(2)]
                        } else {
                            [0.0, 1.0, 2.0, 2.0, 3.0, 5.0][pick(6)]
                        }
                    })
                    .collect();
                b.add_stream(costs)
            })
            .collect();
        for _ in 0..users {
            let u = b.add_user([1.5, 3.0, 5.0, f64::INFINITY][pick(4)], vec![]);
            for &s in &ids {
                if pick(2) == 0 {
                    b.add_interest(u, s, [1.0, 1.0, 2.0, 3.0][pick(4)], vec![])
                        .unwrap();
                }
            }
        }
        let inst = b.build().unwrap();
        if pick(4) == 0 {
            inst.with_lane_mode(crate::instance::LaneMode::Compact)
                .unwrap()
        } else {
            inst
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The incremental repair drops exactly the streams the
        /// full-recompute loop drops, from every interest assigned and from
        /// a random subset of them.
        #[test]
        fn repair_matches_the_full_recompute_loop(
            seed in proptest::prelude::any::<u64>(),
            measures in 1usize..4,
            streams in 2usize..14,
            users in 1usize..8,
            mask in proptest::prelude::any::<u64>(),
        ) {
            let inst = repair_instance(seed, measures, streams, users);
            let all = assign_all(&inst);
            repair_both(&inst, &all);
            let mut subset = Assignment::for_instance(&inst);
            for (k, (u, s)) in inst
                .streams()
                .flat_map(|s| inst.audience(s).iter().map(move |&(u, _)| (u, s)))
                .enumerate()
            {
                if mask >> (k % 64) & 1 == 1 {
                    subset.assign(u, s);
                }
            }
            repair_both(&inst, &subset);
        }
    }

    #[test]
    fn repair_rescores_everything_when_a_measure_clears() {
        // One user per stream, so a drop touches no other stream and only
        // the violated-set change can refresh the cached scores. Both
        // measures start violated (12 > 10, 15 > 10); s0 has the best
        // score over both (1 / 1.0) and its drop clears measure 0. Over
        // measure 1 alone, s2 (2.5 / 0.5) beats s1 (3 / 0.5), although
        // under the stale two-measure pressure s1 (3 / 0.8) beats s2
        // (2.5 / 0.5).
        let mut b = Instance::builder("clear").server_budgets(vec![10.0, 10.0]);
        let costs = [[9.0, 1.0], [3.0, 5.0], [0.0, 5.0], [0.0, 4.0]];
        let weights = [1.0, 3.0, 2.5, 10.0];
        for (c, &w) in costs.iter().zip(&weights) {
            let s = b.add_stream(c.to_vec());
            let u = b.add_user(f64::INFINITY, vec![]);
            b.add_interest(u, s, w, vec![]).unwrap();
        }
        let inst = b.build().unwrap();
        let (repaired, n) = repair_both(&inst, &assign_all(&inst));
        assert_eq!(n, 2);
        assert_eq!(repaired.range().collect::<Vec<_>>(), vec![sid(1), sid(3)]);
    }

    #[test]
    fn repair_drops_a_zero_budget_stream_first_whatever_its_loss() {
        // Measure 0 has a zero budget that s2 and s3 overspend together
        // (1.2e-9 against the 1e-9 tolerance); measure 1 is over by 8.
        // s0 is a capped user's surplus stream (loss 0, the best tier-1
        // score), but s2 costs into the zero budget (tier 0), so it goes
        // first despite losing 100, and its drop clears both measures.
        let mut b = Instance::builder("zero").server_budgets(vec![0.0, 16.0]);
        let s0 = b.add_stream(vec![0.0, 8.0]);
        let s1 = b.add_stream(vec![0.0, 8.0]);
        let s2 = b.add_stream(vec![6e-10, 8.0]);
        let s3 = b.add_stream(vec![6e-10, 0.0]);
        let capped = b.add_user(5.0, vec![]);
        b.add_interest(capped, s0, 3.0, vec![]).unwrap();
        b.add_interest(capped, s1, 5.0, vec![]).unwrap();
        for (s, w) in [(s2, 100.0), (s3, 200.0)] {
            let u = b.add_user(f64::INFINITY, vec![]);
            b.add_interest(u, s, w, vec![]).unwrap();
        }
        let inst = b.build().unwrap();
        let (repaired, n) = repair_both(&inst, &assign_all(&inst));
        assert_eq!(n, 1);
        assert_eq!(repaired.range().collect::<Vec<_>>(), vec![s0, s1, s3]);
        assert!(repaired.check_semi_feasible(&inst).is_ok());
    }

    #[test]
    fn repair_drops_a_capped_surplus_stream_before_a_real_loss() {
        // Budget 10, cost 12. u0 is capped at 3 and receives s0 and s1
        // (3 each), so either drop loses nothing; s2 loses only 0.01 per
        // 0.5 of pressure, the best uncapped ratio. The capped surplus
        // goes: s0 (tied with s1 at 0, lower id), and that drop suffices.
        let mut b = Instance::builder("surplus").server_budgets(vec![10.0]);
        let s0 = b.add_stream(vec![6.0]);
        let s1 = b.add_stream(vec![1.0]);
        let s2 = b.add_stream(vec![5.0]);
        let u0 = b.add_user(3.0, vec![]);
        b.add_interest(u0, s0, 3.0, vec![]).unwrap();
        b.add_interest(u0, s1, 3.0, vec![]).unwrap();
        let u1 = b.add_user(f64::INFINITY, vec![]);
        b.add_interest(u1, s2, 0.01, vec![]).unwrap();
        let inst = b.build().unwrap();
        let start = assign_all(&inst);
        let (repaired, n) = repair_both(&inst, &start);
        assert_eq!(n, 1);
        assert_eq!(repaired.range().collect::<Vec<_>>(), vec![s1, s2]);
        assert_eq!(repaired.utility(&inst), start.utility(&inst));
    }

    #[test]
    fn split_budgets_with_a_zero_demand_shard() {
        // Mid-churn a shard can lose all its live streams (every one
        // departed, costs zeroed): its demand in every measure is 0. The
        // split must give it a zero share (never negative, never NaN) and
        // hand the full budget to the shards that can spend it.
        let mut b = Instance::builder("zd").server_budgets(vec![6.0]);
        let s: Vec<_> = [4.0, 4.0, 0.0, 0.0]
            .iter()
            .map(|&c| b.add_stream(vec![c]))
            .collect();
        let u0 = b.add_user(10.0, vec![]);
        let u1 = b.add_user(10.0, vec![]);
        b.add_interest(u0, s[0], 1.0, vec![]).unwrap();
        b.add_interest(u0, s[1], 1.0, vec![]).unwrap();
        // Shard 1: only zero-cost (departed-like) streams.
        b.add_interest(u1, s[2], 1.0, vec![]).unwrap();
        b.add_interest(u1, s[3], 1.0, vec![]).unwrap();
        let inst = b.build().unwrap();
        let sharding = shard_instance(&inst, 0);
        assert_eq!(sharding.num_shards(), 2);
        let zero_shard = (0..2)
            .find(|&k| {
                sharding.shards[k]
                    .streams
                    .iter()
                    .all(|&st| inst.cost(st, 0) == 0.0)
            })
            .expect("one shard has only zero-cost streams");
        let budgets = split_budgets(&inst, &sharding, &[1.0, 1.0], 0.2);
        for share in &budgets {
            assert!(
                share.iter().all(|v| v.is_finite() && *v >= 0.0),
                "{share:?}"
            );
        }
        assert_eq!(budgets[zero_shard][0], 0.0, "zero demand gets zero share");
        // The demanding shard takes the whole budget, inflated by the 0.2
        // slack (resolved later by the global repair pass), capped at its
        // demand: min(6.0 × 1.2, 8.0) = 7.2.
        let other = 1 - zero_shard;
        assert!(approx_eq(budgets[other][0], 7.2), "{budgets:?}");
        // The full sharded solve over this shape stays well-formed.
        let out = solve_sharded(&inst, &ShardConfig::default()).unwrap();
        assert!(out.assignment.check_feasible(&inst).is_ok());
        assert!(out.utility > 0.0);
    }

    #[test]
    fn shard_bound_helper_matches_direct_bound() {
        let inst = two_components();
        let sharding = shard_instance(&inst, 0);
        for k in 0..sharding.num_shards() {
            let direct = utility_upper_bound(
                &inst,
                &sharding.shards[k].streams,
                &sharding.shards[k].users,
            );
            let via_maps = shard_utility_bound(&inst, &sharding, k);
            assert_eq!(direct.to_bits(), via_maps.to_bits(), "shard {k}");
        }
    }

    #[test]
    fn all_zero_utility_instance_is_nan_free() {
        // Streams with real costs on a contended budget, but every
        // interest has zero utility (the builder drops them): all shard
        // potentials are 0, the splitter sees only coverless streams, and
        // every reported number must still be finite with gap 0.
        let mut b = Instance::builder("zero").server_budgets(vec![5.0]);
        for i in 0..6 {
            let s = b.add_stream(vec![2.0 + (i % 3) as f64]);
            let _ = s;
        }
        let u = b.add_user(10.0, vec![]);
        let _ = u;
        let inst = b.build().unwrap();
        let sharding = shard_instance(&inst, 2);
        let weights = vec![0.0; sharding.num_shards()];
        let budgets = split_budgets(&inst, &sharding, &weights, 0.2);
        for share in &budgets {
            assert!(share.iter().all(|s| s.is_finite()), "{share:?}");
        }
        let out = solve_sharded(
            &inst,
            &ShardConfig {
                max_streams: 2,
                ..ShardConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.utility, 0.0);
        assert_eq!(out.upper_bound, 0.0);
        assert_eq!(out.gap_fraction, 0.0, "doc claim: 0 when ub is 0");
        assert!(!out.gap_fraction.is_nan());
    }

    #[test]
    fn upper_bound_zero_budget_counts_only_free_streams() {
        // Budget 0 forces every stream's cost to 0 (model assumption), so
        // the knapsack's "free items are infinitely dense" arm is the only
        // one taken — no division by the zero cost, no NaN.
        let mut b = Instance::builder("zb").server_budgets(vec![0.0]);
        let s0 = b.add_stream(vec![0.0]);
        let s1 = b.add_stream(vec![0.0]);
        let u = b.add_user(5.0, vec![]);
        b.add_interest(u, s0, 3.0, vec![]).unwrap();
        b.add_interest(u, s1, 4.0, vec![]).unwrap();
        let inst = b.build().unwrap();
        let streams: Vec<_> = inst.streams().collect();
        let users: Vec<_> = inst.users().collect();
        let ub = utility_upper_bound(&inst, &streams, &users);
        assert!(ub.is_finite());
        // Cap-sum bound: min(5, 7) = 5; knapsack bound: both free = 7.
        assert!(approx_eq(ub, 5.0), "ub = {ub}");
    }

    #[test]
    fn upper_bound_mixes_free_and_paid_items() {
        // A free stream plus paid ones under a tight budget: the free item
        // is always counted in full, the paid ones fractionally.
        let mut b = Instance::builder("mix").server_budgets(vec![4.0]);
        let free = b.add_stream(vec![0.0]);
        let paid = b.add_stream(vec![4.0]);
        let big = b.add_stream(vec![4.0]);
        let u = b.add_user(f64::INFINITY, vec![]);
        b.add_interest(u, free, 2.0, vec![]).unwrap();
        b.add_interest(u, paid, 6.0, vec![]).unwrap();
        b.add_interest(u, big, 3.0, vec![]).unwrap();
        let inst = b.build().unwrap();
        let streams: Vec<_> = inst.streams().collect();
        let users: Vec<_> = inst.users().collect();
        let ub = utility_upper_bound(&inst, &streams, &users);
        // free (2) + densest paid fully (6), budget exhausted: 8.
        assert!(approx_eq(ub, 8.0), "ub = {ub}");
    }

    #[test]
    fn split_budgets_waterfills_contended_measures() {
        // Contended: budget 6, demands 9 and 3, equal weights → 3 and 3;
        // the second shard saturates at its demand and the floors kick in.
        let mut b = Instance::builder("wf").server_budgets(vec![6.0]);
        let s: Vec<_> = [4.5, 4.5, 3.0]
            .iter()
            .map(|&c| b.add_stream(vec![c]))
            .collect();
        let u0 = b.add_user(10.0, vec![]);
        let u1 = b.add_user(10.0, vec![]);
        b.add_interest(u0, s[0], 1.0, vec![]).unwrap();
        b.add_interest(u0, s[1], 1.0, vec![]).unwrap();
        b.add_interest(u1, s[2], 1.0, vec![]).unwrap();
        let inst = b.build().unwrap();
        let sharding = shard_instance(&inst, 0);
        let budgets = split_budgets(&inst, &sharding, &[1.0, 1.0], 0.0);
        // Shard 1's offer (3.0) saturates its demand; shard 0 takes the
        // remaining 3.0, floored up to its costliest stream (4.5).
        assert!(approx_eq(budgets[0][0], 4.5));
        assert!(approx_eq(budgets[1][0], 3.0));
        // A value-heavy shard 0 pulls the whole remainder.
        let weighted = split_budgets(&inst, &sharding, &[5.0, 0.0], 0.0);
        assert!(approx_eq(weighted[0][0], 6.0));
        assert!(approx_eq(weighted[1][0], 3.0), "floored at its stream");
        // Uncontended measure: full demand regardless of weights.
        let mut b2 = Instance::builder("wf2").server_budgets(vec![100.0]);
        let t0 = b2.add_stream(vec![4.0]);
        let u = b2.add_user(10.0, vec![]);
        b2.add_interest(u, t0, 1.0, vec![]).unwrap();
        let inst2 = b2.build().unwrap();
        let sh2 = shard_instance(&inst2, 0);
        // Uncontended: slack must not inflate anything.
        let bd2 = split_budgets(&inst2, &sh2, &[0.0], 0.5);
        assert!(approx_eq(bd2[0][0], 4.0));
    }

    #[test]
    fn two_level_matches_monolithic_on_disjoint_components() {
        // Coarse cap 2 recovers exactly the two components, and the inner
        // level re-solves each at component granularity, so the two-level
        // result collapses to the single-level (and monolithic) one.
        let inst = two_components();
        let mono = solve_mmd(&inst, &MmdConfig::default()).unwrap();
        for threads in [1usize, 2, 4] {
            let cfg = ShardConfig::default()
                .with_threads(threads)
                .with_super_shards(2);
            let out = solve_sharded(&inst, &cfg).unwrap();
            assert_eq!(out.assignment, mono.assignment, "threads {threads}");
            assert_eq!(out.utility.to_bits(), mono.utility.to_bits());
            assert_eq!(out.num_shards, 2, "one inner shard per super-shard");
            assert_eq!(out.cut_edges, 0);
            assert!(out.utility <= out.upper_bound);
        }
    }

    #[test]
    fn skew_ratio_reports_largest_over_mean() {
        let inst = two_components();
        let balanced = shard_instance(&inst, 0);
        // Two shards of two streams each: perfectly balanced.
        assert!(approx_eq(balanced.skew_ratio(), 1.0));
        // No shards / no streams: defined as 0.
        let empty = Instance::builder("e")
            .server_budgets(vec![1.0])
            .build()
            .unwrap();
        assert_eq!(shard_instance(&empty, 0).skew_ratio(), 0.0);
    }

    /// One heavy 4-stream community plus four singleton pairs: the coarse
    /// partition at `super_shards = 2` (cap 4) yields shard sizes
    /// [4, 1, 1, 1, 1] — skew 2.5 — so head-splitting must re-cut the head
    /// at cap 2 and settle at skew 1.5.
    fn skewed_instance() -> Instance {
        let mut b = Instance::builder("skew").server_budgets(vec![100.0]);
        let s: Vec<_> = (0..8).map(|_| b.add_stream(vec![1.0])).collect();
        let hub = b.add_user(f64::INFINITY, vec![]);
        for (i, &hs) in s.iter().take(4).enumerate() {
            b.add_interest(hub, hs, 9.0 - i as f64, vec![]).unwrap();
        }
        for (i, &ts) in s.iter().skip(4).enumerate() {
            let u = b.add_user(f64::INFINITY, vec![]);
            b.add_interest(u, ts, 1.0 + i as f64 * 0.1, vec![]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn head_splitting_rebalances_the_coarse_partition() {
        let inst = skewed_instance();
        let cfg = ShardConfig {
            super_shards: 2,
            ..ShardConfig::default()
        };
        let supers = super_partition(&inst, &cfg);
        assert!(
            supers.skew_ratio() <= HEAD_SPLIT_SKEW,
            "post-split skew {} must be at or under the threshold",
            supers.skew_ratio()
        );
        assert!(supers.largest_shard_streams() <= 2);
        // Without splitting the coarse partition (cap ⌈8 / 2⌉ = 4) keeps
        // the skewed head intact.
        let raw = shard_instance(&inst, 4);
        assert_eq!(raw.largest_shard_streams(), 4);
        assert!(raw.skew_ratio() > 2.0);
        // Splitting cut interests are folded into the certificate terms.
        assert!(supers.cut_mass >= raw.cut_mass);
        // Membership maps were rebuilt consistently.
        for (k, shard) in supers.shards.iter().enumerate() {
            for &s in &shard.streams {
                assert_eq!(supers.shard_of_stream[s.index()], k);
            }
            for &u in &shard.users {
                assert_eq!(supers.shard_of_user[u.index()], k);
            }
        }
    }

    /// Regression: with a threshold the partition can never satisfy (every
    /// shard ends at the inner-cap floor while the singletons keep the skew
    /// above it), head-splitting exits the loop *after* having spliced the
    /// shard list at least once. The membership maps must still be rebuilt
    /// on that path — a stale `shard_of_stream` entry pointing at a
    /// pre-split index corrupts every downstream local-id translation.
    #[test]
    fn head_split_floor_exit_keeps_membership_maps_consistent() {
        let inst = skewed_instance();
        let threshold = 1.01;
        // The coarse partition at super_shards 2 (cap 4), split with an
        // inner cap of 2.
        let mut supers = shard_instance(&inst, 4);
        split_head_shards(&inst, &mut supers, 2, threshold);
        // The floor stops splitting before the skew target is met.
        assert!(supers.skew_ratio() > threshold);
        assert!(supers.largest_shard_streams() <= 2);
        let mut stream_seen = vec![false; inst.num_streams()];
        let mut user_seen = vec![false; inst.num_users()];
        for (k, shard) in supers.shards.iter().enumerate() {
            for &s in &shard.streams {
                assert_eq!(supers.shard_of_stream[s.index()], k, "stream {s:?}");
                assert!(!stream_seen[s.index()], "stream {s:?} listed twice");
                stream_seen[s.index()] = true;
            }
            for &u in &shard.users {
                assert_eq!(supers.shard_of_user[u.index()], k, "user {u:?}");
                assert!(!user_seen[u.index()], "user {u:?} listed twice");
                user_seen[u.index()] = true;
            }
        }
        assert!(stream_seen.iter().all(|&v| v), "every stream stays listed");
        assert!(user_seen.iter().all(|&v| v), "every user stays listed");
    }

    #[test]
    fn head_split_two_level_solve_stays_certified_and_thread_invariant() {
        let inst = skewed_instance();
        let cfg = ShardConfig {
            super_shards: 2,
            ..ShardConfig::default()
        };
        let base = solve_sharded(&inst, &cfg).unwrap();
        assert!(base.assignment.check_feasible(&inst).is_ok());
        assert!(base.utility > 0.0);
        assert!(base.utility <= base.upper_bound + 1e-9, "bracket must hold");
        assert!(base.skew_ratio <= HEAD_SPLIT_SKEW);
        for threads in [2usize, 4, 8] {
            let out = solve_sharded(&inst, &ShardConfig { threads, ..cfg }).unwrap();
            assert_eq!(out.assignment, base.assignment, "threads {threads}");
            assert_eq!(out.utility.to_bits(), base.utility.to_bits());
            assert_eq!(out.upper_bound.to_bits(), base.upper_bound.to_bits());
        }
    }

    /// 8 streams chained into one ring through shared users, against a
    /// tight shared budget: any size cap below 8 cuts interests.
    fn contended_ring() -> Instance {
        let mut b = Instance::builder("2lvl").server_budgets(vec![12.0]);
        let s: Vec<_> = (0..8)
            .map(|i| b.add_stream(vec![2.0 + (i % 3) as f64]))
            .collect();
        let users: Vec<_> = (0..8).map(|_| b.add_user(9.0, vec![])).collect();
        for i in 0..8 {
            b.add_interest(users[i], s[i], 3.0 + i as f64 * 0.25, vec![])
                .unwrap();
            b.add_interest(users[i], s[(i + 1) % 8], 1.0 + i as f64 * 0.125, vec![])
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn flat_sharding_is_the_depth_one_tree() {
        let inst = contended_ring();
        for (max_streams, super_shards) in [(0usize, 0usize), (2, 0), (2, 1), (3, 1)] {
            let cfg = ShardConfig {
                max_streams,
                super_shards,
                ..ShardConfig::default()
            };
            let root = HierarchicalSharding::new(&inst, &cfg);
            let flat = shard_instance(&inst, max_streams);
            assert_eq!(root.supers.shards, flat.shards, "cap {max_streams}");
            assert_eq!(root.supers.cut, flat.cut, "cap {max_streams}");
        }
        // The solve's certificate is the root's, at either depth.
        for super_shards in [0usize, 3] {
            let cfg = ShardConfig {
                max_streams: 2,
                super_shards,
                ..ShardConfig::default()
            };
            let out = solve_sharded(&inst, &cfg).unwrap();
            let root = HierarchicalSharding::new(&inst, &cfg);
            assert_eq!(
                out.upper_bound.to_bits(),
                root.upper_bound(&inst).to_bits(),
                "super_shards {super_shards}"
            );
        }
    }

    #[test]
    fn two_level_stays_certified_under_contention() {
        // The coarse partition cuts interests and the merge needs repair,
        // but the certificate must still bracket and the result must be
        // feasible and thread-count invariant.
        let inst = contended_ring();
        let cfg = ShardConfig {
            max_streams: 2,
            super_shards: 3,
            ..ShardConfig::default()
        };
        let base = solve_sharded(&inst, &cfg).unwrap();
        assert!(base.assignment.check_feasible(&inst).is_ok());
        assert!(base.utility > 0.0);
        assert!(base.utility <= base.upper_bound, "bracket must hold");
        assert!((0.0..=1.0).contains(&base.gap_fraction));
        // The super cut and the inner cuts are both accounted.
        assert!(base.num_shards >= 3);
        assert!(base.largest_shard <= 2);
        for threads in [2usize, 4] {
            let out = solve_sharded(&inst, &ShardConfig { threads, ..cfg }).unwrap();
            assert_eq!(out.assignment, base.assignment, "threads {threads}");
            assert_eq!(out.utility.to_bits(), base.utility.to_bits());
            assert_eq!(out.upper_bound.to_bits(), base.upper_bound.to_bits());
        }
    }
}
