//! Core model and approximation algorithms for **Multi-budget Multi-client
//! Distribution** (`mmd`) — the stream-selection problem of Patt-Shamir &
//! Rawitz, *Video distribution under multiple constraints* (ICDCS 2008;
//! TCS 412:3717–3730, 2011).
//!
//! A server offers a set of video streams. Transmitting stream `S` costs
//! `c_i(S)` in each of `m` server cost measures (egress bandwidth, processing,
//! input ports, …), each capped by a budget `B_i`. Every user `u` values
//! stream `S` at `w_u(S)`, can generate at most `W_u` total utility, and has
//! up to `m_c` capacity measures with per-stream loads `k^u_j(S)` capped by
//! `K^u_j`. The goal is to pick which streams the server transmits and which
//! users receive which stream, maximizing total (capped) utility subject to
//! every budget and capacity.
//!
//! # Quick start
//!
//! ```
//! use mmd_core::{Instance, algo};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two cost measures: bandwidth (budget 10.0) and processing (budget 4.0).
//! let mut b = Instance::builder("demo").server_budgets(vec![10.0, 4.0]);
//! let news = b.add_stream(vec![2.0, 1.0]);
//! let film = b.add_stream(vec![8.0, 3.0]);
//! // One user with a 6.0 utility cap and a 12.0 Mb/s access link.
//! let alice = b.add_user(6.0, vec![12.0]);
//! b.add_interest(alice, news, 2.0, vec![2.0])?;
//! b.add_interest(alice, film, 5.0, vec![8.0])?;
//! let inst = b.build()?;
//!
//! let outcome = algo::solve_mmd(&inst, &algo::MmdConfig::default())?;
//! assert!(outcome.assignment.check_feasible(&inst).is_ok());
//! assert!(outcome.utility > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! # Modules
//!
//! * [`instance`] — the problem input ([`Instance`], [`InstanceBuilder`]).
//! * [`assignment`] — solutions ([`Assignment`]) and feasibility checking.
//! * [`skew`] — local skew `α` (§3) and global skew `γ` (§5) of an instance.
//! * [`graph`] — connectivity over the stream–audience bipartite graph
//!   (weighted union-find, component decomposition) behind the sharded
//!   solver.
//! * [`coverage`] — the capped-utility set function and its submodularity
//!   (Lemma 2.1).
//! * [`algo`] — every algorithm from the paper: `Greedy` (Alg. 1), the fixed
//!   greedy of §2.2, partial enumeration (§2.3), classify-and-select (§3),
//!   the multi-budget reduction (§4), the online `Allocate` (Alg. 2, §5),
//!   baselines, and generic budgeted submodular maximization (§4 remark).
//! * [`ingest`] — the streaming update frontend: an [`IngestEngine`]
//!   applies arrival/departure/interest/budget updates and incrementally
//!   re-solves only the dirty shards, bit-identically to a from-scratch
//!   sharded solve, with the §5 allocator admitting offers between
//!   re-solves.
//! * [`govern`] — solve-cost governance: per-apply wall/work budgets
//!   ([`SolveBudget`]) with an escalating degrade-action ladder
//!   ([`DegradeAction`]) that keeps the certified bracket sound while the
//!   engine sheds load.

pub mod assignment;
#[warn(missing_docs)]
pub mod coverage;
pub mod error;
#[warn(missing_docs)]
pub mod govern;
pub mod graph;
pub mod ids;
#[warn(missing_docs)]
pub mod ingest;
pub mod instance;
pub mod num;
pub mod skew;
pub mod transforms;

pub mod algo;

pub use assignment::Assignment;
pub use error::{BuildError, Infeasibility, SolveError};
pub use govern::{DegradeAction, SolveBudget};
pub use ids::{StreamId, UserId};
pub use ingest::async_apply::{AsyncIngest, AsyncStatus};
pub use ingest::{
    IngestConfig, IngestEngine, IngestError, IngestMetrics, IngestOutcome, IngestSnapshot,
    Universe, Update,
};
pub use instance::{Instance, InstanceBuilder, LaneMode, UserSpec};
