//! **mmd** — Video distribution under multiple constraints.
//!
//! A faithful, production-quality reproduction of Patt-Shamir & Rawitz,
//! *Video distribution under multiple constraints* (ICDCS 2008; TCS
//! 412:3717–3730, 2011): approximation algorithms for selecting which video
//! streams a multicast server transmits, and which clients receive them,
//! under multiple server budgets and per-client capacities.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] ([`mmd_core`]) — the problem model and every algorithm from
//!   the paper (greedy, fixed greedy, partial enumeration,
//!   classify-and-select, the multi-budget reduction, the online `Allocate`,
//!   baselines, and generic budgeted submodular maximization), plus the
//!   scaling layers beyond it: batch solving and the sharded solver with
//!   its certified optimality gap (`algo::shard`, `graph`).
//! * [`exact`] ([`mmd_exact`]) — exact optima (branch-and-bound) and
//!   fractional upper bounds for measuring approximation ratios.
//! * [`workload`] ([`mmd_workload`]) — seeded synthetic workload generators:
//!   video catalogs, client populations, the paper's adversarial instances,
//!   and online arrival traces.
//! * [`sim`] ([`mmd_sim`]) — a deterministic discrete-event simulation of
//!   the Fig. 1 distribution system (multicast head-end + clients) driving
//!   pluggable admission policies.
//! * [`par`] ([`mmd_par`]) — the dependency-free scoped parallel runtime
//!   behind `solve_batch`, the parallel branch-and-bound, and every
//!   `--threads` flag; results are bit-identical at any thread count.
//!
//! # Quick start
//!
//! ```
//! use mmd::core::{algo, Instance};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = Instance::builder("hello").server_budgets(vec![10.0, 4.0]);
//! let news = b.add_stream(vec![2.0, 1.0]);
//! let film = b.add_stream(vec![8.0, 3.0]);
//! let alice = b.add_user(6.0, vec![12.0]);
//! b.add_interest(alice, news, 2.0, vec![2.0])?;
//! b.add_interest(alice, film, 5.0, vec![8.0])?;
//! let inst = b.build()?;
//!
//! let outcome = algo::solve_mmd(&inst, &algo::MmdConfig::default())?;
//! assert!(outcome.assignment.check_feasible(&inst).is_ok());
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios, and the `exp_*` experiment
//! binaries of `mmd-bench` for the paper-vs-measured evaluation (the
//! README lists them in its crate map and its *Scaling* and *Ingest*
//! sections).

pub use mmd_core as core;
pub use mmd_exact as exact;
pub use mmd_par as par;
pub use mmd_sim as sim;
pub use mmd_workload as workload;

pub use mmd_core::{Assignment, Instance, InstanceBuilder, StreamId, UserId};
