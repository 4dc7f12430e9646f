//! Benchmark harness for the `mmd` reproduction.
//!
//! Each `exp_*` experiment binary in `src/bin/` prints one table: the
//! empirical counterpart of one paper claim (the README lists them in its
//! crate map and its *Scaling* and *Ingest* sections). The Criterion
//! benches in `benches/` cover the running-time claims. Shared reporting
//! utilities live here.

pub mod outfile;
pub mod perf;
pub mod report;
pub mod trend;

pub use report::Table;
