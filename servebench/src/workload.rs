//! The three serving workloads: instance generator, update trace, daemon
//! configuration and traffic shape, each a function of the seed only.

use mmd_core::algo::shard::ShardConfig;
use mmd_core::ingest::{IngestConfig, Update};
use mmd_core::{Instance, LaneMode};
use mmd_serve::ServeConfig;
use mmd_workload::{ChurnConfig, ClusteredConfig, WebConfig};

/// Updates generated per trace: far more than a run commits, so a faster
/// daemon never runs out of work inside the window.
const TRACE_UPDATES: usize = 1 << 16;

/// The reader's open-loop rate (requests per second).
pub const READ_RATE: f64 = 10.0;

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Web-shaped Zipf catalog under interest drift, two-level sharding.
    WebDrift,
    /// Contended clustered catalog under mixed churn; most batches
    /// escalate to a full re-solve.
    ClusteredChurn,
    /// A small contended catalog fed many small update frames: the
    /// request path does nearly all the work.
    Frontdoor,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::WebDrift,
        Workload::ClusteredChurn,
        Workload::Frontdoor,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WebDrift => "web-drift",
            Workload::ClusteredChurn => "clustered-churn",
            Workload::Frontdoor => "frontdoor",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The instance the daemon serves.
    ///
    /// `web-drift` serves 12 288 users (192 streams), not 50 000. At 50 000
    /// each apply walks a working set of about 600 MiB, so its latency
    /// follows the host's shared memory bandwidth (see the README); at this
    /// size it does not. The two-level structure stays: 8 super-shards over
    /// about 19 inner shards of at most 16 streams.
    #[must_use]
    pub fn instance(self, seed: u64) -> Instance {
        match self {
            Workload::WebDrift => WebConfig {
                budget_fraction: 1.5,
                ..WebConfig::scaled(12_288)
            }
            .with_lane_mode(LaneMode::Compact)
            .generate(seed),
            Workload::ClusteredChurn => ClusteredConfig::contended(200, 20, 12).generate(seed),
            Workload::Frontdoor => ClusteredConfig::contended(40, 20, 12).generate(seed),
        }
    }

    /// The update trace the writer sends, in order.
    #[must_use]
    pub fn trace(self, instance: &Instance, seed: u64) -> Vec<Update> {
        let churn = match self {
            Workload::WebDrift => ChurnConfig::low(TRACE_UPDATES),
            Workload::ClusteredChurn | Workload::Frontdoor => ChurnConfig::mixed(TRACE_UPDATES),
        };
        churn.generate(instance, seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// The daemon's configuration.
    #[must_use]
    pub fn serve_config(self) -> ServeConfig {
        let ingest = match self {
            // Escalation gates open, as in the `ing-web` perf rung: the
            // two-level engine relies on (super, inner) reuse instead.
            Workload::WebDrift => IngestConfig {
                shard: ShardConfig {
                    max_streams: 16,
                    super_shards: 8,
                    threads: 1,
                    ..ShardConfig::default()
                },
                max_dirty_fraction: 1.0,
                max_cut_fraction: 1.0,
                ..IngestConfig::default()
            },
            // One shard thread: on a 2-core host a 2-thread pool shares the
            // cores with the engine thread and both client threads, and the
            // same seed's commit_p50_ms then spread 12% between runs (5%
            // at one thread). The `par.speedup` probe still measures what
            // a second thread buys.
            Workload::ClusteredChurn | Workload::Frontdoor => IngestConfig {
                shard: ShardConfig {
                    max_streams: 20,
                    threads: 1,
                    ..ShardConfig::default()
                },
                ..IngestConfig::default()
            },
        };
        ServeConfig {
            ingest,
            ..ServeConfig::default()
        }
    }

    /// Updates per `update` frame.
    #[must_use]
    pub fn updates_per_frame(self) -> usize {
        match self {
            Workload::WebDrift | Workload::ClusteredChurn => 16,
            Workload::Frontdoor => 2,
        }
    }

    /// `update` frames the writer sends before each `apply`.
    #[must_use]
    pub fn frames_per_apply(self) -> usize {
        match self {
            Workload::WebDrift | Workload::ClusteredChurn => 1,
            Workload::Frontdoor => 8,
        }
    }

    /// Applies the in-process service twin takes from the writer's frames
    /// (it takes every reader frame).
    #[must_use]
    pub fn twin_applies(self) -> usize {
        match self {
            Workload::WebDrift => 4,
            Workload::ClusteredChurn => 8,
            Workload::Frontdoor => 32,
        }
    }
}
