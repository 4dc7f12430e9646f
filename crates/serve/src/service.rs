//! The request handler: one [`Service`] owns the asynchronous ingest engine
//! and maps protocol requests to engine operations.
//!
//! A `Service` is shared: every connection handler of the daemon calls
//! [`Service::handle`] on its own thread (see [`crate::server`]). Requests
//! fall into two classes.
//!
//! * **Sequenced** requests (`update`, `apply`, `admissions`, `resolve`,
//!   `shutdown`) run under one lock, the one on the pending batch. Its
//!   acquisition order is the daemon's single total order of state
//!   changes: an `apply` takes the batch and submits it as the next epoch
//!   while holding the lock, and the solver applies epochs strictly in
//!   submission order. So the committed state after any request prefix is
//!   a pure function of that prefix, and the equivalence contract of
//!   [`IngestEngine`] (bit-identical to a from-scratch [`solve_sharded`])
//!   lifts to the whole daemon. The `apply` then releases the lock and
//!   waits for its commit on the caller's thread, so other clients' frames
//!   keep being answered while the re-solve runs.
//! * **Reads** (`query`, `allocation`, `certificate`, `health`, `metrics`)
//!   answer from the latest committed
//!   [`IngestSnapshot`](mmd_core::IngestSnapshot) and never take the lock.
//!
//! Backpressure bounds the sequenced requests waiting for the lock or
//! holding it at [`ServeConfig::queue_capacity`]; one more is answered
//! `overloaded` and changes nothing. `resolve` only asks the solver for a
//! refresh, which it runs the next time its epoch queue drains (see
//! [`AsyncIngest::request_refresh`]).
//!
//! [`solve_sharded`]: mmd_core::algo::shard::solve_sharded

use crate::protocol::{
    Admission, ErrorCode, FrameError, HealthSnapshot, MetricsSnapshot, Request, Response,
    WireOutcome,
};
use mmd_core::algo::online::{OfferOutcome, OnlineConfig};
use mmd_core::ingest::Update;
use mmd_core::{
    AsyncIngest, IngestConfig, IngestEngine, IngestError, IngestOutcome, Instance, StreamId, UserId,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Daemon configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeConfig {
    /// The ingest engine's configuration (shard size, threads, triggers).
    pub ingest: IngestConfig,
    /// The §5 online allocator's configuration for provisional admissions.
    pub online: OnlineConfig,
    /// Bound on the sequenced requests waiting for the pending-batch lock
    /// or holding it; one more is bounced with an `overloaded` error frame
    /// (backpressure).
    pub queue_capacity: usize,
    /// Maximum updates accepted in one `update` frame; larger frames are
    /// rejected as `invalid` without being enqueued.
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            ingest: IngestConfig::default(),
            online: OnlineConfig::default(),
            queue_capacity: 64,
            max_batch: 1024,
        }
    }
}

/// Serving-layer counters, bumped by the connection handlers and read by
/// `metrics`. All monotone except [`queue_depth`](Self::queue_depth), a
/// gauge.
#[derive(Debug, Default)]
struct ServeCounters {
    /// Request frames handled by the service (not bounced by backpressure).
    requests: AtomicU64,
    /// Lines rejected before reaching the service (parse errors, overlong
    /// lines).
    frames_rejected: AtomicU64,
    /// Requests bounced by backpressure (queue full).
    overloaded: AtomicU64,
    /// Provisional admission checks run.
    admission_checks: AtomicU64,
    /// Pending arrivals provisionally admitted.
    admitted: AtomicU64,
    /// Pending arrivals provisionally dropped.
    admission_rejects: AtomicU64,
    /// Sequenced requests waiting for the pending-batch lock or holding it
    /// (gauge).
    queue_depth: AtomicUsize,
}

/// A held place in the request queue; dropping it (also on unwind) gives
/// the place back.
struct QueueSlot<'a>(&'a AtomicUsize);

impl Drop for QueueSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Maps an engine error to its wire error class.
fn error_code(e: &IngestError) -> ErrorCode {
    match e {
        IngestError::UnknownStream(_)
        | IngestError::UnknownUser(_)
        | IngestError::UnknownMeasure(_)
        | IngestError::InvalidWeight { .. }
        | IngestError::InvalidBudget { .. } => ErrorCode::Invalid,
        IngestError::CostExceedsBudget { .. } => ErrorCode::Rejected,
        IngestError::Build(_) | IngestError::Solve(_) | IngestError::SolverPanic(_) => {
            ErrorCode::Internal
        }
        // An apply whose outcome aged out of the async retention window:
        // the epoch was processed, only the record is gone.
        IngestError::OutcomeExpired { .. } => ErrorCode::Unavailable,
    }
}

fn error_response(e: &IngestError) -> Response {
    Response::Error {
        code: error_code(e),
        message: e.to_string(),
    }
}

fn draining_error() -> Response {
    Response::Error {
        code: ErrorCode::Unavailable,
        message: "server is draining".to_string(),
    }
}

fn admission(offer: &OfferOutcome) -> Admission {
    Admission {
        stream: offer.stream.index(),
        admitted: !offer.assigned.is_empty(),
        users: offer.assigned.iter().map(|u| u.index()).collect(),
        gained: offer.gained,
    }
}

/// The daemon's request handler (see the [module docs](self)).
#[derive(Debug)]
pub struct Service {
    ingest: AsyncIngest,
    /// Validated updates not yet submitted; an `apply` submits them as an
    /// epoch. This lock is the daemon's one sequencing point.
    pending: Mutex<Vec<Update>>,
    /// `pending.len()`, mirrored so `health` never takes the lock.
    pending_len: AtomicUsize,
    config: ServeConfig,
    counters: ServeCounters,
    /// Set by `shutdown`, under the pending lock.
    draining: AtomicBool,
    /// Lane layout of the served instance, fixed at startup (updates never
    /// change the layout); reported by `metrics`.
    lane_mode: &'static str,
}

impl Service {
    /// Creates a service over `instance` — solving the initial state fully
    /// — with fresh counters.
    ///
    /// # Errors
    ///
    /// Propagates the initial solve's [`IngestError`].
    pub fn new(instance: Instance, config: ServeConfig) -> Result<Self, IngestError> {
        let lane_mode = match instance.lane_mode() {
            mmd_core::LaneMode::Exact => "exact",
            mmd_core::LaneMode::Compact => "compact",
        };
        let engine = IngestEngine::new(instance, config.ingest)?;
        Ok(Service {
            ingest: AsyncIngest::new(engine),
            pending: Mutex::new(Vec::new()),
            pending_len: AtomicUsize::new(0),
            config,
            counters: ServeCounters::default(),
            draining: AtomicBool::new(false),
            lane_mode,
        })
    }

    /// Answers a line refused before it became a request (a parse error,
    /// an overlong line), counting it in `frames_rejected`.
    pub fn reject(&self, e: &FrameError) -> Response {
        self.counters
            .frames_rejected
            .fetch_add(1, Ordering::Relaxed);
        Response::Error {
            code: e.code,
            message: e.message.clone(),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Consumes the service and returns the ingest engine with every
    /// committed update applied — draining and joining the solver thread
    /// first. The post-shutdown differential hook.
    #[must_use]
    pub fn into_engine(self) -> IngestEngine {
        self.ingest.shutdown()
    }

    /// Updates accepted but not yet applied.
    pub fn pending_updates(&self) -> usize {
        self.pending_len.load(Ordering::Acquire)
    }

    /// The committed certificate (the last applied batch's outcome).
    pub fn certificate(&self) -> IngestOutcome {
        *self.ingest.snapshot().last_outcome()
    }

    /// Whether `shutdown` has been requested.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Handles one request to completion; an `apply` returns once its
    /// epoch has committed. Safe to call from many threads at once. Never
    /// panics on malformed input — every failure maps to an error frame.
    pub fn handle(&self, request: &Request) -> Response {
        let answered = match request {
            Request::Update { updates, admit } => {
                self.sequenced(|pending| self.push(pending, updates, *admit))
            }
            // Submit even when empty: an empty epoch re-certifies the
            // committed state, exactly like an engine apply with nothing
            // pending. Taking the batch means a rejected one cannot wedge
            // it: later clients' applies never replay this one's poison.
            // The commit is awaited after the lock is released, so later
            // requests are sequenced (and answered) meanwhile. Submission
            // cannot fail in practice: updates were validated at push time.
            Request::Apply => self
                .sequenced(|pending| self.ingest.apply_async(std::mem::take(pending)))
                .map(|submitted| {
                    match submitted
                        .map_err(Arc::new)
                        .and_then(|epoch| self.ingest.wait(epoch))
                    {
                        Ok(outcome) => Response::Applied {
                            outcome: WireOutcome::from(outcome),
                        },
                        Err(e) => error_response(&e),
                    }
                }),
            Request::Admissions => self.sequenced(|pending| match self.provisional(pending) {
                Ok(admissions) => Response::Admissions { admissions },
                Err(e) => error_response(&e),
            }),
            Request::Resolve => self.sequenced(|_| {
                self.ingest.request_refresh();
                Response::Resolve { scheduled: true }
            }),
            Request::Shutdown => self.sequenced(|_| {
                self.draining.store(true, Ordering::Release);
                Response::Shutdown
            }),
            Request::Health => self.read(true, || Response::Health(self.health())),
            Request::Metrics => self.read(true, || {
                Response::Metrics(Box::new(self.metrics_snapshot()))
            }),
            Request::QueryUser { user } => self.read(false, || self.handle_query_user(*user)),
            Request::QueryStream { stream } => {
                self.read(false, || self.handle_query_stream(*stream))
            }
            Request::Allocation => self.read(false, || {
                let snapshot = self.ingest.snapshot();
                let assignment = snapshot.assignment();
                Response::Allocation {
                    utility: snapshot.last_outcome().utility,
                    users: snapshot
                        .current_instance()
                        .users()
                        .map(|u| assignment.streams_of(u).map(|s| s.index()).collect())
                        .collect(),
                }
            }),
            Request::Certificate => self.read(false, || {
                let last = self.certificate();
                Response::Certificate {
                    utility: last.utility,
                    upper_bound: last.upper_bound,
                    gap_fraction: last.gap_fraction,
                }
            }),
        };
        match answered {
            Ok(response) | Err(response) => response,
        }
    }

    /// Runs `f` on the pending batch under the lock — the daemon's one
    /// sequencing point. A full queue bounces the request before it waits
    /// (the bounce holds its place only for that instant), and a draining
    /// service refuses it; neither calls `f`, so nothing changes.
    fn sequenced<R>(&self, f: impl FnOnce(&mut Vec<Update>) -> R) -> Result<R, Response> {
        let c = &self.counters;
        let depth = c.queue_depth.fetch_add(1, Ordering::AcqRel);
        let _slot = QueueSlot(&c.queue_depth);
        if depth >= self.config.queue_capacity {
            c.overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(Response::Error {
                code: ErrorCode::Overloaded,
                message: format!("request queue full (depth {depth}); retry later"),
            });
        }
        c.requests.fetch_add(1, Ordering::Relaxed);
        // A handler that panicked under the lock must not take the other
        // connections down with it: recover the batch from the poison. It
        // is valid at every step, since the only writes are an `extend` by
        // validated updates, a `truncate` back to an earlier length and a
        // `take`.
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        if self.draining() {
            return Err(draining_error());
        }
        let decided = f(&mut pending);
        self.pending_len.store(pending.len(), Ordering::Release);
        Ok(decided)
    }

    /// Answers a read from the published snapshot, never taking the lock.
    /// After `shutdown` only the observability reads (`observe`) answer.
    fn read(&self, observe: bool, answer: impl FnOnce() -> Response) -> Result<Response, Response> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        if self.draining() && !observe {
            return Err(draining_error());
        }
        Ok(answer())
    }

    fn push(&self, pending: &mut Vec<Update>, updates: &[Update], admit: bool) -> Response {
        if updates.len() > self.config.max_batch {
            return Response::Error {
                code: ErrorCode::Invalid,
                message: format!(
                    "update frame carries {} updates, above the {}-update limit",
                    updates.len(),
                    self.config.max_batch
                ),
            };
        }
        if let Err(e) = self.ingest.validate_batch(updates) {
            return error_response(&e);
        }
        let before = pending.len();
        pending.extend(updates.iter().cloned());
        let admissions = match admit.then(|| self.provisional(pending)).transpose() {
            Ok(admissions) => admissions,
            Err(e) => {
                // An error frame means nothing from the frame was enqueued.
                pending.truncate(before);
                return error_response(&e);
            }
        };
        Response::Pushed {
            pending: pending.len(),
            admissions,
        }
    }

    fn provisional(&self, pending: &[Update]) -> Result<Vec<Admission>, IngestError> {
        self.counters
            .admission_checks
            .fetch_add(1, Ordering::Relaxed);
        let offers = self
            .ingest
            .snapshot()
            .provisional_admissions(pending, self.config.online)?;
        let admissions: Vec<Admission> = offers.iter().map(admission).collect();
        let admitted = admissions.iter().filter(|a| a.admitted).count() as u64;
        self.counters
            .admitted
            .fetch_add(admitted, Ordering::Relaxed);
        self.counters
            .admission_rejects
            .fetch_add(admissions.len() as u64 - admitted, Ordering::Relaxed);
        Ok(admissions)
    }

    fn handle_query_user(&self, user: usize) -> Response {
        let snapshot = self.ingest.snapshot();
        let (instance, assignment) = (snapshot.current_instance(), snapshot.assignment());
        if user >= instance.num_users() {
            return Response::Error {
                code: ErrorCode::Invalid,
                message: format!("unknown user {user}"),
            };
        }
        let u = UserId::new(user);
        Response::UserAllocation {
            user,
            streams: assignment.streams_of(u).map(|s| s.index()).collect(),
            utility: assignment.user_utility(u, instance),
        }
    }

    fn handle_query_stream(&self, stream: usize) -> Response {
        let snapshot = self.ingest.snapshot();
        let (instance, assignment) = (snapshot.current_instance(), snapshot.assignment());
        if stream >= instance.num_streams() {
            return Response::Error {
                code: ErrorCode::Invalid,
                message: format!("unknown stream {stream}"),
            };
        }
        let s = StreamId::new(stream);
        Response::StreamAllocation {
            stream,
            live: assignment.in_range(s),
            users: instance
                .users()
                .filter(|&u| assignment.contains(u, s))
                .map(|u| u.index())
                .collect(),
        }
    }

    /// The current `health` body.
    pub fn health(&self) -> HealthSnapshot {
        let snapshot = self.ingest.snapshot();
        HealthSnapshot {
            status: if self.draining() { "draining" } else { "ok" }.to_string(),
            live_streams: snapshot.num_live(),
            num_streams: snapshot.current_instance().num_streams(),
            num_users: snapshot.current_instance().num_users(),
            pending_updates: self.pending_updates(),
            queue_depth: self.counters.queue_depth.load(Ordering::Relaxed),
            queue_capacity: self.config.queue_capacity,
            full_resolve_scheduled: self.ingest.refresh_pending(),
            apply_queue_lag: self.ingest.queue_lag(),
            epoch_in_flight: self.ingest.in_flight_epoch().unwrap_or(0),
        }
    }

    /// The current `metrics` body: engine counters, serving counters, pool
    /// gauges and the committed certificate.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let m = self.ingest.metrics();
        let last = self.certificate();
        let pool = mmd_par::Pool::global();
        let c = &self.counters;
        MetricsSnapshot {
            applies: m.applies,
            updates_applied: m.updates_applied,
            full_resolves: m.full_resolves,
            resolved_shards: m.resolved_shards,
            shard_slots: m.shard_slots,
            dirty_fraction: m.dirty_fraction(),
            super_shards: self.config.ingest.shard.super_shards as u64,
            dirty_super_fraction: m.dirty_super_fraction(),
            inner_cache_hits: m.inner_cache_hits,
            inner_cache_misses: m.resolved_shards,
            rejected_batches: m.rejected_batches,
            rejected_updates: m.rejected_updates,
            last_apply_micros: m.last_apply_nanos / 1_000,
            total_apply_micros: m.total_apply_nanos / 1_000,
            requests: c.requests.load(Ordering::Relaxed),
            frames_rejected: c.frames_rejected.load(Ordering::Relaxed),
            overloaded: c.overloaded.load(Ordering::Relaxed),
            admission_checks: c.admission_checks.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            admission_rejects: c.admission_rejects.load(Ordering::Relaxed),
            queue_depth: c.queue_depth.load(Ordering::Relaxed),
            queue_capacity: self.config.queue_capacity,
            utility: last.utility,
            upper_bound: last.upper_bound,
            gap_fraction: last.gap_fraction,
            pool_workers: pool.workers() as u64,
            pool_depth: pool.depth() as u64,
            apply_queue_lag: self.ingest.queue_lag(),
            epoch_submitted: self.ingest.submitted_epoch(),
            epoch_committed: self.ingest.committed_epoch(),
            epoch_in_flight: self.ingest.in_flight_epoch().unwrap_or(0),
            lane_mode: self.lane_mode.to_string(),
            peak_rss_bytes: peak_rss_bytes(),
            budget_soft_trips: m.budget_soft_trips,
            budget_hard_trips: m.budget_hard_trips,
            degraded_applies: m.degraded_applies,
            stale_gap_fraction: last.stale_gap_fraction,
            deferred_full_resolves: m.deferred_full_resolves,
        }
    }
}

/// Peak resident set size of this process in bytes: `VmHWM` from
/// `/proc/self/status` on Linux, 0 on platforms without that interface.
/// A 0 therefore means "unknown", never "no memory used".
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kib: u64 = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0);
                return kib * 1024;
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmd_core::algo::shard::solve_sharded;
    use mmd_core::ingest::Update;

    fn demo_instance() -> Instance {
        let mut b = Instance::builder("svc").server_budgets(vec![100.0]);
        let s: Vec<_> = (0..6).map(|i| b.add_stream(vec![2.0 + i as f64])).collect();
        for c in 0..3 {
            let u = b.add_user(f64::INFINITY, vec![]);
            b.add_interest(u, s[2 * c], 4.0 + c as f64, vec![]).unwrap();
            b.add_interest(u, s[2 * c + 1], 3.0, vec![]).unwrap();
        }
        b.build().unwrap()
    }

    fn service() -> Service {
        Service::new(demo_instance(), ServeConfig::default()).unwrap()
    }

    /// The error class of an error frame.
    fn code(response: &Response) -> Option<ErrorCode> {
        match response {
            Response::Error { code, .. } => Some(*code),
            _ => None,
        }
    }

    fn depart(stream: usize) -> Request {
        Request::Update {
            updates: vec![Update::StreamDeparture(StreamId::new(stream))],
            admit: false,
        }
    }

    #[test]
    fn update_apply_query_round() {
        let svc = service();
        let pushed = svc.handle(&depart(0));
        assert_eq!(
            pushed,
            Response::Pushed {
                pending: 1,
                admissions: None
            }
        );
        let Response::Applied { outcome } = svc.handle(&Request::Apply) else {
            panic!("apply failed");
        };
        assert_eq!(outcome.updates_applied, 1);
        let Response::StreamAllocation { live, users, .. } =
            svc.handle(&Request::QueryStream { stream: 0 })
        else {
            panic!("query failed");
        };
        assert!(!live);
        assert!(users.is_empty());
        let Response::UserAllocation { streams, .. } = svc.handle(&Request::QueryUser { user: 0 })
        else {
            panic!("query failed");
        };
        assert_eq!(streams, vec![1], "only the community's second stream left");
    }

    #[test]
    fn invalid_updates_and_queries_are_error_frames() {
        let svc = service();
        let r = svc.handle(&Request::Update {
            updates: vec![Update::StreamArrival(StreamId::new(99))],
            admit: false,
        });
        assert_eq!(code(&r), Some(ErrorCode::Invalid));
        assert_eq!(
            code(&svc.handle(&Request::QueryUser { user: 42 })),
            Some(ErrorCode::Invalid)
        );
        assert_eq!(
            code(&svc.handle(&Request::QueryStream { stream: 42 })),
            Some(ErrorCode::Invalid)
        );
    }

    #[test]
    fn oversized_update_frame_is_rejected_without_enqueue() {
        let svc = Service::new(
            demo_instance(),
            ServeConfig {
                max_batch: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let r = svc.handle(&Request::Update {
            updates: vec![
                Update::StreamDeparture(StreamId::new(0)),
                Update::StreamDeparture(StreamId::new(1)),
                Update::StreamDeparture(StreamId::new(2)),
            ],
            admit: false,
        });
        assert_eq!(code(&r), Some(ErrorCode::Invalid));
        assert_eq!(svc.pending_updates(), 0);
    }

    #[test]
    fn rejected_apply_clears_the_poisoned_queue() {
        let svc = service();
        // Budget below live costs: stateful rejection at apply time.
        svc.handle(&Request::Update {
            updates: vec![Update::BudgetChange {
                measure: 0,
                budget: 1.0,
            }],
            admit: false,
        });
        let r = svc.handle(&Request::Apply);
        assert_eq!(code(&r), Some(ErrorCode::Rejected));
        // The queue was cleared: the next client's apply is a clean no-op,
        // not a replay of this client's poison.
        assert!(matches!(
            svc.handle(&Request::Apply),
            Response::Applied { .. }
        ));
    }

    #[test]
    fn admissions_cover_pending_arrivals() {
        let svc = service();
        svc.handle(&depart(0));
        svc.handle(&Request::Apply);
        let r = svc.handle(&Request::Update {
            updates: vec![Update::StreamArrival(StreamId::new(0))],
            admit: true,
        });
        let Response::Pushed {
            admissions: Some(admissions),
            ..
        } = r
        else {
            panic!("expected admissions, got {r:?}");
        };
        assert_eq!(admissions.len(), 1);
        assert!(admissions[0].admitted, "uncontended arrival is admitted");
        assert_eq!(svc.metrics_snapshot().admitted, 1);
    }

    #[test]
    fn a_rejected_admission_preview_enqueues_nothing() {
        let svc = service();
        svc.handle(&depart(0));
        // Budget below live costs: the preview's stateful validation fails.
        let r = svc.handle(&Request::Update {
            updates: vec![Update::BudgetChange {
                measure: 0,
                budget: 1.0,
            }],
            admit: true,
        });
        assert_eq!(code(&r), Some(ErrorCode::Rejected));
        assert_eq!(svc.pending_updates(), 1, "only the earlier frame is queued");
        let Response::Applied { outcome } = svc.handle(&Request::Apply) else {
            panic!("the earlier frame alone must apply");
        };
        assert_eq!(outcome.updates_applied, 1);
    }

    #[test]
    fn resolve_stays_scheduled_until_the_refresh_has_run() {
        let svc = service();
        let before = svc.certificate();
        assert!(!svc.health().full_resolve_scheduled);
        assert_eq!(
            svc.handle(&Request::Resolve),
            Response::Resolve { scheduled: true }
        );
        // `scheduled` is read before `full_resolves`: the solver clears
        // the request only after publishing the refresh, so the flag is
        // `true` for as long as the count still reads 0.
        for _ in 0..10_000 {
            let scheduled = svc.health().full_resolve_scheduled;
            let resolves = svc.metrics_snapshot().full_resolves;
            assert!(scheduled || resolves == 1, "cleared before it ran");
            if !scheduled {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(!svc.health().full_resolve_scheduled);
        let after = svc.certificate();
        assert_eq!(after.utility.to_bits(), before.utility.to_bits());
        assert_eq!(after.upper_bound.to_bits(), before.upper_bound.to_bits());
        assert_eq!(after.gap_fraction.to_bits(), before.gap_fraction.to_bits());
    }

    #[test]
    fn a_full_queue_bounces_requests_without_changing_state() {
        let config = ServeConfig {
            queue_capacity: 1,
            ..ServeConfig::default()
        };
        let svc = Service::new(demo_instance(), config).unwrap();
        std::thread::scope(|scope| {
            // Holding the lock parks the next sequenced request in the queue.
            let held = svc.pending.lock().unwrap();
            let waiting = scope.spawn(|| svc.handle(&depart(0)));
            while svc.health().queue_depth == 0 {
                std::thread::yield_now();
            }
            assert_eq!(svc.health().queue_depth, 1);
            let bounced = svc.handle(&depart(1));
            assert_eq!(code(&bounced), Some(ErrorCode::Overloaded));
            assert_eq!(svc.metrics_snapshot().overloaded, 1);
            assert_eq!(svc.pending_updates(), 0);
            drop(held);
            let pushed = waiting.join().unwrap();
            assert!(matches!(pushed, Response::Pushed { pending: 1, .. }));
        });
        assert_eq!(svc.health().queue_depth, 0);
        assert_eq!(svc.pending_updates(), 1);
        // A handler that panics under the lock poisons it; the others
        // keep being served.
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = svc.pending.lock();
                    panic!("handler died under the lock");
                })
                .join()
        });
        assert!(poisoner.is_err() && svc.pending.is_poisoned());
        assert!(matches!(
            svc.handle(&depart(1)),
            Response::Pushed { pending: 2, .. }
        ));
    }

    #[test]
    fn draining_rejects_everything_but_observability() {
        let svc = service();
        assert_eq!(svc.handle(&Request::Shutdown), Response::Shutdown);
        assert!(svc.draining());
        assert_eq!(
            code(&svc.handle(&Request::Apply)),
            Some(ErrorCode::Unavailable)
        );
        let Response::Health(health) = svc.handle(&Request::Health) else {
            panic!("health must answer while draining");
        };
        assert_eq!(health.status, "draining");
        assert!(matches!(
            svc.handle(&Request::Metrics),
            Response::Metrics(_)
        ));
    }

    #[test]
    fn applies_match_a_direct_engine_and_a_scratch_solve() {
        let sequence = [
            depart(0),
            Request::Apply,
            Request::Update {
                updates: vec![Update::StreamArrival(StreamId::new(0))],
                admit: true,
            },
            Request::Apply,
            Request::Update {
                updates: vec![Update::StreamArrival(StreamId::new(99))],
                admit: false,
            },
            Request::Update {
                updates: vec![Update::BudgetChange {
                    measure: 0,
                    budget: 1.0,
                }],
                admit: false,
            },
            Request::Apply,
            Request::Apply,
            Request::Allocation,
            Request::Certificate,
            Request::QueryUser { user: 1 },
            Request::QueryStream { stream: 3 },
            Request::Admissions,
        ];
        let svc = service();
        let mut engine = IngestEngine::new(demo_instance(), svc.config().ingest).unwrap();
        let mut applies = 0;
        for request in &sequence {
            let response = svc.handle(request);
            match request {
                Request::Update { updates, .. } => {
                    // The engine accepts exactly the frames the service acked.
                    let pushed = engine.push_batch(updates.iter().cloned()).is_ok();
                    assert_eq!(
                        pushed,
                        matches!(response, Response::Pushed { .. }),
                        "{request:?}"
                    );
                }
                Request::Apply => {
                    applies += 1;
                    let expected = match engine.apply() {
                        Ok(outcome) => Response::Applied {
                            outcome: WireOutcome::from(outcome),
                        },
                        Err(e) => {
                            engine.clear_pending();
                            error_response(&e)
                        }
                    };
                    assert_eq!(response, expected, "apply #{applies}");
                }
                _ => {}
            }
        }
        assert_eq!(applies, 4);
        let shard = svc.config().ingest.shard;
        let served = svc.into_engine();
        assert_eq!(served.assignment(), engine.assignment());
        let scratch = solve_sharded(served.current_instance(), &shard).unwrap();
        assert_eq!(served.utility().to_bits(), scratch.utility.to_bits());
        assert_eq!(served.assignment(), &scratch.assignment);
    }

    #[test]
    fn health_and_metrics_reflect_state() {
        let svc = service();
        let h = svc.health();
        assert_eq!(h.status, "ok");
        assert_eq!(h.live_streams, 6);
        assert_eq!(h.num_users, 3);
        assert_eq!(h.pending_updates, 0);

        svc.handle(&depart(0));
        svc.handle(&Request::Apply);
        let m = svc.metrics_snapshot();
        assert_eq!(m.applies, 1);
        assert_eq!(m.updates_applied, 1);
        assert_eq!(m.requests, 2);
        assert_eq!(m.queue_capacity, 64);
        assert!(m.utility > 0.0);
        assert!(m.upper_bound >= m.utility);
    }
}
