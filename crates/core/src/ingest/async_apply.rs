//! Truly asynchronous applies: an [`IngestEngine`] on its own solver
//! thread, fed pre-validated batches as numbered **epochs**.
//!
//! The synchronous engine couples callers to re-solve latency: whoever
//! calls [`IngestEngine::apply`] holds the engine until the dirty shards
//! are re-solved. This module decouples them:
//!
//! * [`AsyncIngest::apply_async`] validates a batch **on the submitting
//!   thread** against the engine's fixed [`Universe`], assigns it the next
//!   epoch number, and enqueues it — returning immediately. Structural
//!   garbage is rejected synchronously (same all-or-nothing contract as
//!   [`IngestEngine::push_batch`]); stateful rejections surface through
//!   [`AsyncIngest::wait`].
//! * A dedicated solver thread owns the engine and applies epochs
//!   **strictly in submission order**, one at a time. Order is the entire
//!   determinism argument: the synchronous path applies the same batches
//!   in the same order on one thread, so every committed state — and every
//!   certified `utility ≤ OPT ≤ upper_bound` bracket — is bit-identical to
//!   the synchronous path and, by the engine's equivalence contract, to a
//!   from-scratch sharded solve (`tests/ingest_churn.rs` pins all three).
//! * After each epoch the solver publishes an [`IngestSnapshot`] by
//!   swapping an `Arc` behind a mutex — an atomic epoch swap. The
//!   snapshot shares the engine's committed instance, model and
//!   assignment, so publishing copies none of them. Readers
//!   ([`AsyncIngest::snapshot`]) get either the previous or the new
//!   committed state, never a torn intermediate, and never wait on an
//!   in-flight re-solve.
//! * Background maintenance has **one path**: whenever the epoch queue
//!   drains, the solver runs [`IngestEngine::refresh_full`] if a refresh
//!   was requested ([`AsyncIngest::request_refresh`]) or governance
//!   deferred one (`DegradeAction::DeferFull`). A refresh takes no epoch
//!   number; it republishes the snapshot at the current committed epoch.
//!
//! `AsyncIngest` is `Sync`: any thread may submit, wait on an epoch
//! ([`AsyncIngest::wait`]) and read snapshots. [`AsyncIngest::shutdown`]
//! drains the queue and returns the engine for post-mortem differential
//! checks.

use super::{
    IngestEngine, IngestError, IngestMetrics, IngestOutcome, IngestSnapshot, Universe, Update,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Retained per-epoch outcomes: entries older than the last
/// `OUTCOME_WINDOW` committed epochs are pruned, so fire-and-forget
/// submitters cannot grow the map without bound. Waiters in practice wait
/// immediately after submitting, far inside the window; one that falls
/// behind gets [`IngestError::OutcomeExpired`] rather than a panic.
const OUTCOME_WINDOW: u64 = 1024;

struct QueueState {
    /// Validated batches, each with its epoch number.
    queue: VecDeque<(u64, Vec<Update>)>,
    outcomes: BTreeMap<u64, Result<IngestOutcome, Arc<IngestError>>>,
    shutdown: bool,
}

/// State shared between submitters, waiters, and the solver thread.
struct Shared {
    state: Mutex<QueueState>,
    /// Wakes the solver when work arrives or shutdown is requested.
    work_cv: Condvar,
    /// Wakes waiters when an epoch's outcome lands.
    done_cv: Condvar,
    /// The committed-state snapshot, swapped after every epoch.
    snapshot: Mutex<Arc<IngestSnapshot>>,
    /// Last epoch handed out to a submitter.
    submitted: AtomicU64,
    /// Last epoch the solver finished processing (committed or rejected).
    committed: AtomicU64,
    /// Epoch currently applying on the solver thread (0 = idle).
    in_flight: AtomicU64,
    /// Updates rejected by submit-side structural validation (the async
    /// counterpart of the engine's push-time `rejected_updates`).
    front_rejected_updates: AtomicU64,
    /// Full re-solves requested so far (incremented under the queue lock,
    /// so the solver cannot miss the wake-up).
    refresh_requested: AtomicU64,
    /// How many of those requests a finished refresh has covered.
    refresh_done: AtomicU64,
}

/// The asynchronous apply frontend (see the [module docs](self)).
///
/// Owns the solver thread; dropping it (or calling
/// [`shutdown`](Self::shutdown)) drains the queue and joins the thread.
#[derive(Debug)]
pub struct AsyncIngest {
    shared: Arc<Shared>,
    universe: Universe,
    solver: Option<JoinHandle<IngestEngine>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("submitted", &self.submitted.load(Ordering::Relaxed))
            .field("committed", &self.committed.load(Ordering::Relaxed))
            .field("in_flight", &self.in_flight.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl AsyncIngest {
    /// Lifts `engine` onto a dedicated solver thread. The initial snapshot
    /// (epoch 0) is the engine's committed state at the time of the call.
    #[must_use]
    pub fn new(engine: IngestEngine) -> Self {
        let universe = engine.universe();
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                outcomes: BTreeMap::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            snapshot: Mutex::new(Arc::new(engine.snapshot(0))),
            submitted: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            front_rejected_updates: AtomicU64::new(0),
            refresh_requested: AtomicU64::new(0),
            refresh_done: AtomicU64::new(0),
        });
        let solver = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mmd-ingest-solver".into())
                .spawn(move || solver_loop(engine, &shared))
                .expect("spawning the ingest solver thread")
        };
        AsyncIngest {
            shared,
            universe,
            solver: Some(solver),
        }
    }

    /// The latest committed snapshot. Never blocks on an in-flight
    /// re-solve; the `Arc` is cheap to clone and stable once returned.
    #[must_use]
    pub fn snapshot(&self) -> Arc<IngestSnapshot> {
        Arc::clone(&self.shared.snapshot.lock().expect("snapshot lock"))
    }

    /// Validates `updates` structurally (all-or-nothing, exactly like
    /// [`IngestEngine::push_batch`]) and enqueues them as the next epoch;
    /// returns the epoch number immediately, while the re-solve runs on
    /// the solver thread. An empty batch is a valid epoch (it re-certifies
    /// the committed state, like a sync apply with nothing pending).
    ///
    /// # Errors
    ///
    /// Returns the first structural [`IngestError`] in the batch; nothing
    /// is enqueued. Stateful rejections (budget coverage) surface later
    /// through [`wait`](Self::wait) for this epoch.
    pub fn apply_async(&self, updates: Vec<Update>) -> Result<u64, IngestError> {
        self.validate_batch(&updates)?;
        let mut state = self.lock_state();
        let epoch = self.shared.submitted.fetch_add(1, Ordering::AcqRel) + 1;
        state.queue.push_back((epoch, updates));
        drop(state);
        self.shared.work_cv.notify_all();
        Ok(epoch)
    }

    /// Validates a batch structurally without enqueuing anything —
    /// all-or-nothing, counting the rejection like the engine's push path
    /// would. Frontends that buffer updates before submitting (e.g. the
    /// daemon's `update` frames) use this to reject garbage immediately.
    ///
    /// # Errors
    ///
    /// Returns the first structural [`IngestError`] in the batch.
    pub fn validate_batch(&self, updates: &[Update]) -> Result<(), IngestError> {
        for update in updates {
            if let Err(e) = self.universe.validate(update) {
                self.shared
                    .front_rejected_updates
                    .fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Asks the solver for a full re-solve of the committed state
    /// ([`IngestEngine::refresh_full`]) the next time its epoch queue
    /// drains — the same point where a governance-deferred refresh runs.
    /// Requests made before a refresh starts are all covered by it.
    pub fn request_refresh(&self) {
        let state = self.lock_state();
        self.shared.refresh_requested.fetch_add(1, Ordering::AcqRel);
        drop(state);
        self.shared.work_cv.notify_all();
    }

    /// Whether a requested refresh has not finished yet (queued behind
    /// epochs, or running).
    #[must_use]
    pub fn refresh_pending(&self) -> bool {
        let done = self.shared.refresh_done.load(Ordering::Acquire);
        self.shared.refresh_requested.load(Ordering::Acquire) > done
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.shared.state.lock().expect("ingest queue lock")
    }

    /// Blocks until `epoch` has been processed and returns its outcome.
    ///
    /// # Errors
    ///
    /// The engine's rejection for that epoch (shared, since several
    /// waiters may observe it), or [`IngestError::OutcomeExpired`] when
    /// the outcome already fell out of the retention window (an epoch is
    /// retained for 1024 commits — `OUTCOME_WINDOW`).
    ///
    /// # Panics
    ///
    /// Panics if `epoch` was never submitted.
    pub fn wait(&self, epoch: u64) -> Result<IngestOutcome, Arc<IngestError>> {
        let shared = &*self.shared;
        assert!(
            epoch <= shared.submitted.load(Ordering::Acquire),
            "waiting on epoch {epoch} that was never submitted"
        );
        let mut state = self.lock_state();
        loop {
            if let Some(outcome) = state.outcomes.get(&epoch) {
                return outcome.clone();
            }
            // Processed, but already pruned from the retention window (the
            // waiter fell more than `OUTCOME_WINDOW` commits behind). An
            // error, not a panic: in the daemon this runs on a connection
            // handler thread, which must answer with an error frame rather
            // than die.
            if shared.committed.load(Ordering::Acquire) >= epoch {
                return Err(Arc::new(IngestError::OutcomeExpired { epoch }));
            }
            state = shared
                .done_cv
                .wait(state)
                .expect("ingest done condvar poisoned");
        }
    }

    /// Epochs submitted but not yet processed — the apply queue lag.
    #[must_use]
    pub fn queue_lag(&self) -> u64 {
        let submitted = self.shared.submitted.load(Ordering::Acquire);
        let committed = self.shared.committed.load(Ordering::Acquire);
        submitted.saturating_sub(committed)
    }

    /// The epoch currently applying on the solver thread, if any.
    #[must_use]
    pub fn in_flight_epoch(&self) -> Option<u64> {
        match self.shared.in_flight.load(Ordering::Acquire) {
            0 => None,
            e => Some(e),
        }
    }

    /// Last epoch handed out to a submitter.
    #[must_use]
    pub fn submitted_epoch(&self) -> u64 {
        self.shared.submitted.load(Ordering::Acquire)
    }

    /// Last epoch the solver finished processing.
    #[must_use]
    pub fn committed_epoch(&self) -> u64 {
        self.shared.committed.load(Ordering::Acquire)
    }

    /// Engine counters as of the latest snapshot, with submit-side
    /// structural rejections folded in — the same totals the synchronous
    /// engine would report after the same traffic.
    #[must_use]
    pub fn metrics(&self) -> IngestMetrics {
        let mut m = *self.snapshot().metrics();
        m.rejected_updates += self.shared.front_rejected_updates.load(Ordering::Relaxed);
        m
    }

    /// Drains every queued epoch, stops the solver thread, and returns the
    /// engine for in-process inspection (differential tests, final
    /// reports).
    #[must_use]
    pub fn shutdown(mut self) -> IngestEngine {
        self.begin_shutdown();
        self.solver
            .take()
            .expect("solver thread present until shutdown")
            .join()
            .expect("ingest solver thread panicked")
    }

    fn begin_shutdown(&self) {
        let mut state = self.lock_state();
        state.shutdown = true;
        drop(state);
        self.shared.work_cv.notify_all();
    }
}

impl Drop for AsyncIngest {
    fn drop(&mut self) {
        if let Some(handle) = self.solver.take() {
            self.begin_shutdown();
            let _ = handle.join();
        }
    }
}

/// The solver thread: applies epochs strictly in submission order,
/// publishing a snapshot after each, and runs maintenance whenever the
/// queue drains, until shutdown drains the queue.
fn solver_loop(mut engine: IngestEngine, shared: &Shared) -> IngestEngine {
    loop {
        let (epoch, updates) = {
            let mut state = shared.state.lock().expect("ingest queue lock");
            loop {
                if let Some(batch) = state.queue.pop_front() {
                    break batch;
                }
                if state.shutdown {
                    return engine;
                }
                // The drain point, the one maintenance path: a requested
                // refresh (`resolve`) and a governance-deferred one
                // (`DegradeAction::DeferFull`) both run here, off the
                // latency path. The queue lock is released first —
                // submitters must never block on maintenance — and the
                // refreshed snapshot republishes at the current committed
                // epoch: same instance, every shard re-solved fresh, so
                // the bracket can only tighten.
                let requested = shared.refresh_requested.load(Ordering::Acquire);
                if requested > shared.refresh_done.load(Ordering::Acquire)
                    || engine.refresh_wanted()
                {
                    drop(state);
                    let epoch = shared.committed.load(Ordering::Acquire);
                    if engine.refresh_full().is_ok() {
                        *shared.snapshot.lock().expect("snapshot lock") =
                            Arc::new(engine.snapshot(epoch));
                    }
                    // Cleared only after the publish: whoever sees the
                    // request done also sees the refreshed snapshot.
                    shared.refresh_done.store(requested, Ordering::Release);
                    state = shared.state.lock().expect("ingest queue lock");
                    continue;
                }
                state = shared
                    .work_cv
                    .wait(state)
                    .expect("ingest work condvar poisoned");
            }
        };
        shared.in_flight.store(epoch, Ordering::Release);
        let result = match engine.push_batch(updates) {
            Ok(_) => engine.apply(),
            Err(e) => Err(e),
        };
        if result.is_err() {
            // A rejected batch must not poison later epochs.
            engine.clear_pending();
        }
        // The atomic epoch swap: readers see the previous snapshot or this
        // one, never a torn state. Published on rejection too — the
        // allocation is unchanged but the metrics moved.
        *shared.snapshot.lock().expect("snapshot lock") = Arc::new(engine.snapshot(epoch));
        let mut state = shared.state.lock().expect("ingest queue lock");
        state.outcomes.insert(epoch, result.map_err(Arc::new));
        let floor = epoch.saturating_sub(OUTCOME_WINDOW);
        state.outcomes = state.outcomes.split_off(&floor);
        shared.committed.store(epoch, Ordering::Release);
        shared.in_flight.store(0, Ordering::Release);
        drop(state);
        shared.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::{DegradeAction, SolveBudget};
    use crate::ingest::IngestConfig;
    use crate::instance::Instance;
    use crate::StreamId;

    fn small_instance() -> Instance {
        let mut b = Instance::builder("async").server_budgets(vec![10.0]);
        let streams: Vec<_> = (0..4).map(|_| b.add_stream(vec![2.0])).collect();
        for u in 0..3 {
            let user = b.add_user(f64::INFINITY, vec![]);
            for (i, &s) in streams.iter().enumerate() {
                b.add_interest(user, s, 1.0 + (u * 4 + i) as f64, vec![])
                    .expect("interest");
            }
        }
        b.build().expect("instance")
    }

    #[test]
    fn async_applies_match_sync_applies_bit_for_bit() {
        let instance = small_instance();
        let config = IngestConfig::default();
        let mut sync = IngestEngine::new(instance.clone(), config).expect("sync engine");
        let ingest = AsyncIngest::new(IngestEngine::new(instance, config).expect("async engine"));

        let batches: Vec<Vec<Update>> = vec![
            vec![Update::StreamDeparture(StreamId::new(1))],
            vec![
                Update::StreamArrival(StreamId::new(1)),
                Update::StreamDeparture(StreamId::new(3)),
            ],
            vec![],
        ];
        for batch in batches {
            sync.push_batch(batch.clone()).expect("push");
            let expected = sync.apply().expect("sync apply");
            let epoch = ingest.apply_async(batch).expect("submit");
            let got = ingest.wait(epoch).expect("async apply");
            assert_eq!(got.utility.to_bits(), expected.utility.to_bits());
            assert_eq!(got.upper_bound.to_bits(), expected.upper_bound.to_bits());
            assert_eq!(got.resolved_shards, expected.resolved_shards);
            let snap = ingest.snapshot();
            assert_eq!(snap.epoch(), epoch);
            assert_eq!(snap.assignment(), sync.assignment());
        }

        assert_eq!(ingest.queue_lag(), 0);
        assert_eq!(ingest.metrics().applies, sync.metrics().applies);
        let engine = ingest.shutdown();
        assert_eq!(engine.utility().to_bits(), sync.utility().to_bits());
        assert_eq!(engine.assignment(), sync.assignment());
    }

    #[test]
    fn structural_garbage_is_rejected_at_submit_time() {
        let ingest = AsyncIngest::new(
            IngestEngine::new(small_instance(), IngestConfig::default()).expect("engine"),
        );
        let err = ingest
            .apply_async(vec![Update::StreamArrival(StreamId::new(99))])
            .expect_err("unknown stream");
        assert!(matches!(err, IngestError::UnknownStream(_)));
        assert_eq!(ingest.submitted_epoch(), 0, "nothing was enqueued");
        assert_eq!(ingest.metrics().rejected_updates, 1);
    }

    #[test]
    fn stateful_rejection_surfaces_through_wait_and_preserves_state() {
        let ingest = AsyncIngest::new(
            IngestEngine::new(small_instance(), IngestConfig::default()).expect("engine"),
        );
        let before = ingest.snapshot();
        // Budget below the live cost: structural pass, stateful reject.
        let epoch = ingest
            .apply_async(vec![Update::BudgetChange {
                measure: 0,
                budget: 0.5,
            }])
            .expect("structurally fine");
        let err = ingest.wait(epoch).expect_err("stateful rejection");
        assert!(matches!(*err, IngestError::CostExceedsBudget { .. }));
        let after = ingest.snapshot();
        assert_eq!(after.utility().to_bits(), before.utility().to_bits());
        assert_eq!(after.assignment(), before.assignment());
        assert_eq!(after.metrics().rejected_batches, 1);
        // The queue is not poisoned: the next epoch applies cleanly.
        let epoch = ingest
            .apply_async(vec![Update::StreamDeparture(StreamId::new(0))])
            .expect("submit");
        ingest.wait(epoch).expect("apply after rejection");
        drop(ingest);
    }

    #[test]
    fn requested_and_deferred_refreshes_share_the_drain_point() {
        let budget = SolveBudget::default()
            .with_hard_work(0)
            .with_hard_action(DegradeAction::DeferFull);
        let config = IngestConfig {
            budget,
            ..IngestConfig::default()
        };
        let ingest = AsyncIngest::new(IngestEngine::new(small_instance(), config).expect("e"));
        // Holding the snapshot lock parks the solver at its publish, so a
        // refresh is both requested and deferred when the queue drains.
        let publish = ingest.shared.snapshot.lock().expect("snapshot lock");
        let epoch = ingest
            .apply_async(vec![Update::StreamDeparture(StreamId::new(0))])
            .expect("submit");
        ingest.request_refresh();
        assert!(ingest.refresh_pending());
        drop(publish);
        assert!(ingest.wait(epoch).expect("commits").deferred_full);
        while ingest.refresh_pending() {
            std::thread::yield_now();
        }
        let m = ingest.metrics();
        assert_eq!(m.full_resolves, 1, "one refresh served both reasons");
        assert_eq!(m.deferred_full_resolves, 1);
        assert_eq!(ingest.snapshot().epoch(), epoch, "a refresh takes no epoch");
        assert!(!ingest.shutdown().refresh_wanted());
    }

    #[test]
    fn waiting_past_the_retention_window_is_an_error_not_a_panic() {
        let ingest = AsyncIngest::new(
            IngestEngine::new(small_instance(), IngestConfig::default()).expect("engine"),
        );
        let first = ingest.apply_async(vec![]).expect("submit");
        // Push the first epoch out of the retention window with empty
        // re-certification epochs.
        let mut last = first;
        for _ in 0..=OUTCOME_WINDOW {
            last = ingest.apply_async(vec![]).expect("submit");
        }
        ingest.wait(last).expect("the last epoch commits");
        let err = ingest.wait(first).expect_err("outcome was pruned");
        assert!(matches!(*err, IngestError::OutcomeExpired { epoch } if epoch == first));
        // Recent epochs still resolve normally.
        let recent = ingest.apply_async(vec![]).expect("submit");
        ingest.wait(recent).expect("inside the window");
    }

    #[test]
    fn a_panicking_apply_is_an_error_and_later_epochs_commit() {
        let mut engine = IngestEngine::new(small_instance(), IngestConfig::default()).expect("e");
        engine.panic_on_apply = Some(2);
        let ingest = Arc::new(AsyncIngest::new(engine));
        let epochs: Vec<u64> = [
            Update::StreamDeparture(StreamId::new(0)),
            Update::StreamDeparture(StreamId::new(1)),
            Update::StreamArrival(StreamId::new(0)),
        ]
        .into_iter()
        .map(|update| ingest.apply_async(vec![update]).expect("submit"))
        .collect();
        // Wait on another thread, so a wedged solver fails the test instead
        // of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let ingest = Arc::clone(&ingest);
            std::thread::spawn(move || {
                let outcomes: Vec<_> = epochs.iter().map(|&e| ingest.wait(e)).collect();
                tx.send(outcomes).expect("receiver alive");
            })
        };
        let outcomes = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a panicking apply must not wedge the solver");
        waiter.join().expect("waiter thread");
        assert!(outcomes[0].is_ok());
        let err = outcomes[1].as_ref().expect_err("epoch 2 panicked");
        assert!(matches!(**err, IngestError::SolverPanic(ref m) if m.contains("injected")));
        assert!(outcomes[2].is_ok(), "epoch 3 commits after the panic");

        let engine = Arc::into_inner(ingest).expect("sole owner").shutdown();
        assert_eq!(engine.metrics().rejected_batches, 1);
        assert_eq!(engine.num_live(), 4, "epoch 2's departure never applied");
        let scratch =
            crate::algo::shard::solve_sharded(engine.current_instance(), &engine.config().shard)
                .expect("scratch solve");
        assert_eq!(engine.assignment(), &scratch.assignment);
        assert_eq!(engine.utility().to_bits(), scratch.utility.to_bits());
        assert_eq!(
            engine.last_outcome().upper_bound.to_bits(),
            scratch.upper_bound.to_bits()
        );
    }

    #[test]
    fn drop_drains_queued_epochs() {
        let instance = small_instance();
        let config = IngestConfig::default();
        let ingest = AsyncIngest::new(IngestEngine::new(instance.clone(), config).expect("e"));
        for s in 0..3 {
            ingest
                .apply_async(vec![Update::StreamDeparture(StreamId::new(s))])
                .expect("submit");
        }
        let engine = ingest.shutdown();
        assert_eq!(engine.num_live(), instance.num_streams() - 3);
    }
}
