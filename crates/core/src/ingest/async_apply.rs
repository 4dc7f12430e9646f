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
//!   [`AsyncIngest::wait`]. Each epoch is all-or-nothing: a rejected
//!   epoch, and one a hard budget trip shed (its outcome is `stale`),
//!   leaves nothing pending for later epochs. The synchronous engine
//!   instead keeps a shed batch for its caller to retry.
//! * A dedicated solver thread owns the engine and applies epochs
//!   **strictly in submission order**, one at a time. Order is the entire
//!   determinism argument: the synchronous path applies the same batches
//!   in the same order on one thread, so every committed state — and every
//!   certified `utility ≤ OPT ≤ upper_bound` bracket — is bit-identical to
//!   the synchronous path and, by the engine's equivalence contract, to a
//!   from-scratch sharded solve (`tests/ingest_churn.rs` pins all three).
//! * After each epoch the solver publishes an [`IngestSnapshot`] by
//!   swapping an `Arc`, in the same step that records the epoch's outcome:
//!   a waiter that sees its epoch also sees that epoch's snapshot. The
//!   snapshot shares the engine's committed instance, model and
//!   assignment, so publishing copies none of them. Readers
//!   ([`AsyncIngest::snapshot`]) get either the previous or the new
//!   committed state, never a torn intermediate, and never wait on an
//!   in-flight re-solve.
//! * Background maintenance has **one path**: whenever the epoch queue
//!   drains, the solver runs [`IngestEngine::refresh_full`] if a refresh
//!   was requested ([`AsyncIngest::request_refresh`]) or governance
//!   deferred one (`DegradeAction::DeferFull`); one refresh serves both. A
//!   refresh takes no epoch number; it republishes the snapshot at the
//!   current committed epoch, also when it fails, since the failure is
//!   counted in the engine's metrics.
//!
//! # One state
//!
//! Everything the threads share is one `QueueState` behind one mutex: the
//! queue, the retained outcomes, the published snapshot, the epoch
//! counters, the refresh request and done counts, and the `shutdown` and
//! `solver_exited` flags. Each transition — submit, take, finish an epoch,
//! finish a refresh, request a refresh, poll a waiter's epoch, shutdown,
//! solver exit — is a plain `QueueState` method that takes no lock and
//! starts no thread, and returns the condvar its caller must wake. The
//! thread code only locks, steps and notifies, so every ordering argument
//! is "one critical section"; a unit test enumerates every interleaving of
//! a bounded event alphabet over the transitions. [`AsyncIngest::status`]
//! reads one consistent cut of the counters.
//!
//! # A dead solver
//!
//! The engine turns a panic inside a re-solve into
//! [`IngestError::SolverPanic`] for that epoch, and the solver goes on. A
//! panic anywhere else on the solver thread ends it; a drop guard then
//! marks the solver exited. From then on [`AsyncIngest::wait`] on any
//! unfinished epoch returns `SolverPanic` instead of blocking, and
//! [`AsyncIngest::apply_async`] refuses new epochs with the same error
//! (the daemon answers both as `internal`). A lock poisoned by a panic is
//! recovered: no transition can leave the state half-updated.
//!
//! `AsyncIngest` is `Sync`: any thread may submit, wait on an epoch
//! ([`AsyncIngest::wait`]) and read snapshots. [`AsyncIngest::shutdown`]
//! drains the queue and returns the engine for post-mortem differential
//! checks.

use super::{
    IngestEngine, IngestError, IngestMetrics, IngestOutcome, IngestSnapshot, Universe, Update,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Retained per-epoch outcomes: entries older than the last
/// `OUTCOME_WINDOW` committed epochs are pruned, so fire-and-forget
/// submitters cannot grow the map without bound. Waiters in practice wait
/// immediately after submitting, far inside the window; one that falls
/// behind gets [`IngestError::OutcomeExpired`] rather than a panic.
const OUTCOME_WINDOW: u64 = 1024;

/// The [`IngestError::SolverPanic`] message for epochs a dead solver
/// never finished.
const SOLVER_EXITED: &str = "the ingest solver thread exited";

/// The condvar a transition's caller notifies.
enum Wake {
    /// The solver, parked on `work_cv`.
    Solver,
    /// Waiters, parked on `done_cv`.
    Waiters,
}

/// The solver's next job ([`QueueState::take`]).
enum Job {
    Apply(u64, Vec<Update>),
    /// `Refresh(epoch, covers)`: refresh, republish at `epoch`, and mark
    /// the first `covers` requests done.
    Refresh(u64, u64),
    /// Shutdown drained the queue: hand the engine back.
    Exit,
}

/// The counters and flags of an [`AsyncIngest`], read as one consistent
/// cut by [`AsyncIngest::status`]. Apply queue lag is
/// `submitted − committed`; a refresh is pending while
/// `refresh_requested > refresh_done`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AsyncStatus {
    /// Last epoch handed out to a submitter.
    pub submitted: u64,
    /// Last epoch the solver finished processing (committed or rejected).
    pub committed: u64,
    /// The epoch applying on the solver thread, 0 when none is.
    pub in_flight: u64,
    /// Full re-solves requested so far.
    pub refresh_requested: u64,
    /// How many of those requests a finished refresh has covered.
    pub refresh_done: u64,
    /// Updates rejected by submit-side structural validation (the async
    /// counterpart of the engine's push-time `rejected_updates`).
    pub front_rejected_updates: u64,
    /// Shutdown was requested.
    pub shutdown: bool,
    /// The solver thread has ended, by return or by unwind.
    pub solver_exited: bool,
}

/// Everything submitters, waiters and the solver share. `S` is the
/// published snapshot: `Arc<IngestSnapshot>`, or a plain marker in the
/// exhaustive check.
#[derive(Clone, Debug)]
struct QueueState<S> {
    /// Validated batches, each with its epoch number.
    queue: VecDeque<(u64, Vec<Update>)>,
    outcomes: BTreeMap<u64, Result<IngestOutcome, Arc<IngestError>>>,
    snapshot: S,
    status: AsyncStatus,
}

impl<S> QueueState<S> {
    fn new(snapshot: S) -> Self {
        QueueState {
            queue: VecDeque::new(),
            outcomes: BTreeMap::new(),
            snapshot,
            status: AsyncStatus::default(),
        }
    }

    /// A submitter enqueues a validated batch as the next epoch.
    fn submit(&mut self, updates: Vec<Update>) -> Result<(u64, Wake), IngestError> {
        if self.status.solver_exited {
            return Err(IngestError::SolverPanic(SOLVER_EXITED.into()));
        }
        self.status.submitted += 1;
        self.queue.push_back((self.status.submitted, updates));
        Ok((self.status.submitted, Wake::Solver))
    }

    /// The solver picks its next job, or `None` to park. Queued epochs
    /// come first. At the drain point one refresh covers every request so
    /// far and the engine's own deferred one (`refresh_wanted`) together.
    fn take(&mut self, refresh_wanted: bool) -> Option<Job> {
        let s = &mut self.status;
        if let Some((epoch, updates)) = self.queue.pop_front() {
            s.in_flight = epoch;
            Some(Job::Apply(epoch, updates))
        } else if s.shutdown {
            Some(Job::Exit)
        } else if s.refresh_requested > s.refresh_done || refresh_wanted {
            Some(Job::Refresh(s.committed, s.refresh_requested))
        } else {
            None
        }
    }

    /// The in-flight epoch ended (committed, rejected or panicked): record
    /// its outcome, publish its snapshot, prune the retention window, all
    /// in one step. Published on rejection too — the allocation is
    /// unchanged but the metrics moved.
    fn finish_epoch(&mut self, outcome: Result<IngestOutcome, IngestError>, snapshot: S) -> Wake {
        let epoch = std::mem::take(&mut self.status.in_flight);
        self.outcomes.insert(epoch, outcome.map_err(Arc::new));
        self.outcomes.retain(|&e, _| e + OUTCOME_WINDOW >= epoch);
        self.status.committed = epoch;
        self.snapshot = snapshot;
        Wake::Waiters
    }

    /// A refresh ended, failed or not: publish, then mark its requests
    /// done, in one step. Nobody blocks on a refresh, so it wakes no one.
    fn finish_refresh(&mut self, covers: u64, snapshot: S) {
        self.snapshot = snapshot;
        self.status.refresh_done = covers;
    }

    fn request_refresh(&mut self) -> Wake {
        self.status.refresh_requested += 1;
        Wake::Solver
    }

    /// A waiter's check on `epoch`: its outcome, expired, failed after the
    /// solver exited, or `None` to keep waiting.
    fn poll(&self, epoch: u64) -> Option<Result<IngestOutcome, Arc<IngestError>>> {
        let error = match self.outcomes.get(&epoch) {
            Some(outcome) => return Some(outcome.clone()),
            None if self.status.committed >= epoch => IngestError::OutcomeExpired { epoch },
            None if self.status.solver_exited => IngestError::SolverPanic(SOLVER_EXITED.into()),
            None => return None,
        };
        Some(Err(Arc::new(error)))
    }

    fn shutdown(&mut self) -> Wake {
        self.status.shutdown = true;
        Wake::Solver
    }

    /// The solver thread ended: waiters on epochs it never finished fail.
    fn solver_exit(&mut self) -> Wake {
        self.status.solver_exited = true;
        Wake::Waiters
    }
}

/// State shared between submitters, waiters, and the solver thread.
#[derive(Debug)]
struct Shared {
    state: Mutex<QueueState<Arc<IngestSnapshot>>>,
    /// Wakes the solver when work arrives or shutdown is requested.
    work_cv: Condvar,
    /// Wakes waiters when an epoch's outcome lands or the solver exits.
    done_cv: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, QueueState<Arc<IngestSnapshot>>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn notify(&self, wake: Wake) {
        match wake {
            Wake::Solver => self.work_cv.notify_all(),
            Wake::Waiters => self.done_cv.notify_all(),
        }
    }
}

/// The asynchronous apply frontend (see the [module docs](self)).
///
/// Owns the solver thread; dropping it (or calling
/// [`shutdown`](Self::shutdown)) drains the queue and joins the thread.
#[derive(Debug)]
pub struct AsyncIngest {
    shared: Arc<Shared>,
    universe: Universe,
    solver: Option<std::thread::JoinHandle<IngestEngine>>,
}

impl AsyncIngest {
    /// Lifts `engine` onto a dedicated solver thread. The initial snapshot
    /// (epoch 0) is the engine's committed state at the time of the call.
    #[must_use]
    pub fn new(engine: IngestEngine) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState::new(Arc::new(engine.snapshot(0)))),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let solver_shared = Arc::clone(&shared);
        AsyncIngest {
            universe: engine.universe(),
            solver: Some(
                std::thread::Builder::new()
                    .name("mmd-ingest-solver".into())
                    .spawn(move || solver_loop(engine, &solver_shared))
                    .expect("spawning the ingest solver thread"),
            ),
            shared,
        }
    }

    /// The latest committed snapshot. Never blocks on an in-flight
    /// re-solve; the `Arc` is cheap to clone and stable once returned.
    #[must_use]
    pub fn snapshot(&self) -> Arc<IngestSnapshot> {
        Arc::clone(&self.shared.lock().snapshot)
    }

    /// Validates `updates` structurally (all-or-nothing, exactly like
    /// [`IngestEngine::push_batch`]) and enqueues them as the next epoch;
    /// returns the epoch number immediately, while the re-solve runs on
    /// the solver thread. An empty batch is a valid epoch (it re-certifies
    /// the committed state, like a sync apply with nothing pending).
    ///
    /// # Errors
    ///
    /// Returns the first structural [`IngestError`] in the batch, or
    /// [`IngestError::SolverPanic`] once the solver thread has exited;
    /// nothing is enqueued. Stateful rejections (budget coverage) surface
    /// later through [`wait`](Self::wait) for this epoch.
    pub fn apply_async(&self, updates: Vec<Update>) -> Result<u64, IngestError> {
        self.validate_batch(&updates)?;
        let (epoch, wake) = self.shared.lock().submit(updates)?;
        self.shared.notify(wake);
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
        let validated = updates.iter().try_for_each(|u| self.universe.validate(u));
        if validated.is_err() {
            self.shared.lock().status.front_rejected_updates += 1;
        }
        validated
    }

    /// Asks the solver for a full re-solve of the committed state
    /// ([`IngestEngine::refresh_full`]) the next time its epoch queue
    /// drains — the same point where a governance-deferred refresh runs.
    /// Requests made before a refresh starts are all covered by it.
    pub fn request_refresh(&self) {
        self.shared.notify(self.shared.lock().request_refresh());
    }

    /// The latest committed snapshot, its engine counters with submit-side
    /// structural rejections folded in ([`metrics`](Self::metrics)), and
    /// the queue's counters — all as of one instant.
    #[must_use]
    pub fn status(&self) -> (Arc<IngestSnapshot>, IngestMetrics, AsyncStatus) {
        let state = self.shared.lock();
        let mut metrics = *state.snapshot.metrics();
        metrics.rejected_updates += state.status.front_rejected_updates;
        (Arc::clone(&state.snapshot), metrics, state.status)
    }

    /// Blocks until `epoch` has been processed and returns its outcome.
    ///
    /// # Errors
    ///
    /// The engine's rejection for that epoch (shared, since several
    /// waiters may observe it); [`IngestError::OutcomeExpired`] when the
    /// outcome already fell out of the retention window (an epoch is
    /// retained for 1024 commits — `OUTCOME_WINDOW`); or
    /// [`IngestError::SolverPanic`] when the solver thread exited before
    /// finishing the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` was never submitted.
    pub fn wait(&self, epoch: u64) -> Result<IngestOutcome, Arc<IngestError>> {
        let mut state = self.shared.lock();
        assert!(epoch <= state.status.submitted, "epoch {epoch} unsubmitted");
        loop {
            // An expired outcome is an error, not a panic: in the daemon
            // this runs on a connection handler thread, which must answer
            // with an error frame rather than die.
            if let Some(outcome) = state.poll(epoch) {
                return outcome;
            }
            state = (self.shared.done_cv.wait(state)).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Engine counters as of the latest snapshot, with submit-side
    /// structural rejections folded in — the same totals the synchronous
    /// engine would report after the same traffic.
    #[must_use]
    pub fn metrics(&self) -> IngestMetrics {
        self.status().1
    }

    /// Drains every queued epoch, stops the solver thread, and returns the
    /// engine for in-process inspection (differential tests, final
    /// reports).
    ///
    /// # Panics
    ///
    /// Panics if the solver thread panicked.
    #[must_use]
    pub fn shutdown(mut self) -> IngestEngine {
        let joined = self.stop().expect("solver thread present until shutdown");
        joined.expect("ingest solver thread panicked")
    }

    /// Requests shutdown and joins the solver, once.
    fn stop(&mut self) -> Option<std::thread::Result<IngestEngine>> {
        let solver = self.solver.take()?;
        self.shared.notify(self.shared.lock().shutdown());
        Some(solver.join())
    }
}

impl Drop for AsyncIngest {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Runs the solver-exit transition when the solver thread ends, by return
/// or by unwind.
struct ExitGuard<'a>(&'a Shared);

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        self.0.notify(self.0.lock().solver_exit());
    }
}

/// The solver thread: takes jobs in order — epochs first, a refresh when
/// the queue drains — runs each on the engine with the lock released, and
/// finishes it under the lock, until shutdown drains the queue.
fn solver_loop(mut engine: IngestEngine, shared: &Shared) -> IngestEngine {
    let _exit = ExitGuard(shared);
    loop {
        let mut job = None;
        drop(shared.work_cv.wait_while(shared.lock(), |state| {
            job = state.take(engine.refresh_wanted());
            job.is_none()
        }));
        let wake = match job {
            Some(Job::Apply(epoch, updates)) => {
                let result = engine.push_batch(updates).and_then(|_| engine.apply());
                // Each epoch is all-or-nothing: a commit leaves nothing
                // pending, a rejected batch must not poison later epochs,
                // and a shed one (answered `stale`, for its client to
                // resend) must not ride along with them.
                engine.clear_pending();
                let snapshot = Arc::new(engine.snapshot(epoch));
                shared.lock().finish_epoch(result, snapshot)
            }
            // Same instance, every shard re-solved fresh, so the bracket
            // can only tighten; a failed refresh leaves the state as it
            // was but counts in `rejected_batches`.
            Some(Job::Refresh(epoch, covers)) => {
                let _ = engine.refresh_full();
                let snapshot = Arc::new(engine.snapshot(epoch));
                shared.lock().finish_refresh(covers, snapshot);
                continue;
            }
            Some(Job::Exit) => return engine,
            // A poisoned lock cut the park short: take again.
            None => continue,
        };
        shared.notify(wake);
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

    fn refresh_pending(ingest: &AsyncIngest) -> bool {
        let (_, _, status) = ingest.status();
        status.refresh_requested > status.refresh_done
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

        let (_, _, status) = ingest.status();
        assert_eq!(status.submitted - status.committed, 0, "no queue lag");
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
        assert_eq!(ingest.status().2.submitted, 0, "nothing was enqueued");
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
        // Submitting and requesting in one critical section keeps the
        // solver from taking the epoch before the request lands, so a
        // refresh is both requested and deferred when the queue drains.
        let mut state = ingest.shared.lock();
        let (epoch, _) = state
            .submit(vec![Update::StreamDeparture(StreamId::new(0))])
            .expect("submit");
        state.request_refresh();
        assert!(state.status.refresh_requested > state.status.refresh_done);
        drop(state);
        ingest.shared.work_cv.notify_all();
        assert!(ingest.wait(epoch).expect("commits").deferred_full);
        while refresh_pending(&ingest) {
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

    #[test]
    fn a_failed_refresh_publishes_its_counters() {
        let mut engine = IngestEngine::new(small_instance(), IngestConfig::default()).expect("e");
        // The first resolve after construction panics: here, the refresh.
        engine.panic_on_apply = Some(1);
        let ingest = AsyncIngest::new(engine);
        ingest.request_refresh();
        while refresh_pending(&ingest) {
            std::thread::yield_now();
        }
        assert_eq!(
            ingest.metrics().rejected_batches,
            1,
            "the failed refresh is published with its counters"
        );
        assert_eq!(ingest.snapshot().epoch(), 0, "a refresh takes no epoch");
        assert_eq!(ingest.shutdown().metrics().rejected_batches, 1);
    }

    #[test]
    fn a_dead_solver_fails_waiters_and_refuses_new_epochs() {
        let mut engine = IngestEngine::new(small_instance(), IngestConfig::default()).expect("e");
        // Publishing epoch 2 panics outside the re-solve's panic guard.
        engine.panic_on_publish = Some(2);
        let ingest = Arc::new(AsyncIngest::new(engine));
        // A panic while holding the queue lock poisons it; the poison is
        // cleared, not fatal.
        let poisoner = {
            let ingest = Arc::clone(&ingest);
            std::thread::spawn(move || {
                let _held = ingest.shared.lock();
                panic!("poisoning the queue lock");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(ingest.shared.state.is_poisoned());
        let epochs = [0, 1].map(|s| {
            let update = Update::StreamDeparture(StreamId::new(s));
            ingest.apply_async(vec![update]).expect("submit")
        });
        // Wait on another thread, so a hang fails the test instead of
        // hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let ingest = Arc::clone(&ingest);
            std::thread::spawn(move || {
                let outcomes = epochs.map(|e| ingest.wait(e));
                tx.send(outcomes).expect("receiver alive");
            })
        };
        let [first, second] = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a dead solver must not hang its waiters");
        waiter.join().expect("waiter thread");
        assert!(first.is_ok(), "epoch 1 committed before the fault");
        let err = second.expect_err("the solver died publishing epoch 2");
        assert!(matches!(*err, IngestError::SolverPanic(ref m) if m == SOLVER_EXITED));
        let refused = ingest
            .apply_async(vec![])
            .expect_err("no epochs after death");
        assert!(matches!(refused, IngestError::SolverPanic(ref m) if m == SOLVER_EXITED));
        let (snapshot, _, status) = ingest.status();
        assert!(status.solver_exited);
        assert_eq!((status.submitted, status.committed), (2, 1));
        assert_eq!(snapshot.epoch(), 1);

        // `shutdown` keeps its documented panic on join.
        let ingest = Arc::into_inner(ingest).expect("sole owner");
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ingest.shutdown()));
        assert!(joined.is_err(), "shutdown reports the dead solver");
    }

    /// The exhaustive check of the pure core: every interleaving of a
    /// bounded event alphabet over [`QueueState`], driven the way the
    /// thread code drives it, with no threads and no solving.
    mod exhaustive {
        use super::super::*;

        /// How the engine ends a submitted epoch.
        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Kind {
            Commit,
            Reject,
            Panic,
            /// Commits, and governance defers a full refresh.
            Defer,
        }

        /// What the world outside the solver does.
        #[derive(Clone, Copy, Debug)]
        enum Event {
            Submit(Kind),
            RequestRefresh,
            Shutdown,
            /// The solver thread dies wherever it is.
            Crash,
        }

        const ALPHABET: [Event; 7] = [
            Event::Submit(Kind::Commit),
            Event::Submit(Kind::Reject),
            Event::Submit(Kind::Panic),
            Event::Submit(Kind::Defer),
            Event::RequestRefresh,
            Event::Shutdown,
            Event::Crash,
        ];

        /// Where the solver loop is.
        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Solver {
            /// About to take its next job.
            Ready,
            /// Asleep on `work_cv` until a `Wake::Solver`.
            Parked,
            /// Running the engine on this epoch, lock released.
            Applying(u64),
            /// Running a refresh: `(epoch, covers)`.
            Refreshing(u64, u64),
            Exited,
        }

        /// One entry of a failing interleaving's trace.
        #[expect(dead_code, reason = "read through `Debug`, in failure messages")]
        #[derive(Clone, Copy, Debug)]
        enum Step {
            Event(Event),
            Solver(Solver),
        }

        /// The published snapshot, as `(epoch, refreshes the engine had run)`.
        type Snap = (u64, u64);

        #[derive(Clone)]
        struct World {
            q: QueueState<Snap>,
            solver: Solver,
            /// Each submitted epoch's kind, by `epoch - 1`.
            kinds: Vec<Kind>,
            /// Each submitted epoch's waiter: `None` while it sleeps on
            /// `done_cv`, else the answer it returned with.
            answers: Vec<Option<Result<IngestOutcome, Arc<IngestError>>>>,
            /// The engine's `refresh_wanted`.
            refresh_wanted: bool,
            /// Refreshes the engine has run.
            refreshes: u64,
            /// `(covers, n)`: the `n`-th refresh covered the first `covers`
            /// requests.
            covered: Vec<(u64, u64)>,
            /// A request or a deferral arrived since the last refresh began.
            refresh_owed: bool,
            crashed: bool,
            events: usize,
            submits: usize,
            trace: Vec<Step>,
        }

        impl World {
            fn new() -> Self {
                World {
                    q: QueueState::new((0, 0)),
                    solver: Solver::Ready,
                    kinds: Vec::new(),
                    answers: Vec::new(),
                    refresh_wanted: false,
                    refreshes: 0,
                    covered: Vec::new(),
                    refresh_owed: false,
                    crashed: false,
                    events: 0,
                    submits: 0,
                    trace: Vec::new(),
                }
            }

            fn ensure(&self, holds: bool, what: &str) {
                assert!(holds, "{what}, after {:?}", self.trace);
            }

            /// Sends a transition's wake-up: the parked solver becomes
            /// ready; every sleeping waiter re-polls.
            fn wake(&mut self, wake: Wake) {
                match wake {
                    Wake::Solver if self.solver == Solver::Parked => self.solver = Solver::Ready,
                    Wake::Solver => {}
                    Wake::Waiters => {
                        for (i, answer) in self.answers.iter_mut().enumerate() {
                            if answer.is_none() {
                                *answer = self.q.poll(i as u64 + 1);
                            }
                        }
                    }
                }
            }

            fn allows(&self, event: Event, max_submits: usize) -> bool {
                match event {
                    Event::Submit(_) => self.submits < max_submits,
                    Event::RequestRefresh => true,
                    Event::Shutdown => !self.q.status.shutdown,
                    Event::Crash => self.solver != Solver::Exited,
                }
            }

            fn event(&mut self, event: Event) {
                self.trace.push(Step::Event(event));
                self.events += 1;
                match event {
                    Event::Submit(kind) => {
                        self.submits += 1;
                        match self.q.submit(Vec::new()) {
                            Ok((epoch, wake)) => {
                                self.ensure(epoch == self.kinds.len() as u64 + 1, "epoch skipped");
                                self.kinds.push(kind);
                                // The waiter's first check, before it sleeps.
                                self.answers.push(self.q.poll(epoch));
                                self.wake(wake);
                            }
                            Err(e) => self.ensure(
                                self.q.status.solver_exited
                                    && matches!(e, IngestError::SolverPanic(_)),
                                "a live solver refused an epoch",
                            ),
                        }
                    }
                    Event::RequestRefresh => {
                        self.refresh_owed = true;
                        let wake = self.q.request_refresh();
                        self.wake(wake);
                    }
                    Event::Shutdown => {
                        let wake = self.q.shutdown();
                        self.wake(wake);
                    }
                    Event::Crash => {
                        self.crashed = true;
                        self.exit();
                    }
                }
            }

            /// The exit guard's transition.
            fn exit(&mut self) {
                self.solver = Solver::Exited;
                let wake = self.q.solver_exit();
                self.wake(wake);
            }

            /// One step of `solver_loop`; `false` when it cannot move.
            fn solver_step(&mut self) -> bool {
                self.trace.push(Step::Solver(self.solver));
                match self.solver {
                    Solver::Parked | Solver::Exited => return false,
                    Solver::Ready => match self.q.take(self.refresh_wanted) {
                        None => self.solver = Solver::Parked,
                        Some(Job::Apply(epoch, _)) => self.solver = Solver::Applying(epoch),
                        Some(Job::Refresh(epoch, covers)) => {
                            self.ensure(self.refresh_owed, "a refresh ran with nothing to cover");
                            self.refresh_owed = false;
                            if covers > self.q.status.refresh_done {
                                self.covered.push((covers, self.refreshes + 1));
                            }
                            self.solver = Solver::Refreshing(epoch, covers);
                        }
                        Some(Job::Exit) => self.exit(),
                    },
                    Solver::Applying(epoch) => {
                        let kind = self.kinds[epoch as usize - 1];
                        let outcome = match kind {
                            Kind::Commit => Ok(IngestOutcome::default()),
                            Kind::Defer => Ok(IngestOutcome {
                                deferred_full: true,
                                ..IngestOutcome::default()
                            }),
                            Kind::Reject => Err(IngestError::InvalidBudget {
                                measure: 0,
                                budget: -1.0,
                            }),
                            Kind::Panic => Err(IngestError::SolverPanic("injected".into())),
                        };
                        if kind == Kind::Defer {
                            self.refresh_wanted = true;
                            self.refresh_owed = true;
                        }
                        let wake = self.q.finish_epoch(outcome, (epoch, self.refreshes));
                        self.solver = Solver::Ready;
                        self.wake(wake);
                    }
                    Solver::Refreshing(epoch, covers) => {
                        self.refreshes += 1;
                        self.refresh_wanted = false;
                        self.q.finish_refresh(covers, (epoch, self.refreshes));
                        self.solver = Solver::Ready;
                    }
                }
                true
            }

            /// Safety: what every reachable state satisfies.
            fn check(&self, before: &AsyncStatus) {
                let s = self.q.status;
                self.ensure(
                    s.submitted >= before.submitted
                        && s.committed >= before.committed
                        && s.refresh_requested >= before.refresh_requested
                        && s.refresh_done >= before.refresh_done,
                    "a counter went backwards",
                );
                self.ensure(s.committed <= s.submitted, "committed ahead of submitted");
                self.ensure(s.refresh_done <= s.refresh_requested, "refresh done ahead");
                let (snap_epoch, snap_refreshes) = self.q.snapshot;
                self.ensure(snap_epoch <= s.committed, "snapshot ahead of committed");
                for &(covers, n) in &self.covered {
                    self.ensure(
                        s.refresh_done < covers || snap_refreshes >= n,
                        "a refresh read done before its snapshot was published",
                    );
                }
                if let Solver::Applying(epoch) = self.solver {
                    self.ensure(s.in_flight == epoch, "in-flight epoch lost");
                } else if self.solver != Solver::Exited {
                    self.ensure(s.in_flight == 0, "in-flight epoch while idle");
                }
                for (i, answer) in self.answers.iter().enumerate() {
                    let epoch = i as u64 + 1;
                    let Some(answer) = answer else { continue };
                    let polled = self.q.poll(epoch);
                    if is_solver_panic(answer, SOLVER_EXITED) {
                        self.ensure(
                            s.solver_exited && epoch > s.committed,
                            "a finished epoch failed as unfinished",
                        );
                        continue;
                    }
                    self.ensure(
                        snap_epoch >= epoch,
                        "a waiter saw its epoch but not its snapshot",
                    );
                    let same = match (&polled, answer) {
                        (Some(Ok(now)), Ok(then)) => now == then,
                        (Some(Err(now)), Err(then)) => Arc::ptr_eq(now, then),
                        _ => false,
                    };
                    self.ensure(same, "an answer changed");
                    let expected = match self.kinds[i] {
                        Kind::Commit => matches!(answer, Ok(o) if !o.deferred_full),
                        Kind::Defer => matches!(answer, Ok(o) if o.deferred_full),
                        Kind::Reject => answer
                            .as_ref()
                            .is_err_and(|e| matches!(**e, IngestError::InvalidBudget { .. })),
                        Kind::Panic => is_solver_panic(answer, "injected"),
                    };
                    self.ensure(expected, "an epoch got another epoch's answer");
                }
            }

            /// Liveness, checked wherever the solver cannot move.
            fn check_quiescent(&self) {
                let s = self.q.status;
                self.ensure(
                    self.answers.iter().all(Option::is_some),
                    "a waiter sleeps forever",
                );
                match self.solver {
                    Solver::Parked => {
                        let mut probe = self.q.clone();
                        self.ensure(
                            probe.take(self.refresh_wanted).is_none(),
                            "the solver sleeps through work (a lost wake-up)",
                        );
                        self.ensure(
                            s.refresh_done == s.refresh_requested
                                && !self.refresh_wanted
                                && !self.refresh_owed,
                            "the solver idles with a refresh owed",
                        );
                    }
                    Solver::Exited if !self.crashed => self.ensure(
                        s.shutdown && self.q.queue.is_empty() && s.committed == s.submitted,
                        "shutdown left epochs undrained",
                    ),
                    _ => {}
                }
            }
        }

        fn is_solver_panic(
            answer: &Result<IngestOutcome, Arc<IngestError>>,
            message: &str,
        ) -> bool {
            matches!(answer, Err(e) if matches!(&**e, IngestError::SolverPanic(m) if m == message))
        }

        /// Explores every interleaving below `world`; returns how many
        /// complete ones (no step left) it found.
        fn explore(world: &World, max_events: usize, max_submits: usize) -> u64 {
            let before = world.q.status;
            let mut complete = 0;
            let mut moved = false;
            let mut next = world.clone();
            if next.solver_step() {
                next.check(&before);
                complete += explore(&next, max_events, max_submits);
                moved = true;
            } else {
                world.check_quiescent();
            }
            if world.events < max_events {
                for event in ALPHABET {
                    if world.allows(event, max_submits) {
                        let mut next = world.clone();
                        next.event(event);
                        next.check(&before);
                        complete += explore(&next, max_events, max_submits);
                        moved = true;
                    }
                }
            }
            complete + u64::from(!moved)
        }

        fn run(max_events: usize, max_submits: usize) -> u64 {
            let started = std::time::Instant::now();
            let interleavings = explore(&World::new(), max_events, max_submits);
            eprintln!(
                "{interleavings} interleavings of <= {max_events} events (<= {max_submits} \
                 submits) checked in {:.2?}",
                started.elapsed()
            );
            interleavings
        }

        #[test]
        fn every_short_interleaving_keeps_the_queue_invariants() {
            assert!(run(4, 2) > 0);
        }

        #[test]
        #[ignore = "the full bound; run in release"]
        fn every_interleaving_of_the_full_alphabet_keeps_the_queue_invariants() {
            assert!(run(6, 3) > 0);
        }
    }
}
