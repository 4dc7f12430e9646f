//! One serving session: set up an in-process `mmd-serve` daemon on
//! loopback, drive it with a closed-loop writer and an open-loop reader
//! for the window, then shut it down and run the correctness gate.

use crate::stats::{run_open_loop, OpenSample, WallClock};
use crate::trace::{merge, Span, Tracer};
use crate::workload::{Workload, READ_RATE};
use mmd_core::algo::shard::solve_sharded;
use mmd_core::ingest::Update;
use mmd_serve::protocol::WireOutcome;
use mmd_serve::service::peak_rss_bytes;
use mmd_serve::WireClient;
use mmd_serve::{server, MetricsSnapshot, Request, Response, ServeConfig, ServerHandle, Service};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// A listening daemon plus the update trace its writer will send.
pub struct Daemon {
    /// The running server.
    pub handle: ServerHandle,
    /// The writer's update trace.
    pub updates: Vec<Update>,
    /// Users and streams of the served instance (the reader's id ranges).
    pub num_users: usize,
    /// See [`Self::num_users`].
    pub num_streams: usize,
}

/// Generates the workload's inputs, solves the initial state
/// (`Service::new`) and spawns the daemon on an ephemeral loopback port.
/// Returns the daemon and the set-up time in seconds.
///
/// # Errors
///
/// Initial-solve and bind failures.
pub fn setup(workload: Workload, seed: u64) -> Result<(Daemon, f64), String> {
    let started = Instant::now();
    let instance = workload.instance(seed);
    let updates = workload.trace(&instance, seed);
    let (num_users, num_streams) = (instance.num_users(), instance.num_streams());
    let service = Service::new(instance, workload.serve_config())
        .map_err(|e| format!("initial solve failed: {e}"))?;
    let handle = server::spawn(service, "127.0.0.1:0").map_err(|e| format!("bind failed: {e}"))?;
    let setup_s = started.elapsed().as_secs_f64();
    Ok((
        Daemon {
            handle,
            updates,
            num_users,
            num_streams,
        },
        setup_s,
    ))
}

/// Stops a daemon that served no traffic and waits for its threads.
pub fn discard(daemon: Daemon) {
    daemon.handle.shutdown();
    drop(daemon.handle.join().into_engine());
}

/// What one session measured.
pub struct Session {
    /// Writer latency per batch, first `update` sent to `applied`, ms.
    pub commit_ms: Vec<f64>,
    /// Round trip of each `update` frame, µs.
    pub push_us: Vec<f64>,
    /// Reader requests, timed from their due time.
    pub reads: Vec<OpenSample>,
    /// Frames sent inside the window, both connections.
    pub attempted: u64,
    /// Frames answered with an error, bounced or lost in transport.
    pub failed: u64,
    /// Frames that got a response line.
    pub answered: u64,
    /// Updates committed by the writer.
    pub updates_committed: usize,
    /// The `applied` outcome of every committed batch, in order.
    pub outcomes: Vec<WireOutcome>,
    /// Writer's closed-loop time, s.
    pub writer_s: f64,
    /// Window length: until both connections stopped, s.
    pub elapsed_s: f64,
    /// `(utility, upper_bound, gap_fraction)` of the daemon's initial
    /// solve, read over the wire before the window opens.
    pub initial_certificate: (f64, f64, f64),
    /// The daemon's `metrics` frame after the window.
    pub final_metrics: MetricsSnapshot,
    /// Largest `apply_queue_lag` seen by the reader's `metrics` frames and
    /// the closing `health` frame.
    pub queue_lag_max: u64,
    /// Peak RSS of this process at the end of the window, MiB.
    pub peak_rss_mb: f64,
    /// Spans (empty unless traced).
    pub spans: Vec<Span>,
    /// Every request sent, ordered by send time (empty unless traced).
    pub requests: Vec<Request>,
    /// The committed instance's final certificate, checked by the gate.
    pub final_certificate: (f64, f64),
    /// Start of the window; span times count from it.
    pub origin: Instant,
}

/// The reader's request mix: 70% user queries, 10% stream queries, 15%
/// `certificate`, 5% `metrics`.
fn read_request(rng: &mut StdRng, num_users: usize, num_streams: usize) -> Request {
    let roll = rng.gen_range(0..100);
    if roll < 70 {
        Request::QueryUser {
            user: rng.gen_range(0..num_users),
        }
    } else if roll < 80 {
        Request::QueryStream {
            stream: rng.gen_range(0..num_streams),
        }
    } else if roll < 95 {
        Request::Certificate
    } else {
        Request::Metrics
    }
}

/// The request kinds the benchmark times. The `wire.<kind>` and
/// `service.handle.<kind>` spans and the `service.handle_us.<kind>`
/// metrics are all named from these.
pub const KINDS: [&str; 5] = ["update", "apply", "query", "certificate", "metrics"];

/// A request's kind, one of [`KINDS`] for every request the session sends.
#[must_use]
pub fn kind(request: &Request) -> &'static str {
    match request {
        Request::Update { .. } => "update",
        Request::Apply => "apply",
        Request::QueryUser { .. } | Request::QueryStream { .. } => "query",
        Request::Certificate => "certificate",
        Request::Metrics => "metrics",
        _ => "other",
    }
}

/// Per-connection tallies.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    answered: u64,
}

impl Tally {
    /// Counts one frame's fate and returns the response if it was not an
    /// error frame.
    fn count(&mut self, result: Result<Response, mmd_serve::ClientError>) -> Option<Response> {
        self.attempted += 1;
        match result {
            Ok(Response::Error { .. }) => {
                self.answered += 1;
                self.failed += 1;
                None
            }
            Ok(response) => {
                self.answered += 1;
                Some(response)
            }
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }
}

fn nanos_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Drives the daemon for `window` and shuts it down. The writer runs on
/// the calling thread, the reader on one more; each has its own
/// connection.
///
/// # Errors
///
/// Connect failures and a daemon that does not answer the closing frames.
pub fn run(
    workload: Workload,
    seed: u64,
    daemon: Daemon,
    window: Duration,
    traced: bool,
) -> Result<(Session, Service), String> {
    let addr = daemon.handle.addr();
    let mut writer = WireClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut reader = WireClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let per_frame = workload.updates_per_frame();
    let per_batch = per_frame * workload.frames_per_apply();
    let (num_users, num_streams) = (daemon.num_users, daemon.num_streams);
    let updates = &daemon.updates;
    let initial_certificate = writer
        .certificate()
        .map_err(|e| format!("initial certificate: {e}"))?;

    let origin = Instant::now();
    let (writer_part, reader_part) = std::thread::scope(|scope| {
        let reader_thread = scope.spawn(move || {
            let mut tracer = Tracer::new(traced, origin);
            let mut tally = Tally::default();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xd1b5_4a32_d192_ed03);
            let mut lag_max = 0u64;
            let mut log = Vec::new();
            let mut clock = WallClock(origin);
            let reads = run_open_loop(
                &mut clock,
                1.0 / READ_RATE,
                window.as_secs_f64(),
                |_, seq| {
                    let request = read_request(&mut rng, num_users, num_streams);
                    if traced {
                        log.push((nanos_since(origin), request.clone()));
                    }
                    let span = tracer.begin(format!("wire.{}", kind(&request)), seq, false);
                    let result = reader.request(&request);
                    tracer.end(span);
                    if let Some(Response::Metrics(m)) = tally.count(result) {
                        lag_max = lag_max.max(m.apply_queue_lag);
                    }
                },
            );
            (reads, tally, lag_max, tracer.into_spans(), log, reader)
        });

        let mut tracer = Tracer::new(traced, origin);
        let mut tally = Tally::default();
        let mut log = Vec::new();
        let mut commit_ms = Vec::new();
        let mut push_us = Vec::new();
        let mut outcomes = Vec::new();
        let mut cursor = 0usize;
        while cursor + per_batch <= updates.len() && origin.elapsed() < window {
            let epoch = outcomes.len() as u64 + 1;
            let commit_span = tracer.begin("loadgen.commit", epoch, false);
            let started = Instant::now();
            for frame in updates[cursor..cursor + per_batch].chunks(per_frame) {
                let request = Request::Update {
                    updates: frame.to_vec(),
                    admit: true,
                };
                if traced {
                    log.push((nanos_since(origin), request.clone()));
                }
                let name = format!("wire.{}", kind(&request));
                let sent = Instant::now();
                let span = tracer.begin(name, epoch, false);
                let result = writer.request(&request);
                tracer.end(span);
                push_us.push(sent.elapsed().as_secs_f64() * 1e6);
                tally.count(result);
            }
            cursor += per_batch;
            let apply = Request::Apply;
            if traced {
                log.push((nanos_since(origin), apply.clone()));
            }
            let span = tracer.begin(format!("wire.{}", kind(&apply)), epoch, false);
            let result = writer.request(&apply);
            tracer.end(span);
            if let Some(Response::Applied { outcome }) = tally.count(result) {
                outcomes.push(outcome);
            }
            commit_ms.push(started.elapsed().as_secs_f64() * 1e3);
            tracer.end(commit_span);
        }
        let writer_s = origin.elapsed().as_secs_f64();
        let reader_part = reader_thread.join().expect("reader thread must not panic");
        (
            (
                tracer.into_spans(),
                tally,
                log,
                commit_ms,
                push_us,
                outcomes,
                writer_s,
            ),
            reader_part,
        )
    });
    let elapsed_s = origin.elapsed().as_secs_f64();
    let (w_spans, w_tally, w_log, commit_ms, push_us, outcomes, writer_s) = writer_part;
    let (reads, r_tally, r_lag, r_spans, r_log, reader_client) = reader_part;
    drop(reader_client);
    let peak_rss_mb = peak_rss_bytes() as f64 / (1024.0 * 1024.0);

    // Outside the window: the closing frames and the shutdown.
    let closing = |e: mmd_serve::ClientError| format!("closing frame failed: {e}");
    let (utility, upper_bound, _) = writer.certificate().map_err(closing)?;
    let final_metrics = writer.metrics().map_err(closing)?;
    let health = writer.health().map_err(closing)?;
    writer.shutdown().map_err(closing)?;
    drop(writer);
    let service = daemon.handle.join();

    let mut requests: Vec<(u64, Request)> = w_log.into_iter().chain(r_log).collect();
    requests.sort_by_key(|&(t, _)| t);
    let session = Session {
        commit_ms,
        push_us,
        reads,
        attempted: w_tally.attempted + r_tally.attempted,
        failed: w_tally.failed + r_tally.failed,
        answered: w_tally.answered + r_tally.answered,
        updates_committed: outcomes.iter().map(|o| o.updates_applied).sum(),
        outcomes,
        writer_s,
        elapsed_s,
        initial_certificate,
        final_metrics,
        queue_lag_max: r_lag.max(health.apply_queue_lag),
        peak_rss_mb,
        spans: merge(vec![w_spans, r_spans]),
        requests: requests.into_iter().map(|(_, r)| r).collect(),
        final_certificate: (utility, upper_bound),
        origin,
    };
    Ok((session, service))
}

/// The correctness gate, run after shutdown and outside the clock: the
/// daemon's final certificate must be bit-identical to a from-scratch
/// `solve_sharded` of the final instance under the workload's shard
/// configuration, the committed assignment must be feasible, and
/// `utility ≤ upper_bound`.
///
/// # Errors
///
/// A description of the first violation.
pub fn gate(service: Service, certificate: (f64, f64)) -> Result<(), String> {
    let config: ServeConfig = *service.config();
    let engine = service.into_engine();
    let instance = engine.current_instance();
    let scratch = solve_sharded(instance, &config.ingest.shard)
        .map_err(|e| format!("scratch solve failed: {e}"))?;
    let (utility, upper_bound) = certificate;
    if utility.to_bits() != scratch.utility.to_bits() {
        return Err(format!(
            "certificate utility {utility} is not bit-identical to scratch {}",
            scratch.utility
        ));
    }
    if upper_bound.to_bits() != scratch.upper_bound.to_bits() {
        return Err(format!(
            "certificate upper bound {upper_bound} is not bit-identical to scratch {}",
            scratch.upper_bound
        ));
    }
    if let Err(violations) = engine.assignment().check_feasible(instance) {
        return Err(format!(
            "committed assignment is infeasible: {} violations",
            violations.len()
        ));
    }
    if utility > upper_bound {
        return Err(format!(
            "utility {utility} exceeds upper bound {upper_bound}"
        ));
    }
    Ok(())
}
