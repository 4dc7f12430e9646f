//! The traced run: one untraced and one traced session on the same seed,
//! each half the window (their difference is the tracing overhead), then
//! an in-process replay of every batch the traced session committed, with
//! a probe of every layer on each committed state, and an in-process
//! service twin fed the session's own requests. Everything is recorded as
//! spans; the per-layer metrics are computed from them.

use crate::metrics::PER_LAYER;
use crate::session::{self, kind, Session, KINDS};
use crate::stats::{median, tail};
use crate::trace::{self, durations_ms, layer_self_ms, Span, Tracer};
use crate::workload::Workload;
use mmd_core::algo::batch::solve_batch;
use mmd_core::algo::reduction::residual_fill;
use mmd_core::algo::shard::{
    build_shard_instance, shard_instance, shard_utility_bound, solve_sharded, split_budgets,
    super_partition, HierarchicalSharding, ShardConfig,
};
use mmd_core::{IngestEngine, IngestOutcome, Instance};
use mmd_serve::protocol::{parse_request, print_request, print_response};
use mmd_serve::{Request, Service};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Per-layer values keyed by metric name, plus the report text.
pub struct Traced {
    /// Every [`PER_LAYER`] metric.
    pub values: BTreeMap<&'static str, f64>,
    /// Frames attempted and failed in the traced session.
    pub attempted: u64,
    /// See [`Self::attempted`].
    pub failed: u64,
    /// The human-readable per-layer report.
    pub report: String,
    /// The span file, one JSON object per line.
    pub spans_jsonl: String,
}

/// Runs the traced invocation of `workload` at `seed`.
///
/// # Errors
///
/// Set-up failures and correctness-gate violations.
pub fn run(workload: Workload, seed: u64, window: Duration) -> Result<Traced, String> {
    let origin = Instant::now();
    // Two sessions share the window, so a traced run costs about as much
    // as an untraced one plus the replay.
    let half = (window / 2).max(Duration::from_secs(1));

    let (daemon, _) = session::setup(workload, seed)?;
    let (plain, service) = session::run(workload, seed, daemon, half, false)?;
    session::gate(service, plain.final_certificate)?;
    let (daemon, _) = session::setup(workload, seed)?;
    let (traced, service) = session::run(workload, seed, daemon, half, true)?;
    session::gate(service, traced.final_certificate)?;
    let shift = u64::try_from(traced.origin.duration_since(origin).as_nanos()).unwrap_or(u64::MAX);
    let mut spans: Vec<Span> = traced
        .spans
        .iter()
        .cloned()
        .map(|mut s| {
            s.start_ns += shift;
            s.end_ns += shift;
            s
        })
        .collect();

    let mut tracer = Tracer::new(true, origin);
    let replay = replay(workload, seed, &traced, &mut tracer)?;
    twin(workload, &replay.instance, &traced.requests, &mut tracer)?;
    spans = trace::merge(vec![spans, tracer.into_spans()]);

    let values = per_layer(workload, &plain, &traced, &replay, &spans)?;
    let report = report(workload, seed, &values, &spans, &plain, &traced);
    Ok(Traced {
        values,
        attempted: traced.attempted,
        failed: traced.failed,
        report,
        spans_jsonl: trace::to_jsonl(&spans),
    })
}

/// What the in-process replay observed.
struct Replay {
    /// The regenerated base instance (bit-identical to the daemon's).
    instance: Instance,
    /// The replayed batches' outcomes.
    outcomes: Vec<IngestOutcome>,
    /// Super-shards and skew ratio of the probed partition, per state.
    supers: Vec<f64>,
    skew: Vec<f64>,
    /// Lane bytes of the last committed instance.
    lane_bytes: usize,
}

/// Replays every batch the session committed through an in-process
/// [`IngestEngine`] (the committed states are bit-identical to the
/// daemon's, which is checked) and probes every layer on each state.
fn replay(
    workload: Workload,
    seed: u64,
    session: &Session,
    t: &mut Tracer,
) -> Result<Replay, String> {
    let (instance, updates) = t.time("workload.gen", 0, true, || {
        let instance = workload.instance(seed);
        let updates = workload.trace(&instance, seed);
        (instance, updates)
    });
    let config = workload.serve_config();
    let shard = config.ingest.shard;
    let mut engine = t
        .time("ingest.new", 0, true, || {
            IngestEngine::new(instance.clone(), config.ingest)
        })
        .map_err(|e| format!("replay engine: {e}"))?;

    let per_frame = workload.updates_per_frame();
    let per_batch = per_frame * workload.frames_per_apply();
    let batches = session.outcomes.len();
    let mut out = Replay {
        instance: instance.clone(),
        outcomes: Vec::new(),
        supers: Vec::new(),
        skew: Vec::new(),
        lane_bytes: 0,
    };
    for (b, batch) in updates.chunks(per_batch).take(batches).enumerate() {
        let epoch = b as u64 + 1;
        let snapshot = t.time("async.snapshot", epoch, true, || engine.snapshot(epoch - 1));
        let mut pending = Vec::new();
        for frame in batch.chunks(per_frame) {
            t.time("ingest.push", epoch, true, || {
                engine.push_batch(frame.iter().cloned())
            })
            .map_err(|e| format!("replay push: {e}"))?;
            pending.extend(frame.iter().cloned());
            t.time("online.admission", epoch, true, || {
                snapshot.provisional_admissions(&pending, config.online)
            })
            .map_err(|e| format!("replay admission: {e}"))?;
        }
        drop(snapshot);
        let outcome = t
            .time("ingest.apply", epoch, true, || engine.apply())
            .map_err(|e| format!("replay apply: {e}"))?;
        let daemon = &session.outcomes[b];
        if outcome.utility.to_bits() != daemon.utility.to_bits()
            || outcome.upper_bound.to_bits() != daemon.upper_bound.to_bits()
        {
            return Err(format!(
                "batch {epoch}: in-process replay diverged from the daemon's committed state"
            ));
        }
        out.outcomes.push(outcome);
        let (supers, skew) = probe_state(&engine, &shard, epoch, t)?;
        out.supers.push(supers);
        out.skew.push(skew);
    }
    out.lane_bytes = engine.current_instance().lane_bytes();
    Ok(out)
}

/// Probes every layer on the engine's committed state: partition,
/// hierarchy, bounds, water-fill, shard builds, the solve kernel at one and
/// two threads, the scratch solve, the residual fill and a rebuild of the
/// instance. Returns the probed partition's super-shard count and skew.
fn probe_state(
    engine: &IngestEngine,
    shard: &ShardConfig,
    epoch: u64,
    t: &mut Tracer,
) -> Result<(f64, f64), String> {
    let inst = engine.current_instance();
    let two_level = shard.super_shards > 1;
    let partition = t.time("shard.partition", epoch, true, || {
        if two_level {
            super_partition(inst, shard)
        } else {
            shard_instance(inst, shard.max_streams)
        }
    });
    let hierarchy = t.time("shard.hierarchy", epoch, true, || {
        HierarchicalSharding::new(inst, shard)
    });
    // The solve-level partition: the probed one in single-level mode; in
    // two-level mode the inner granularity over the whole instance.
    let flat = if two_level {
        t.time("shard.inner_partition", epoch, true, || {
            shard_instance(inst, shard.max_streams)
        })
    } else {
        partition.clone()
    };
    let bounds = t.time("shard.bound", epoch, true, || {
        let bounds: Vec<f64> = (0..flat.num_shards())
            .map(|k| shard_utility_bound(inst, &flat, k))
            .collect();
        std::hint::black_box(hierarchy.upper_bound(inst));
        bounds
    });
    let shares = t.time("shard.water_fill", epoch, true, || {
        split_budgets(inst, &flat, &bounds, shard.budget_slack)
    });
    let subs: Vec<Instance> = t.time("shard.build", epoch, true, || {
        flat.shards
            .iter()
            .zip(&shares)
            .enumerate()
            .map(|(k, (sh, share))| build_shard_instance(inst, sh, share, &format!("probe#{k}")))
            .collect()
    });
    let other = if shard.threads == 1 { 2 } else { 1 };
    let solved = t.time("algo.solve_batch", epoch, true, || {
        solve_batch(&subs, &shard.mmd, shard.threads)
    });
    let solved_other = t.time("par.solve_batch", epoch, true, || {
        solve_batch(&subs, &shard.mmd, other)
    });
    if solved.iter().any(Result::is_err) || solved_other.iter().any(Result::is_err) {
        return Err(format!("batch {epoch}: a probed shard solve failed"));
    }
    let scratch = t
        .time("algo.scratch_solve", epoch, true, || {
            solve_sharded(inst, shard)
        })
        .map_err(|e| format!("scratch solve: {e}"))?;
    if scratch.utility.to_bits() != engine.utility().to_bits() {
        return Err(format!(
            "batch {epoch}: committed utility is not bit-identical to a scratch solve"
        ));
    }
    let mut assignment = engine.assignment().clone();
    t.time("algo.residual_fill", epoch, true, || {
        residual_fill(inst, &mut assignment);
    });
    let rebuilt = t.time("instance.materialize", epoch, true, || materialize(inst));
    if rebuilt.lane_bytes() != inst.lane_bytes() {
        return Err(format!(
            "batch {epoch}: rebuilt instance differs in lane bytes"
        ));
    }
    let probed = if two_level {
        &hierarchy.supers
    } else {
        &partition
    };
    Ok((hierarchy.num_supers() as f64, probed.skew_ratio()))
}

/// Rebuilds `inst` through the validating [`mmd_core::InstanceBuilder`]:
/// what a full materialization of the committed model costs.
fn materialize(inst: &Instance) -> Instance {
    let mut b = Instance::builder(inst.name())
        .server_budgets(inst.budgets().to_vec())
        .lane_mode(inst.lane_mode());
    for s in inst.streams() {
        b.add_stream(inst.costs(s).to_vec());
    }
    for u in inst.users() {
        let spec = inst.user(u);
        b.add_user(spec.utility_cap(), spec.capacities().to_vec());
    }
    for u in inst.users() {
        for interest in inst.user(u).interests() {
            b.add_interest(
                u,
                interest.stream(),
                interest.utility(),
                interest.loads().to_vec(),
            )
            .expect("a committed instance's interests are valid");
        }
    }
    b.build().expect("a committed instance rebuilds")
}

/// Feeds the session's own request sequence to an in-process [`Service`]
/// with the daemon's configuration: `Service::handle` per request, and the
/// protocol layer's `parse_request` / `print_response` over the same
/// frames. The writer's frames go in up to the workload's twin-apply
/// budget, the reader's all of them. A read kind the session never sent
/// is handled once more at the end, so every kind in [`KINDS`] is timed.
fn twin(
    workload: Workload,
    instance: &Instance,
    requests: &[Request],
    t: &mut Tracer,
) -> Result<(), String> {
    let mut service = Service::new(instance.clone(), workload.serve_config())
        .map_err(|e| format!("twin service: {e}"))?;
    let mut applies = 0;
    let mut seen = BTreeSet::new();
    let fallback = [
        Request::QueryUser { user: 0 },
        Request::Certificate,
        Request::Metrics,
    ];
    for (seq, request) in requests.iter().chain(&fallback).enumerate() {
        let request_kind = kind(request);
        let writer = matches!(request, Request::Update { .. } | Request::Apply);
        if applies == workload.twin_applies() && writer
            || seq >= requests.len() && seen.contains(request_kind)
        {
            continue;
        }
        if matches!(request, Request::Apply) {
            applies += 1;
        }
        seen.insert(request_kind);
        let seq = seq as u64;
        let line = print_request(request);
        let parsed = t
            .time("protocol.parse", seq, true, || parse_request(&line))
            .map_err(|e| format!("twin parse: {e}"))?;
        let response = t.time(format!("service.handle.{request_kind}"), seq, true, || {
            service.handle(&parsed)
        });
        t.time("protocol.print", seq, true, || {
            std::hint::black_box(print_response(&response))
        });
    }
    service.handle(&Request::Shutdown);
    drop(service.into_engine());
    Ok(())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of `name`'s span durations in ms.
///
/// # Errors
///
/// No span of that name was recorded: the call was never measured.
fn span_ms(spans: &[Span], name: &str) -> Result<f64, String> {
    let d = durations_ms(spans, name);
    if d.is_empty() {
        Err(format!("the traced run recorded no {name} span"))
    } else {
        Ok(median(&d))
    }
}

/// The registered per-layer metric called `name`.
///
/// # Panics
///
/// `name` is not in [`PER_LAYER`].
fn registered(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|&&(n, _)| n == name)
        .unwrap_or_else(|| panic!("metric {name} is not registered"))
        .0
}

fn per_layer(
    workload: Workload,
    plain: &Session,
    traced: &Session,
    replay: &Replay,
    spans: &[Span],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let m = &traced.final_metrics;
    let outcomes = &replay.outcomes;
    let n = outcomes.len().max(1) as f64;

    v.insert("workload.gen_ms", span_ms(spans, "workload.gen")?);
    v.insert("ingest.new_ms", span_ms(spans, "ingest.new")?);
    let applies = durations_ms(spans, "ingest.apply");
    let apply_p50 = median(&applies);
    v.insert("ingest.apply_p50_ms", apply_p50);
    v.insert("ingest.apply_tail_ms", tail(&applies).value);
    let daemon_apply_ms = ratio(m.total_apply_micros as f64, m.applies as f64) / 1e3;
    v.insert("ingest.daemon_apply_ms", daemon_apply_ms);
    v.insert("ingest.push_us", span_ms(spans, "ingest.push")? * 1e3);
    let scratch_ms = span_ms(spans, "algo.scratch_solve")?;
    v.insert("ingest.scratch_ratio", ratio(scratch_ms, apply_p50));
    let resolved: usize = outcomes.iter().map(|o| o.resolved_shards).sum();
    let slots: usize = outcomes.iter().map(|o| o.num_shards).sum();
    v.insert(
        "ingest.resolved_shard_fraction",
        ratio(resolved as f64, slots as f64),
    );
    let full = outcomes.iter().filter(|o| o.full_resolve).count();
    v.insert("ingest.full_resolve_fraction", full as f64 / n);
    v.insert(
        "ingest.inner_cache_hit_ratio",
        ratio(
            m.inner_cache_hits as f64,
            (m.inner_cache_hits + m.inner_cache_misses) as f64,
        ),
    );

    v.insert("async.snapshot_ms", span_ms(spans, "async.snapshot")?);
    v.insert(
        "async.commit_wait_ms",
        median(&traced.commit_ms) - daemon_apply_ms,
    );
    v.insert("async.queue_lag_max", traced.queue_lag_max as f64);

    v.insert("shard.partition_ms", span_ms(spans, "shard.partition")?);
    v.insert("shard.hierarchy_ms", span_ms(spans, "shard.hierarchy")?);
    v.insert("shard.num_supers", median(&replay.supers));
    let shards: Vec<f64> = outcomes.iter().map(|o| o.num_shards as f64).collect();
    v.insert("shard.num_shards", median(&shards));
    v.insert("shard.skew_ratio", median(&replay.skew));
    v.insert("shard.bound_ms", span_ms(spans, "shard.bound")?);
    v.insert("shard.water_fill_ms", span_ms(spans, "shard.water_fill")?);
    v.insert("shard.build_ms", span_ms(spans, "shard.build")?);
    let cut: Vec<f64> = outcomes
        .iter()
        .map(|o| ratio(o.cut_mass, o.upper_bound))
        .collect();
    v.insert("shard.cut_mass_fraction", median(&cut));

    let solve_ms = span_ms(spans, "algo.solve_batch")?;
    let other_ms = span_ms(spans, "par.solve_batch")?;
    v.insert("algo.solve_batch_ms", solve_ms);
    v.insert("algo.scratch_solve_ms", scratch_ms);
    v.insert(
        "algo.residual_fill_ms",
        span_ms(spans, "algo.residual_fill")?,
    );
    let repaired: usize = outcomes.iter().map(|o| o.repaired_streams).sum();
    v.insert("algo.repaired_streams", repaired as f64 / n);
    let (one, two) = if workload.serve_config().ingest.shard.threads == 1 {
        (solve_ms, other_ms)
    } else {
        (other_ms, solve_ms)
    };
    v.insert("par.speedup", ratio(one, two));

    v.insert(
        "instance.materialize_ms",
        span_ms(spans, "instance.materialize")?,
    );
    v.insert("instance.lane_bytes", replay.lane_bytes as f64);
    v.insert(
        "online.admission_us",
        span_ms(spans, "online.admission")? * 1e3,
    );
    v.insert(
        "online.admit_ratio",
        ratio(m.admitted as f64, m.admission_checks as f64),
    );

    v.insert("protocol.parse_us", span_ms(spans, "protocol.parse")? * 1e3);
    v.insert("protocol.print_us", span_ms(spans, "protocol.print")? * 1e3);
    let mut handle_us = BTreeMap::new();
    for kind in KINDS {
        let us = span_ms(spans, &format!("service.handle.{kind}"))? * 1e3;
        v.insert(registered(&format!("service.handle_us.{kind}")), us);
        handle_us.insert(kind, us);
    }

    // Wire: every frame but `apply`, whose round trip is mostly the solve.
    let mut rtt = Vec::new();
    let mut overhead = Vec::new();
    for s in spans.iter().filter(|s| s.layer() == "wire") {
        let frame_kind = &s.name["wire.".len()..];
        if frame_kind == kind(&Request::Apply) {
            continue;
        }
        let handle = handle_us
            .get(frame_kind)
            .ok_or_else(|| format!("no service.handle span pairs with {}", s.name))?;
        rtt.push(s.ms() * 1e3);
        overhead.push(s.ms() * 1e3 - handle);
    }
    v.insert("wire.rtt_us", median(&rtt));
    v.insert("wire.overhead_us", median(&overhead));

    v.insert("server.overloaded", m.overloaded as f64);
    v.insert(
        "server.error_rate",
        ratio(traced.failed as f64, traced.attempted as f64),
    );
    let late: Vec<f64> = traced.reads.iter().map(|r| r.late() * 1e3).collect();
    v.insert("loadgen.late_ms", tail(&late).value);

    v.insert(
        "trace.overhead_commit_p50_ms",
        median(&traced.commit_ms) - median(&plain.commit_ms),
    );
    let read_p50 = |s: &Session| {
        median(
            &s.reads
                .iter()
                .map(|r| r.latency() * 1e6)
                .collect::<Vec<_>>(),
        )
    };
    v.insert(
        "trace.overhead_read_p50_us",
        read_p50(traced) - read_p50(plain),
    );

    let layers = layer_self_ms(spans);
    for &(name, _) in PER_LAYER {
        if let Some(layer) = name.strip_prefix("self_ms.") {
            v.insert(name, layers.get(layer).map_or(0.0, |&(ms, _)| ms));
        }
    }
    Ok(v)
}

/// The per-layer report: self times and span counts per layer, every
/// per-layer metric, the tracing overhead, and the sizing observations the
/// run reproduces.
fn report(
    workload: Workload,
    seed: u64,
    values: &BTreeMap<&'static str, f64>,
    spans: &[Span],
    plain: &Session,
    traced: &Session,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "servebench traced run: {} seed {seed}",
        workload.name()
    );
    let _ = writeln!(
        out,
        "sessions: {} batches untraced, {} traced; {} spans ({} probes)",
        plain.outcomes.len(),
        traced.outcomes.len(),
        spans.len(),
        spans.iter().filter(|s| s.probe).count()
    );
    let _ = writeln!(out, "\nlayer self time");
    let _ = writeln!(out, "{:<10} {:>12} {:>8}", "layer", "self_ms", "spans");
    for (layer, (ms, count)) in layer_self_ms(spans) {
        let _ = writeln!(out, "{layer:<10} {ms:>12.3} {count:>8}");
    }
    let _ = writeln!(out, "\nper-layer metrics");
    for &(name, unit) in PER_LAYER {
        let _ = writeln!(out, "{name:<32} {:>14.4} {unit}", values[name]);
    }
    let _ = writeln!(
        out,
        "ingest.apply_tail_ms is {}",
        tail(&durations_ms(spans, "ingest.apply")).describe()
    );
    let _ = writeln!(out, "\ntracing overhead (traced minus untraced, same seed)");
    for name in ["trace.overhead_commit_p50_ms", "trace.overhead_read_p50_us"] {
        let _ = writeln!(out, "{name:<32} {:>14.4}", values[name]);
    }
    let _ = writeln!(out, "\nsizing observations");
    let scratch_ratio = values["ingest.scratch_ratio"];
    if workload == Workload::WebDrift && scratch_ratio < 1.0 {
        let _ = writeln!(
            out,
            "reproduced: incremental apply is slower than a scratch solve \
             (ingest.scratch_ratio = {scratch_ratio:.3} < 1)"
        );
    }
    let overhead_ms = values["wire.overhead_us"] / 1e3;
    if (30.0..60.0).contains(&overhead_ms) {
        let _ = writeln!(
            out,
            "reproduced: each WireClient frame stalls ≈ 43 ms on loopback \
             (wire.overhead_us = {overhead_ms:.1} ms; the request line and its \
             newline go out in two writes and Nagle holds the second until the \
             delayed ACK)"
        );
    }
    out
}
