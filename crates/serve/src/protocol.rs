//! The `mmd-serve` wire protocol: typed request/response frames and their
//! canonical JSON encoding.
//!
//! One frame per line, JSON-encoded, newline-terminated (NDJSON). Every
//! request is an object with an `"op"` discriminant; every response is an
//! object whose first key is `"ok"` — `true` with a `"kind"` discriminant,
//! or `false` with an error `"code"` and `"message"`. The full
//! specification, with an example of every frame, lives in
//! `docs/PROTOCOL.md`; `tests/protocol_doc.rs` round-trips each documented
//! example through [`parse_request`] / [`parse_response`] so the document
//! cannot drift from this module.
//!
//! JSON cannot represent `∞`, so unbounded values (`upper_bound` of an
//! unconstrained instance, an unconstrained budget) are encoded as `null`
//! — the same convention the instance file format uses.
//!
//! # Examples
//!
//! ```
//! use mmd_serve::protocol::{parse_request, print_request, Request};
//!
//! let line = r#"{"op":"update","updates":[{"kind":"depart","stream":3}]}"#;
//! let request = parse_request(line).unwrap();
//! assert!(matches!(&request, Request::Update { updates, .. } if updates.len() == 1));
//! // Printing is canonical: re-parsing yields the same frame.
//! assert_eq!(parse_request(&print_request(&request)).unwrap(), request);
//! ```

use mmd_core::ingest::Update;
use mmd_core::{StreamId, UserId};
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Machine-readable error class of an error frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON, or not a well-formed frame (unknown
    /// `op`/`kind`, missing or mistyped field).
    Parse,
    /// An update failed structural validation (unknown id, bad number) or
    /// the batch exceeded the server's frame limits. Nothing was enqueued.
    Invalid,
    /// A batch failed stateful validation at apply time (e.g. a budget
    /// below a live stream's cost). The committed state is unchanged and
    /// the pending queue has been discarded.
    Rejected,
    /// The server's bounded request queue is full — backpressure. The
    /// request changed nothing; retry after a delay.
    Overloaded,
    /// The server is shutting down and no longer processes requests.
    Unavailable,
    /// An internal solve or materialization failure.
    Internal,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::Invalid => "invalid",
            ErrorCode::Rejected => "rejected",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Unavailable => "unavailable",
            ErrorCode::Internal => "internal",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "parse" => ErrorCode::Parse,
            "invalid" => ErrorCode::Invalid,
            "rejected" => ErrorCode::Rejected,
            "overloaded" => ErrorCode::Overloaded,
            "unavailable" => ErrorCode::Unavailable,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A malformed frame, reported back to the client as an error frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameError {
    /// Error class (always [`ErrorCode::Parse`] from the frame parser).
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
}

impl FrameError {
    fn parse(message: impl Into<String>) -> Self {
        FrameError {
            code: ErrorCode::Parse,
            message: message.into(),
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for FrameError {}

/// One client request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `{"op":"update", "updates":[...], "admit":bool?}` — enqueue a typed
    /// update batch atomically; optionally return provisional admission
    /// verdicts for the pending arrivals.
    Update {
        /// The updates, applied in order at the next `apply`.
        updates: Vec<Update>,
        /// When `true`, the response carries provisional admission
        /// verdicts (§5 online allocator) for every pending arrival.
        admit: bool,
    },
    /// `{"op":"apply"}` — apply the pending batch, refresh the certificate.
    Apply,
    /// `{"op":"query","user":N}` — the user's committed allocation.
    QueryUser {
        /// User index.
        user: usize,
    },
    /// `{"op":"query","stream":N}` — the stream's committed receivers.
    QueryStream {
        /// Stream index.
        stream: usize,
    },
    /// `{"op":"allocation"}` — the full committed allocation.
    Allocation,
    /// `{"op":"certificate"}` — the committed certified bracket.
    Certificate,
    /// `{"op":"admissions"}` — provisional verdicts for pending arrivals.
    Admissions,
    /// `{"op":"health"}` — liveness and queue snapshot.
    Health,
    /// `{"op":"metrics"}` — machine-readable counters snapshot.
    Metrics,
    /// `{"op":"resolve"}` — schedule a graceful background full re-solve.
    Resolve,
    /// `{"op":"shutdown"}` — stop accepting connections, then drain.
    Shutdown,
}

/// One provisional admission verdict (the §5 online allocator's decision
/// for a pending arrival).
#[derive(Clone, Debug, PartialEq)]
pub struct Admission {
    /// The arriving stream.
    pub stream: usize,
    /// Whether the exponential-cost rule admitted it.
    pub admitted: bool,
    /// Users the stream was provisionally assigned to (empty = dropped).
    pub users: Vec<usize>,
    /// Raw utility the provisional assignment gained.
    pub gained: f64,
}

/// The applied batch's outcome — the wire mirror of
/// [`mmd_core::IngestOutcome`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireOutcome {
    /// Updates applied in the batch.
    pub updates_applied: usize,
    /// Shards of the refreshed partition.
    pub num_shards: usize,
    /// Shards the batch dirtied.
    pub dirty_shards: usize,
    /// Shards actually re-solved.
    pub resolved_shards: usize,
    /// Whether a re-shard trigger escalated to a full re-solve.
    pub full_resolve: bool,
    /// Certified lower bound (committed utility).
    pub utility: f64,
    /// Certified upper bound on the optimum (`∞` encodes as `null`).
    pub upper_bound: f64,
    /// Relative certified gap in `[0, 1]`.
    pub gap_fraction: f64,
    /// Interests cut by the size-capped partitioner.
    pub cut_edges: usize,
    /// Total utility of the cut interests.
    pub cut_mass: f64,
    /// Streams dropped by the global budget repair pass.
    pub repaired_streams: usize,
}

impl From<mmd_core::IngestOutcome> for WireOutcome {
    fn from(o: mmd_core::IngestOutcome) -> Self {
        WireOutcome {
            updates_applied: o.updates_applied,
            num_shards: o.num_shards,
            dirty_shards: o.dirty_shards,
            resolved_shards: o.resolved_shards,
            full_resolve: o.full_resolve,
            utility: o.utility,
            upper_bound: o.upper_bound,
            gap_fraction: o.gap_fraction,
            cut_edges: o.cut_edges,
            cut_mass: o.cut_mass,
            repaired_streams: o.repaired_streams,
        }
    }
}

/// The `health` response body. Stable-keyed: serialization emits the
/// fields in declaration order, always all of them.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthSnapshot {
    /// `"ok"` while serving, `"draining"` once shutdown is underway.
    pub status: String,
    /// Currently live streams of the committed model.
    pub live_streams: usize,
    /// Streams in the universe (live or departed).
    pub num_streams: usize,
    /// Users in the universe.
    pub num_users: usize,
    /// Updates enqueued but not yet applied.
    pub pending_updates: usize,
    /// Sequenced requests waiting for the service's pending-batch lock or
    /// holding it.
    pub queue_depth: usize,
    /// Capacity of the bounded request queue.
    pub queue_capacity: usize,
    /// Whether a requested background full re-solve has not finished yet.
    pub full_resolve_scheduled: bool,
    /// Apply epochs submitted but not yet committed.
    pub apply_queue_lag: u64,
    /// The epoch currently applying on the solver thread (0 = none).
    pub epoch_in_flight: u64,
}

/// The `metrics` response body: engine counters, serving counters and the
/// committed certificate, flattened into one stable-keyed object.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Successfully applied batches (engine).
    pub applies: u64,
    /// Updates committed across all applies (engine).
    pub updates_applied: u64,
    /// Applies escalated to a full re-solve (engine).
    pub full_resolves: u64,
    /// Shards re-solved across all applies (engine).
    pub resolved_shards: u64,
    /// Shard-batch slots across all applies (engine).
    pub shard_slots: u64,
    /// Lifetime `resolved_shards / shard_slots` (0 before any apply).
    pub dirty_fraction: f64,
    /// Configured super-shard fan-out (`0` or `1` = single-level engine).
    pub super_shards: u64,
    /// Lifetime `resolved_supers / super_slots` (0 before any two-level
    /// apply, and always 0 in single-level mode).
    pub dirty_super_fraction: f64,
    /// Inner shard solves reused from the two-level cache (engine).
    pub inner_cache_hits: u64,
    /// Inner shard solves that missed the two-level cache and ran (engine).
    pub inner_cache_misses: u64,
    /// Apply calls that were rejected, committed state untouched (engine).
    pub rejected_batches: u64,
    /// Updates rejected by structural validation (engine).
    pub rejected_updates: u64,
    /// Wall-clock microseconds of the most recent apply (gauge).
    pub last_apply_micros: u64,
    /// Wall-clock microseconds summed over all applies.
    pub total_apply_micros: u64,
    /// Request frames handled by the service (not bounced by
    /// backpressure).
    pub requests: u64,
    /// Lines rejected before reaching the service (parse errors, overlong
    /// lines).
    pub frames_rejected: u64,
    /// Requests bounced by backpressure (queue full).
    pub overloaded: u64,
    /// Provisional admission checks run.
    pub admission_checks: u64,
    /// Pending arrivals provisionally admitted.
    pub admitted: u64,
    /// Pending arrivals provisionally dropped.
    pub admission_rejects: u64,
    /// Sequenced requests waiting for the pending-batch lock or holding
    /// it (gauge).
    pub queue_depth: usize,
    /// Capacity of the bounded request queue.
    pub queue_capacity: usize,
    /// Committed certified lower bound.
    pub utility: f64,
    /// Committed certified upper bound (`∞` encodes as `null`).
    pub upper_bound: f64,
    /// Committed relative certified gap in `[0, 1]`.
    pub gap_fraction: f64,
    /// Worker threads of the process-wide solve pool.
    pub pool_workers: u64,
    /// Batches queued or executing in the solve pool (gauge).
    pub pool_depth: u64,
    /// Apply epochs submitted but not yet committed.
    pub apply_queue_lag: u64,
    /// Last apply epoch handed out.
    pub epoch_submitted: u64,
    /// Last apply epoch committed by the solver thread.
    pub epoch_committed: u64,
    /// The epoch currently applying on the solver thread (0 = none).
    pub epoch_in_flight: u64,
    /// Instance lane layout of the committed model: `"exact"` (bit-exact
    /// `f64` lanes) or `"compact"` (quantized `u32`/`f32` lanes).
    pub lane_mode: String,
    /// Peak resident set size of the serving process in bytes (`VmHWM`;
    /// 0 where the platform does not expose it).
    pub peak_rss_bytes: u64,
    /// Applies whose soft solve budget tripped (engine).
    pub budget_soft_trips: u64,
    /// Applies whose hard solve budget tripped (engine).
    pub budget_hard_trips: u64,
    /// Applies that committed (or shed) with degraded quality (engine).
    pub degraded_applies: u64,
    /// Fraction of the committed upper bound attributable to skipped
    /// (stale) shards, in `[0, 1]` (gauge; 0 when nothing is stale).
    pub stale_gap_fraction: f64,
    /// Escalated full re-solves deferred to background maintenance
    /// (engine).
    pub deferred_full_resolves: u64,
}

/// One server response frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// `{"ok":false,"code":...,"message":...}`.
    Error {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
    /// Reply to `update`: batch enqueued.
    Pushed {
        /// Updates now pending (including earlier frames).
        pending: usize,
        /// Provisional admission verdicts, when `admit` was requested.
        admissions: Option<Vec<Admission>>,
    },
    /// Reply to `apply`: the refreshed certificate and work counters.
    Applied {
        /// The applied batch's outcome.
        outcome: WireOutcome,
    },
    /// Reply to `certificate`.
    Certificate {
        /// Certified lower bound (committed utility).
        utility: f64,
        /// Certified upper bound (`∞` encodes as `null`).
        upper_bound: f64,
        /// Relative certified gap in `[0, 1]`.
        gap_fraction: f64,
    },
    /// Reply to `query` by user.
    UserAllocation {
        /// The queried user.
        user: usize,
        /// Streams the user currently receives.
        streams: Vec<usize>,
        /// The user's capped utility under the committed assignment.
        utility: f64,
    },
    /// Reply to `query` by stream.
    StreamAllocation {
        /// The queried stream.
        stream: usize,
        /// Whether the stream is transmitted (in the committed range).
        live: bool,
        /// Users currently receiving it.
        users: Vec<usize>,
    },
    /// Reply to `allocation`: the full committed assignment.
    Allocation {
        /// Committed capped utility.
        utility: f64,
        /// Per-user stream lists, indexed by user id.
        users: Vec<Vec<usize>>,
    },
    /// Reply to `admissions`.
    Admissions {
        /// One verdict per pending arrival, in queue order.
        admissions: Vec<Admission>,
    },
    /// Reply to `health`.
    Health(HealthSnapshot),
    /// Reply to `metrics`.
    Metrics(Box<MetricsSnapshot>),
    /// Reply to `resolve`.
    Resolve {
        /// Whether a background full re-solve is now scheduled.
        scheduled: bool,
    },
    /// Reply to `shutdown`.
    Shutdown,
}

// ---------------------------------------------------------------------------
// Value construction helpers
// ---------------------------------------------------------------------------

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn idx(n: usize) -> Value {
    Value::Number(n as f64)
}

fn count(n: u64) -> Value {
    Value::Number(n as f64)
}

/// `∞` encodes as `null` (JSON has no infinity).
fn bound(x: f64) -> Value {
    if x.is_finite() {
        Value::Number(x)
    } else {
        Value::Null
    }
}

fn indices(xs: &[usize]) -> Value {
    Value::Array(xs.iter().map(|&x| idx(x)).collect())
}

// ---------------------------------------------------------------------------
// Value extraction helpers
// ---------------------------------------------------------------------------

fn need<'v>(value: &'v Value, key: &str) -> Result<&'v Value, FrameError> {
    value
        .get(key)
        .ok_or_else(|| FrameError::parse(format!("missing field `{key}`")))
}

fn need_index(value: &Value, key: &str) -> Result<usize, FrameError> {
    usize::from_value(need(value, key)?)
        .map_err(|e| FrameError::parse(format!("field `{key}`: {e}")))
}

fn need_f64(value: &Value, key: &str) -> Result<f64, FrameError> {
    f64::from_value(need(value, key)?).map_err(|e| FrameError::parse(format!("field `{key}`: {e}")))
}

fn need_bool(value: &Value, key: &str) -> Result<bool, FrameError> {
    bool::from_value(need(value, key)?)
        .map_err(|e| FrameError::parse(format!("field `{key}`: {e}")))
}

fn need_str<'v>(value: &'v Value, key: &str) -> Result<&'v str, FrameError> {
    match need(value, key)? {
        Value::String(s) => Ok(s),
        other => Err(FrameError::parse(format!(
            "field `{key}`: expected string, found {}",
            other.kind()
        ))),
    }
}

/// `null` decodes as `∞` where the spec allows an unbounded value.
fn need_bound(value: &Value, key: &str) -> Result<f64, FrameError> {
    match need(value, key)? {
        Value::Null => Ok(f64::INFINITY),
        Value::Number(x) => Ok(*x),
        other => Err(FrameError::parse(format!(
            "field `{key}`: expected number or null, found {}",
            other.kind()
        ))),
    }
}

fn need_indices(value: &Value, key: &str) -> Result<Vec<usize>, FrameError> {
    Vec::<usize>::from_value(need(value, key)?)
        .map_err(|e| FrameError::parse(format!("field `{key}`: {e}")))
}

// ---------------------------------------------------------------------------
// Updates
// ---------------------------------------------------------------------------

/// Converts one update to its wire object.
pub fn update_to_value(update: &Update) -> Value {
    match *update {
        Update::StreamArrival(s) => obj(vec![
            ("kind", Value::String("arrive".into())),
            ("stream", idx(s.index())),
        ]),
        Update::StreamDeparture(s) => obj(vec![
            ("kind", Value::String("depart".into())),
            ("stream", idx(s.index())),
        ]),
        Update::InterestChange {
            user,
            stream,
            weight,
        } => obj(vec![
            ("kind", Value::String("interest".into())),
            ("user", idx(user.index())),
            ("stream", idx(stream.index())),
            ("weight", Value::Number(weight)),
        ]),
        Update::BudgetChange { measure, budget } => obj(vec![
            ("kind", Value::String("budget".into())),
            ("measure", idx(measure)),
            ("budget", bound(budget)),
        ]),
    }
}

/// Parses one update object.
///
/// # Errors
///
/// Returns [`FrameError`] on an unknown `kind` or missing/mistyped field.
pub fn update_from_value(value: &Value) -> Result<Update, FrameError> {
    match need_str(value, "kind")? {
        "arrive" => Ok(Update::StreamArrival(StreamId::new(need_index(
            value, "stream",
        )?))),
        "depart" => Ok(Update::StreamDeparture(StreamId::new(need_index(
            value, "stream",
        )?))),
        "interest" => Ok(Update::InterestChange {
            user: UserId::new(need_index(value, "user")?),
            stream: StreamId::new(need_index(value, "stream")?),
            weight: need_f64(value, "weight")?,
        }),
        "budget" => Ok(Update::BudgetChange {
            measure: need_index(value, "measure")?,
            budget: need_bound(value, "budget")?,
        }),
        other => Err(FrameError::parse(format!("unknown update kind `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Converts a request to its canonical wire object.
pub fn request_to_value(request: &Request) -> Value {
    let op = |name: &str| ("op", Value::String(name.into()));
    match request {
        Request::Update { updates, admit } => {
            let mut entries = vec![
                op("update"),
                (
                    "updates",
                    Value::Array(updates.iter().map(update_to_value).collect()),
                ),
            ];
            if *admit {
                entries.push(("admit", Value::Bool(true)));
            }
            obj(entries)
        }
        Request::Apply => obj(vec![op("apply")]),
        Request::QueryUser { user } => obj(vec![op("query"), ("user", idx(*user))]),
        Request::QueryStream { stream } => obj(vec![op("query"), ("stream", idx(*stream))]),
        Request::Allocation => obj(vec![op("allocation")]),
        Request::Certificate => obj(vec![op("certificate")]),
        Request::Admissions => obj(vec![op("admissions")]),
        Request::Health => obj(vec![op("health")]),
        Request::Metrics => obj(vec![op("metrics")]),
        Request::Resolve => obj(vec![op("resolve")]),
        Request::Shutdown => obj(vec![op("shutdown")]),
    }
}

/// Prints a request as one canonical NDJSON line (no trailing newline).
pub fn print_request(request: &Request) -> String {
    serde_json::to_string(&request_to_value(request)).expect("request frames are finite")
}

/// The longest update object [`print_request`] emits, rounded up: an
/// `interest` update whose ids print as `1.8446744073709552e19` and whose
/// weight prints as `-2.2250738585072014e-308` is 113 bytes.
const MAX_UPDATE_BYTES: usize = 128;

/// The `update` frame's envelope, rounded up:
/// `{"op":"update","updates":[` … `],"admit":true}` is 41 bytes.
const ENVELOPE_BYTES: usize = 64;

/// The longest request line the daemon reads when `update` frames carry
/// at most `max_batch` updates: twice the longest canonical frame
/// (`max_batch` longest updates with separators, plus the envelope), so
/// non-canonical spacing fits too. A longer line is answered with a
/// `parse` error frame and its connection is closed.
#[must_use]
pub fn max_request_line(max_batch: usize) -> usize {
    max_batch
        .saturating_mul(MAX_UPDATE_BYTES + 1)
        .saturating_add(ENVELOPE_BYTES)
        .saturating_mul(2)
}

/// Parses one request line.
///
/// # Errors
///
/// Returns [`FrameError`] (code `parse`) on malformed JSON, an unknown
/// `op`, or a missing/mistyped field.
pub fn parse_request(line: &str) -> Result<Request, FrameError> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| FrameError::parse(format!("bad json: {e}")))?;
    request_from_value(&value)
}

/// Parses a request from an already-decoded value tree.
///
/// # Errors
///
/// See [`parse_request`].
pub fn request_from_value(value: &Value) -> Result<Request, FrameError> {
    match need_str(value, "op")? {
        "update" => {
            let items = match need(value, "updates")? {
                Value::Array(items) => items,
                other => {
                    return Err(FrameError::parse(format!(
                        "field `updates`: expected array, found {}",
                        other.kind()
                    )))
                }
            };
            let updates = items
                .iter()
                .map(update_from_value)
                .collect::<Result<Vec<_>, _>>()?;
            let admit = match value.get("admit") {
                None | Some(Value::Null) => false,
                Some(v) => bool::from_value(v)
                    .map_err(|e| FrameError::parse(format!("field `admit`: {e}")))?,
            };
            Ok(Request::Update { updates, admit })
        }
        "apply" => Ok(Request::Apply),
        "query" => match (value.get("user"), value.get("stream")) {
            (Some(_), None) => Ok(Request::QueryUser {
                user: need_index(value, "user")?,
            }),
            (None, Some(_)) => Ok(Request::QueryStream {
                stream: need_index(value, "stream")?,
            }),
            _ => Err(FrameError::parse(
                "query needs exactly one of `user` or `stream`",
            )),
        },
        "allocation" => Ok(Request::Allocation),
        "certificate" => Ok(Request::Certificate),
        "admissions" => Ok(Request::Admissions),
        "health" => Ok(Request::Health),
        "metrics" => Ok(Request::Metrics),
        "resolve" => Ok(Request::Resolve),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(FrameError::parse(format!("unknown op `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

fn admission_to_value(a: &Admission) -> Value {
    obj(vec![
        ("stream", idx(a.stream)),
        ("admitted", Value::Bool(a.admitted)),
        ("users", indices(&a.users)),
        ("gained", Value::Number(a.gained)),
    ])
}

fn admission_from_value(value: &Value) -> Result<Admission, FrameError> {
    Ok(Admission {
        stream: need_index(value, "stream")?,
        admitted: need_bool(value, "admitted")?,
        users: need_indices(value, "users")?,
        gained: need_f64(value, "gained")?,
    })
}

fn outcome_to_value(o: &WireOutcome) -> Value {
    obj(vec![
        ("updates_applied", idx(o.updates_applied)),
        ("num_shards", idx(o.num_shards)),
        ("dirty_shards", idx(o.dirty_shards)),
        ("resolved_shards", idx(o.resolved_shards)),
        ("full_resolve", Value::Bool(o.full_resolve)),
        ("utility", Value::Number(o.utility)),
        ("upper_bound", bound(o.upper_bound)),
        ("gap_fraction", Value::Number(o.gap_fraction)),
        ("cut_edges", idx(o.cut_edges)),
        ("cut_mass", Value::Number(o.cut_mass)),
        ("repaired_streams", idx(o.repaired_streams)),
    ])
}

fn outcome_from_value(value: &Value) -> Result<WireOutcome, FrameError> {
    Ok(WireOutcome {
        updates_applied: need_index(value, "updates_applied")?,
        num_shards: need_index(value, "num_shards")?,
        dirty_shards: need_index(value, "dirty_shards")?,
        resolved_shards: need_index(value, "resolved_shards")?,
        full_resolve: need_bool(value, "full_resolve")?,
        utility: need_f64(value, "utility")?,
        upper_bound: need_bound(value, "upper_bound")?,
        gap_fraction: need_f64(value, "gap_fraction")?,
        cut_edges: need_index(value, "cut_edges")?,
        cut_mass: need_f64(value, "cut_mass")?,
        repaired_streams: need_index(value, "repaired_streams")?,
    })
}

impl Serialize for HealthSnapshot {
    fn to_value(&self) -> Value {
        obj(vec![
            ("status", Value::String(self.status.clone())),
            ("live_streams", idx(self.live_streams)),
            ("num_streams", idx(self.num_streams)),
            ("num_users", idx(self.num_users)),
            ("pending_updates", idx(self.pending_updates)),
            ("queue_depth", idx(self.queue_depth)),
            ("queue_capacity", idx(self.queue_capacity)),
            (
                "full_resolve_scheduled",
                Value::Bool(self.full_resolve_scheduled),
            ),
            ("apply_queue_lag", count(self.apply_queue_lag)),
            ("epoch_in_flight", count(self.epoch_in_flight)),
        ])
    }
}

impl Deserialize for HealthSnapshot {
    fn from_value(value: &Value) -> Result<Self, serde::DeError> {
        let shape = |e: FrameError| serde::DeError(e.message);
        Ok(HealthSnapshot {
            status: need_str(value, "status").map_err(shape)?.to_string(),
            live_streams: need_index(value, "live_streams").map_err(shape)?,
            num_streams: need_index(value, "num_streams").map_err(shape)?,
            num_users: need_index(value, "num_users").map_err(shape)?,
            pending_updates: need_index(value, "pending_updates").map_err(shape)?,
            queue_depth: need_index(value, "queue_depth").map_err(shape)?,
            queue_capacity: need_index(value, "queue_capacity").map_err(shape)?,
            full_resolve_scheduled: need_bool(value, "full_resolve_scheduled").map_err(shape)?,
            apply_queue_lag: u64::from_value(need(value, "apply_queue_lag").map_err(shape)?)
                .map_err(|e| serde::DeError(format!("field `apply_queue_lag`: {e}")))?,
            epoch_in_flight: u64::from_value(need(value, "epoch_in_flight").map_err(shape)?)
                .map_err(|e| serde::DeError(format!("field `epoch_in_flight`: {e}")))?,
        })
    }
}

impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        obj(vec![
            ("applies", count(self.applies)),
            ("updates_applied", count(self.updates_applied)),
            ("full_resolves", count(self.full_resolves)),
            ("resolved_shards", count(self.resolved_shards)),
            ("shard_slots", count(self.shard_slots)),
            ("dirty_fraction", Value::Number(self.dirty_fraction)),
            ("super_shards", count(self.super_shards)),
            (
                "dirty_super_fraction",
                Value::Number(self.dirty_super_fraction),
            ),
            ("inner_cache_hits", count(self.inner_cache_hits)),
            ("inner_cache_misses", count(self.inner_cache_misses)),
            ("rejected_batches", count(self.rejected_batches)),
            ("rejected_updates", count(self.rejected_updates)),
            ("last_apply_micros", count(self.last_apply_micros)),
            ("total_apply_micros", count(self.total_apply_micros)),
            ("requests", count(self.requests)),
            ("frames_rejected", count(self.frames_rejected)),
            ("overloaded", count(self.overloaded)),
            ("admission_checks", count(self.admission_checks)),
            ("admitted", count(self.admitted)),
            ("admission_rejects", count(self.admission_rejects)),
            ("queue_depth", idx(self.queue_depth)),
            ("queue_capacity", idx(self.queue_capacity)),
            ("utility", Value::Number(self.utility)),
            ("upper_bound", bound(self.upper_bound)),
            ("gap_fraction", Value::Number(self.gap_fraction)),
            ("pool_workers", count(self.pool_workers)),
            ("pool_depth", count(self.pool_depth)),
            ("apply_queue_lag", count(self.apply_queue_lag)),
            ("epoch_submitted", count(self.epoch_submitted)),
            ("epoch_committed", count(self.epoch_committed)),
            ("epoch_in_flight", count(self.epoch_in_flight)),
            ("lane_mode", Value::String(self.lane_mode.clone())),
            ("peak_rss_bytes", count(self.peak_rss_bytes)),
            ("budget_soft_trips", count(self.budget_soft_trips)),
            ("budget_hard_trips", count(self.budget_hard_trips)),
            ("degraded_applies", count(self.degraded_applies)),
            ("stale_gap_fraction", Value::Number(self.stale_gap_fraction)),
            ("deferred_full_resolves", count(self.deferred_full_resolves)),
        ])
    }
}

impl Deserialize for MetricsSnapshot {
    fn from_value(value: &Value) -> Result<Self, serde::DeError> {
        let shape = |e: FrameError| serde::DeError(e.message);
        let c = |key| -> Result<u64, serde::DeError> {
            u64::from_value(need(value, key).map_err(shape)?)
                .map_err(|e| serde::DeError(format!("field `{key}`: {e}")))
        };
        Ok(MetricsSnapshot {
            applies: c("applies")?,
            updates_applied: c("updates_applied")?,
            full_resolves: c("full_resolves")?,
            resolved_shards: c("resolved_shards")?,
            shard_slots: c("shard_slots")?,
            dirty_fraction: need_f64(value, "dirty_fraction").map_err(shape)?,
            super_shards: c("super_shards")?,
            dirty_super_fraction: need_f64(value, "dirty_super_fraction").map_err(shape)?,
            inner_cache_hits: c("inner_cache_hits")?,
            inner_cache_misses: c("inner_cache_misses")?,
            rejected_batches: c("rejected_batches")?,
            rejected_updates: c("rejected_updates")?,
            last_apply_micros: c("last_apply_micros")?,
            total_apply_micros: c("total_apply_micros")?,
            requests: c("requests")?,
            frames_rejected: c("frames_rejected")?,
            overloaded: c("overloaded")?,
            admission_checks: c("admission_checks")?,
            admitted: c("admitted")?,
            admission_rejects: c("admission_rejects")?,
            queue_depth: need_index(value, "queue_depth").map_err(shape)?,
            queue_capacity: need_index(value, "queue_capacity").map_err(shape)?,
            utility: need_f64(value, "utility").map_err(shape)?,
            upper_bound: need_bound(value, "upper_bound").map_err(shape)?,
            gap_fraction: need_f64(value, "gap_fraction").map_err(shape)?,
            pool_workers: c("pool_workers")?,
            pool_depth: c("pool_depth")?,
            apply_queue_lag: c("apply_queue_lag")?,
            epoch_submitted: c("epoch_submitted")?,
            epoch_committed: c("epoch_committed")?,
            epoch_in_flight: c("epoch_in_flight")?,
            lane_mode: need_str(value, "lane_mode").map_err(shape)?.to_string(),
            peak_rss_bytes: c("peak_rss_bytes")?,
            budget_soft_trips: c("budget_soft_trips")?,
            budget_hard_trips: c("budget_hard_trips")?,
            degraded_applies: c("degraded_applies")?,
            stale_gap_fraction: need_f64(value, "stale_gap_fraction").map_err(shape)?,
            deferred_full_resolves: c("deferred_full_resolves")?,
        })
    }
}

/// Converts a response to its canonical wire object.
pub fn response_to_value(response: &Response) -> Value {
    let ok = |kind: &str, mut rest: Vec<(&str, Value)>| {
        let mut entries = vec![
            ("ok", Value::Bool(true)),
            ("kind", Value::String(kind.into())),
        ];
        entries.append(&mut rest);
        obj(entries)
    };
    match response {
        Response::Error { code, message } => obj(vec![
            ("ok", Value::Bool(false)),
            ("code", Value::String(code.as_str().into())),
            ("message", Value::String(message.clone())),
        ]),
        Response::Pushed {
            pending,
            admissions,
        } => {
            let mut rest = vec![("pending", idx(*pending))];
            if let Some(admissions) = admissions {
                rest.push((
                    "admissions",
                    Value::Array(admissions.iter().map(admission_to_value).collect()),
                ));
            }
            ok("pushed", rest)
        }
        Response::Applied { outcome } => {
            ok("applied", vec![("outcome", outcome_to_value(outcome))])
        }
        Response::Certificate {
            utility,
            upper_bound,
            gap_fraction,
        } => ok(
            "certificate",
            vec![
                ("utility", Value::Number(*utility)),
                ("upper_bound", bound(*upper_bound)),
                ("gap_fraction", Value::Number(*gap_fraction)),
            ],
        ),
        Response::UserAllocation {
            user,
            streams,
            utility,
        } => ok(
            "user",
            vec![
                ("user", idx(*user)),
                ("streams", indices(streams)),
                ("utility", Value::Number(*utility)),
            ],
        ),
        Response::StreamAllocation {
            stream,
            live,
            users,
        } => ok(
            "stream",
            vec![
                ("stream", idx(*stream)),
                ("live", Value::Bool(*live)),
                ("users", indices(users)),
            ],
        ),
        Response::Allocation { utility, users } => ok(
            "allocation",
            vec![
                ("utility", Value::Number(*utility)),
                (
                    "users",
                    Value::Array(users.iter().map(|u| indices(u)).collect()),
                ),
            ],
        ),
        Response::Admissions { admissions } => ok(
            "admissions",
            vec![(
                "admissions",
                Value::Array(admissions.iter().map(admission_to_value).collect()),
            )],
        ),
        Response::Health(h) => {
            let Value::Object(body) = h.to_value() else {
                unreachable!("health serializes as an object");
            };
            let mut entries = vec![
                ("ok".to_string(), Value::Bool(true)),
                ("kind".to_string(), Value::String("health".into())),
            ];
            entries.extend(body);
            Value::Object(entries)
        }
        Response::Metrics(m) => {
            let Value::Object(body) = m.to_value() else {
                unreachable!("metrics serializes as an object");
            };
            let mut entries = vec![
                ("ok".to_string(), Value::Bool(true)),
                ("kind".to_string(), Value::String("metrics".into())),
            ];
            entries.extend(body);
            Value::Object(entries)
        }
        Response::Resolve { scheduled } => {
            ok("resolve", vec![("scheduled", Value::Bool(*scheduled))])
        }
        Response::Shutdown => ok("shutdown", vec![]),
    }
}

/// Prints a response as one canonical NDJSON line (no trailing newline).
pub fn print_response(response: &Response) -> String {
    serde_json::to_string(&response_to_value(response)).expect("response frames are finite")
}

/// Parses one response line.
///
/// # Errors
///
/// Returns [`FrameError`] on malformed JSON or a frame that does not match
/// the spec.
pub fn parse_response(line: &str) -> Result<Response, FrameError> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| FrameError::parse(format!("bad json: {e}")))?;
    response_from_value(&value)
}

/// Parses a response from an already-decoded value tree.
///
/// # Errors
///
/// See [`parse_response`].
pub fn response_from_value(value: &Value) -> Result<Response, FrameError> {
    if !need_bool(value, "ok")? {
        let code = need_str(value, "code")?;
        return Ok(Response::Error {
            code: ErrorCode::from_str(code)
                .ok_or_else(|| FrameError::parse(format!("unknown error code `{code}`")))?,
            message: need_str(value, "message")?.to_string(),
        });
    }
    match need_str(value, "kind")? {
        "pushed" => Ok(Response::Pushed {
            pending: need_index(value, "pending")?,
            admissions: match value.get("admissions") {
                None => None,
                Some(Value::Array(items)) => Some(
                    items
                        .iter()
                        .map(admission_from_value)
                        .collect::<Result<Vec<_>, _>>()?,
                ),
                Some(other) => {
                    return Err(FrameError::parse(format!(
                        "field `admissions`: expected array, found {}",
                        other.kind()
                    )))
                }
            },
        }),
        "applied" => Ok(Response::Applied {
            outcome: outcome_from_value(need(value, "outcome")?)?,
        }),
        "certificate" => Ok(Response::Certificate {
            utility: need_f64(value, "utility")?,
            upper_bound: need_bound(value, "upper_bound")?,
            gap_fraction: need_f64(value, "gap_fraction")?,
        }),
        "user" => Ok(Response::UserAllocation {
            user: need_index(value, "user")?,
            streams: need_indices(value, "streams")?,
            utility: need_f64(value, "utility")?,
        }),
        "stream" => Ok(Response::StreamAllocation {
            stream: need_index(value, "stream")?,
            live: need_bool(value, "live")?,
            users: need_indices(value, "users")?,
        }),
        "allocation" => {
            let users = match need(value, "users")? {
                Value::Array(items) => items
                    .iter()
                    .map(Vec::<usize>::from_value)
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| FrameError::parse(format!("field `users`: {e}")))?,
                other => {
                    return Err(FrameError::parse(format!(
                        "field `users`: expected array, found {}",
                        other.kind()
                    )))
                }
            };
            Ok(Response::Allocation {
                utility: need_f64(value, "utility")?,
                users,
            })
        }
        "admissions" => match need(value, "admissions")? {
            Value::Array(items) => Ok(Response::Admissions {
                admissions: items
                    .iter()
                    .map(admission_from_value)
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            other => Err(FrameError::parse(format!(
                "field `admissions`: expected array, found {}",
                other.kind()
            ))),
        },
        "health" => Ok(Response::Health(
            HealthSnapshot::from_value(value).map_err(|e| FrameError::parse(e.0))?,
        )),
        "metrics" => Ok(Response::Metrics(Box::new(
            MetricsSnapshot::from_value(value).map_err(|e| FrameError::parse(e.0))?,
        ))),
        "resolve" => Ok(Response::Resolve {
            scheduled: need_bool(value, "scheduled")?,
        }),
        "shutdown" => Ok(Response::Shutdown),
        other => Err(FrameError::parse(format!(
            "unknown response kind `{other}`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Update {
                updates: vec![
                    Update::StreamArrival(StreamId::new(3)),
                    Update::StreamDeparture(StreamId::new(5)),
                    Update::InterestChange {
                        user: UserId::new(2),
                        stream: StreamId::new(7),
                        weight: 1.5,
                    },
                    Update::BudgetChange {
                        measure: 0,
                        budget: 120.0,
                    },
                    Update::BudgetChange {
                        measure: 1,
                        budget: f64::INFINITY,
                    },
                ],
                admit: true,
            },
            Request::Update {
                updates: vec![],
                admit: false,
            },
            Request::Apply,
            Request::QueryUser { user: 4 },
            Request::QueryStream { stream: 9 },
            Request::Allocation,
            Request::Certificate,
            Request::Admissions,
            Request::Health,
            Request::Metrics,
            Request::Resolve,
            Request::Shutdown,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "queue full (depth 64)".into(),
            },
            Response::Pushed {
                pending: 3,
                admissions: Some(vec![Admission {
                    stream: 3,
                    admitted: true,
                    users: vec![0, 2],
                    gained: 4.5,
                }]),
            },
            Response::Pushed {
                pending: 1,
                admissions: None,
            },
            Response::Applied {
                outcome: WireOutcome {
                    updates_applied: 4,
                    num_shards: 6,
                    dirty_shards: 2,
                    resolved_shards: 2,
                    full_resolve: false,
                    utility: 41.5,
                    upper_bound: 44.0,
                    gap_fraction: 0.0568,
                    cut_edges: 0,
                    cut_mass: 0.0,
                    repaired_streams: 1,
                },
            },
            Response::Certificate {
                utility: 41.5,
                upper_bound: f64::INFINITY,
                gap_fraction: 0.0,
            },
            Response::UserAllocation {
                user: 4,
                streams: vec![1, 3],
                utility: 7.5,
            },
            Response::StreamAllocation {
                stream: 9,
                live: false,
                users: vec![],
            },
            Response::Allocation {
                utility: 41.5,
                users: vec![vec![0, 1], vec![], vec![2]],
            },
            Response::Admissions { admissions: vec![] },
            Response::Health(HealthSnapshot {
                status: "ok".into(),
                live_streams: 18,
                num_streams: 20,
                num_users: 9,
                pending_updates: 2,
                queue_depth: 0,
                queue_capacity: 64,
                full_resolve_scheduled: false,
                apply_queue_lag: 1,
                epoch_in_flight: 40,
            }),
            Response::Metrics(Box::new(MetricsSnapshot {
                applies: 40,
                updates_applied: 1000,
                full_resolves: 2,
                resolved_shards: 61,
                shard_slots: 120,
                dirty_fraction: 61.0 / 120.0,
                super_shards: 4,
                dirty_super_fraction: 0.25,
                inner_cache_hits: 35,
                inner_cache_misses: 61,
                rejected_batches: 1,
                rejected_updates: 3,
                last_apply_micros: 840,
                total_apply_micros: 39_000,
                requests: 86,
                frames_rejected: 2,
                overloaded: 5,
                admission_checks: 7,
                admitted: 6,
                admission_rejects: 1,
                queue_depth: 0,
                queue_capacity: 64,
                utility: 41.5,
                upper_bound: 44.0,
                gap_fraction: 0.0568,
                pool_workers: 3,
                pool_depth: 0,
                apply_queue_lag: 1,
                epoch_submitted: 41,
                epoch_committed: 40,
                epoch_in_flight: 41,
                lane_mode: "exact".into(),
                peak_rss_bytes: 52_428_800,
                budget_soft_trips: 3,
                budget_hard_trips: 1,
                degraded_applies: 4,
                stale_gap_fraction: 0.125,
                deferred_full_resolves: 1,
            })),
            Response::Resolve { scheduled: true },
            Response::Shutdown,
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for request in sample_requests() {
            let line = print_request(&request);
            let back = parse_request(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, request, "{line}");
        }
    }

    #[test]
    fn the_line_bound_covers_the_longest_canonical_update_frame() {
        let longest = Update::InterestChange {
            user: UserId::new(usize::MAX),
            stream: StreamId::new(usize::MAX),
            weight: -f64::MIN_POSITIVE,
        };
        let printed = serde_json::to_string(&update_to_value(&longest)).unwrap();
        assert_eq!(printed.len(), 113, "{printed}");
        for max_batch in [1, 16, 1024] {
            let frame = print_request(&Request::Update {
                updates: vec![longest.clone(); max_batch],
                admit: true,
            });
            assert!(2 * frame.len() <= max_request_line(max_batch));
        }
    }

    #[test]
    fn responses_roundtrip() {
        for response in sample_responses() {
            let line = print_response(&response);
            let back = parse_response(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, response, "{line}");
        }
    }

    #[test]
    fn infinity_encodes_as_null() {
        let line = print_response(&Response::Certificate {
            utility: 1.0,
            upper_bound: f64::INFINITY,
            gap_fraction: 0.0,
        });
        assert!(line.contains("\"upper_bound\":null"), "{line}");
        let line = print_request(&Request::Update {
            updates: vec![Update::BudgetChange {
                measure: 0,
                budget: f64::INFINITY,
            }],
            admit: false,
        });
        assert!(line.contains("\"budget\":null"), "{line}");
    }

    #[test]
    fn malformed_frames_are_parse_errors() {
        for bad in [
            "not json",
            "{}",
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"update"}"#,
            r#"{"op":"update","updates":[{"kind":"arrive"}]}"#,
            r#"{"op":"update","updates":[{"kind":"launch","stream":1}]}"#,
            r#"{"op":"query"}"#,
            r#"{"op":"query","user":1,"stream":2}"#,
            r#"{"op":"query","user":-3}"#,
            r#"{"op":"query","user":1.5}"#,
        ] {
            let err = parse_request(bad).expect_err(bad);
            assert_eq!(err.code, ErrorCode::Parse, "{bad}");
        }
        for bad in [
            "{}",
            r#"{"ok":true}"#,
            r#"{"ok":true,"kind":"nope"}"#,
            r#"{"ok":false,"code":"weird","message":"m"}"#,
            r#"{"ok":true,"kind":"certificate","utility":1.0}"#,
        ] {
            assert!(parse_response(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::Parse,
            ErrorCode::Invalid,
            ErrorCode::Rejected,
            ErrorCode::Overloaded,
            ErrorCode::Unavailable,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_str(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::from_str("nope"), None);
    }
}
