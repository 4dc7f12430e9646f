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
//! The four struct-shaped bodies ([`Admission`], [`WireOutcome`],
//! [`HealthSnapshot`], [`MetricsSnapshot`]) are each one `wire_body!`
//! table, so a new field is one row: its doc, name and type (coded by the
//! type's own JSON mapping, or by `Bound` where `∞` encodes as `null`)
//! and, for `metrics`, its `docs/OPERATIONS.md` unit. The struct, its
//! encoder, its decoder and [`MetricsSnapshot::FIELDS`] all come from that
//! row.
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
use serde::{DeError, Deserialize, Serialize, Value};
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

// ---------------------------------------------------------------------------
// Wire bodies: one row per field
// ---------------------------------------------------------------------------

/// How one field of a wire body maps to its JSON value and back. Every
/// [`Serialize`] + [`Deserialize`] type is its own codec; [`Bound`] is the
/// one codec that differs from its type's mapping.
trait Codec {
    /// The field's Rust type.
    type T;
    fn encode(x: &Self::T) -> Value;
    fn decode(value: &Value) -> Result<Self::T, DeError>;
}

impl<T: Serialize + Deserialize> Codec for T {
    type T = T;
    fn encode(x: &T) -> Value {
        x.to_value()
    }
    fn decode(value: &Value) -> Result<T, DeError> {
        T::from_value(value)
    }
}

/// An `f64` that may be `∞`, which encodes as `null` (JSON has no
/// infinity).
struct Bound;

impl Codec for Bound {
    type T = f64;
    fn encode(&x: &f64) -> Value {
        if x.is_finite() {
            Value::Number(x)
        } else {
            Value::Null
        }
    }
    fn decode(value: &Value) -> Result<f64, DeError> {
        match value {
            Value::Null => Ok(f64::INFINITY),
            Value::Number(x) => Ok(*x),
            other => Err(DeError::expected("number or null", other)),
        }
    }
}

/// Declares a struct-shaped wire body from one row per field:
/// `/// doc`, then `name: Type;`, coded by the type's own [`Value`]
/// mapping, or `name: f64 => Bound;` for a value whose `∞` is `null`; a row
/// ends `, "unit";` instead where the body's fields are documented with
/// units. It emits the struct and, on it, `FIELDS` (every key in wire
/// order with its unit, `""` where the row gives none), `entries` (the
/// encoder: keys in row order) and `decode` (a missing key or a mistyped
/// value is a `parse` error naming the key).
macro_rules! wire_body {
    (@codec $ty:ty) => { $ty };
    (@codec $ty:ty, $codec:ty) => { $codec };
    (
        $(#[$attr:meta])*
        pub struct $name:ident {
            $($(#[$doc:meta])* $field:ident: $ty:ty $(=> $codec:ty)? $(, $unit:literal)?;)*
        }
    ) => {
        $(#[$attr])*
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl $name {
            /// `(key, unit)` of every field, in wire order. The unit is the
            /// one `docs/OPERATIONS.md` documents, `""` for bodies it does
            /// not cover.
            pub const FIELDS: &'static [(&'static str, &'static str)] =
                &[$((stringify!($field), concat!("" $(, $unit)?))),*];

            fn entries(&self) -> Vec<(&'static str, Value)> {
                vec![$((
                    stringify!($field),
                    <wire_body!(@codec $ty $(, $codec)?) as Codec>::encode(&self.$field),
                )),*]
            }

            fn decode(value: &Value) -> Result<Self, FrameError> {
                Ok($name {
                    $($field: field::<wire_body!(@codec $ty $(, $codec)?)>(
                        value,
                        stringify!($field),
                    )?,)*
                })
            }
        }
    };
}

wire_body! {
    /// One provisional admission verdict (the §5 online allocator's decision
    /// for a pending arrival).
    #[derive(Clone, Debug, PartialEq)]
    pub struct Admission {
        /// The arriving stream.
        stream: usize;
        /// Whether the exponential-cost rule admitted it.
        admitted: bool;
        /// Users the stream was provisionally assigned to (empty = dropped).
        users: Vec<usize>;
        /// Raw utility the provisional assignment gained.
        gained: f64;
    }
}

wire_body! {
    /// The applied batch's outcome — the wire mirror of
    /// [`mmd_core::IngestOutcome`].
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct WireOutcome {
        /// Updates applied in the batch.
        updates_applied: usize;
        /// Shards of the refreshed partition.
        num_shards: usize;
        /// Shards the batch dirtied.
        dirty_shards: usize;
        /// Shards actually re-solved.
        resolved_shards: usize;
        /// Whether a re-shard trigger escalated to a full re-solve.
        full_resolve: bool;
        /// Certified lower bound (committed utility).
        utility: f64;
        /// Certified upper bound on the optimum (`∞` encodes as `null`).
        upper_bound: f64 => Bound;
        /// Relative certified gap in `[0, 1]`.
        gap_fraction: f64;
        /// Interests cut by the size-capped partitioner.
        cut_edges: usize;
        /// Total utility of the cut interests.
        cut_mass: f64;
        /// Streams dropped by the global budget repair pass.
        repaired_streams: usize;
        /// Whether a hard solve-budget trip shed the apply: nothing was
        /// applied, the batch was discarded, and the certificate is the
        /// last committed one. The client resends the batch.
        stale: bool;
    }
}

wire_body! {
    /// The `health` response body. Stable-keyed: serialization emits the
    /// fields in declaration order, always all of them.
    #[derive(Clone, Debug, PartialEq)]
    pub struct HealthSnapshot {
        /// `"ok"` while serving, `"draining"` once shutdown is underway.
        status: String;
        /// Currently live streams of the committed model.
        live_streams: usize;
        /// Streams in the universe (live or departed).
        num_streams: usize;
        /// Users in the universe.
        num_users: usize;
        /// Updates enqueued but not yet applied.
        pending_updates: usize;
        /// Sequenced requests waiting for the service's pending-batch lock or
        /// holding it.
        queue_depth: usize;
        /// Capacity of the bounded request queue.
        queue_capacity: usize;
        /// Whether a requested background full re-solve has not finished yet.
        full_resolve_scheduled: bool;
        /// Apply epochs submitted but not yet committed.
        apply_queue_lag: u64;
        /// The epoch currently applying on the solver thread (0 = none).
        epoch_in_flight: u64;
    }
}

wire_body! {
    /// The `metrics` response body: engine counters, serving counters and the
    /// committed certificate, flattened into one stable-keyed object.
    #[derive(Clone, Debug, PartialEq)]
    pub struct MetricsSnapshot {
        /// Successfully applied batches (engine).
        applies: u64, "count";
        /// Updates committed across all applies (engine).
        updates_applied: u64, "count";
        /// Applies escalated to a full re-solve (engine).
        full_resolves: u64, "count";
        /// Shards re-solved across all applies (engine).
        resolved_shards: u64, "count";
        /// Shard-batch slots across all applies (engine).
        shard_slots: u64, "count";
        /// Lifetime `resolved_shards / shard_slots` (0 before any apply).
        dirty_fraction: f64, "ratio 0–1, gauge";
        /// Configured super-shard fan-out (`0` or `1` = single-level engine).
        super_shards: u64, "count";
        /// Lifetime `resolved_supers / super_slots` (0 before any two-level
        /// apply, and always 0 in single-level mode).
        dirty_super_fraction: f64, "ratio 0–1, gauge";
        /// Inner shard solves reused from the two-level cache (engine).
        inner_cache_hits: u64, "count";
        /// Inner shard solves that missed the two-level cache and ran (engine).
        inner_cache_misses: u64, "count";
        /// Apply calls that were rejected, committed state untouched (engine).
        rejected_batches: u64, "count";
        /// Updates rejected by structural validation (engine).
        rejected_updates: u64, "count";
        /// Wall-clock microseconds of the most recent apply (gauge).
        last_apply_micros: u64, "µs, gauge";
        /// Wall-clock microseconds summed over all applies.
        total_apply_micros: u64, "µs";
        /// Request frames handled by the service (not bounced by
        /// backpressure).
        requests: u64, "count";
        /// Lines rejected before reaching the service (parse errors, overlong
        /// lines).
        frames_rejected: u64, "count";
        /// Requests bounced by backpressure (queue full).
        overloaded: u64, "count";
        /// Provisional admission checks run.
        admission_checks: u64, "count";
        /// Pending arrivals provisionally admitted.
        admitted: u64, "count";
        /// Pending arrivals provisionally dropped.
        admission_rejects: u64, "count";
        /// Sequenced requests waiting for the pending-batch lock or holding
        /// it (gauge).
        queue_depth: usize, "count, gauge";
        /// Capacity of the bounded request queue.
        queue_capacity: usize, "count";
        /// Committed certified lower bound.
        utility: f64, "utility";
        /// Committed certified upper bound (`∞` encodes as `null`).
        upper_bound: f64 => Bound, "utility";
        /// Committed relative certified gap in `[0, 1]`.
        gap_fraction: f64, "ratio 0–1, gauge";
        /// Worker threads of the process-wide solve pool.
        pool_workers: u64, "count";
        /// Batches queued or executing in the solve pool (gauge).
        pool_depth: u64, "count, gauge";
        /// Apply epochs submitted but not yet committed.
        apply_queue_lag: u64, "count, gauge";
        /// Last apply epoch handed out.
        epoch_submitted: u64, "count";
        /// Last apply epoch committed by the solver thread.
        epoch_committed: u64, "count";
        /// The epoch currently applying on the solver thread (0 = none).
        epoch_in_flight: u64, "count, gauge";
        /// Instance lane layout of the committed model: `"exact"` (bit-exact
        /// `f64` lanes) or `"compact"` (quantized `u32`/`f32` lanes).
        lane_mode: String, "string";
        /// Peak resident set size of the serving process in bytes (`VmHWM`;
        /// 0 where the platform does not expose it).
        peak_rss_bytes: u64, "bytes, gauge";
        /// Applies whose soft solve budget tripped (engine).
        budget_soft_trips: u64, "count";
        /// Applies whose hard solve budget tripped (engine).
        budget_hard_trips: u64, "count";
        /// Applies that committed (or shed) with degraded quality (engine).
        degraded_applies: u64, "count";
        /// Fraction of the committed upper bound attributable to skipped
        /// (stale) shards, in `[0, 1]` (gauge; 0 when nothing is stale).
        stale_gap_fraction: f64, "ratio 0–1, gauge";
        /// Escalated full re-solves deferred to background maintenance
        /// (engine).
        deferred_full_resolves: u64, "count";
    }
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
// Value helpers
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

fn need<'v>(value: &'v Value, key: &str) -> Result<&'v Value, FrameError> {
    value
        .get(key)
        .ok_or_else(|| FrameError::parse(format!("missing field `{key}`")))
}

/// Decodes the field `key` of an object with codec `C` (a plain type, or
/// [`Bound`]).
fn field<C: Codec>(value: &Value, key: &str) -> Result<C::T, FrameError> {
    C::decode(need(value, key)?).map_err(|e| FrameError::parse(format!("field `{key}`: {e}")))
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

fn need_array<'v>(value: &'v Value, key: &str) -> Result<&'v [Value], FrameError> {
    match need(value, key)? {
        Value::Array(items) => Ok(items),
        other => Err(FrameError::parse(format!(
            "field `{key}`: expected array, found {}",
            other.kind()
        ))),
    }
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
            ("budget", Bound::encode(&budget)),
        ]),
    }
}

/// Parses one update object.
///
/// # Errors
///
/// Returns [`FrameError`] on an unknown `kind` or missing/mistyped field.
pub fn update_from_value(value: &Value) -> Result<Update, FrameError> {
    let stream = || field::<usize>(value, "stream").map(StreamId::new);
    match need_str(value, "kind")? {
        "arrive" => Ok(Update::StreamArrival(stream()?)),
        "depart" => Ok(Update::StreamDeparture(stream()?)),
        "interest" => Ok(Update::InterestChange {
            user: UserId::new(field::<usize>(value, "user")?),
            stream: stream()?,
            weight: field::<f64>(value, "weight")?,
        }),
        "budget" => Ok(Update::BudgetChange {
            measure: field::<usize>(value, "measure")?,
            budget: field::<Bound>(value, "budget")?,
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
            let updates = need_array(value, "updates")?
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
                user: field::<usize>(value, "user")?,
            }),
            (None, Some(_)) => Ok(Request::QueryStream {
                stream: field::<usize>(value, "stream")?,
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

fn admissions_to_value(admissions: &[Admission]) -> Value {
    Value::Array(admissions.iter().map(|a| obj(a.entries())).collect())
}

fn admissions_from_value(value: &Value) -> Result<Vec<Admission>, FrameError> {
    need_array(value, "admissions")?
        .iter()
        .map(Admission::decode)
        .collect()
}

/// Converts a response to its canonical wire object.
pub fn response_to_value(response: &Response) -> Value {
    // The one splice: `ok` and `kind` ahead of the body's keys.
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
                rest.push(("admissions", admissions_to_value(admissions)));
            }
            ok("pushed", rest)
        }
        Response::Applied { outcome } => ok("applied", vec![("outcome", obj(outcome.entries()))]),
        Response::Certificate {
            utility,
            upper_bound,
            gap_fraction,
        } => ok(
            "certificate",
            vec![
                ("utility", Value::Number(*utility)),
                ("upper_bound", Bound::encode(upper_bound)),
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
                ("streams", streams.to_value()),
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
                ("users", users.to_value()),
            ],
        ),
        Response::Allocation { utility, users } => ok(
            "allocation",
            vec![
                ("utility", Value::Number(*utility)),
                ("users", users.to_value()),
            ],
        ),
        Response::Admissions { admissions } => ok(
            "admissions",
            vec![("admissions", admissions_to_value(admissions))],
        ),
        Response::Health(h) => ok("health", h.entries()),
        Response::Metrics(m) => ok("metrics", m.entries()),
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
    if !field::<bool>(value, "ok")? {
        let code = need_str(value, "code")?;
        return Ok(Response::Error {
            code: ErrorCode::from_str(code)
                .ok_or_else(|| FrameError::parse(format!("unknown error code `{code}`")))?,
            message: need_str(value, "message")?.to_string(),
        });
    }
    match need_str(value, "kind")? {
        "pushed" => Ok(Response::Pushed {
            pending: field::<usize>(value, "pending")?,
            admissions: match value.get("admissions") {
                None => None,
                Some(_) => Some(admissions_from_value(value)?),
            },
        }),
        "applied" => Ok(Response::Applied {
            outcome: WireOutcome::decode(need(value, "outcome")?)?,
        }),
        "certificate" => Ok(Response::Certificate {
            utility: field::<f64>(value, "utility")?,
            upper_bound: field::<Bound>(value, "upper_bound")?,
            gap_fraction: field::<f64>(value, "gap_fraction")?,
        }),
        "user" => Ok(Response::UserAllocation {
            user: field::<usize>(value, "user")?,
            streams: field::<Vec<usize>>(value, "streams")?,
            utility: field::<f64>(value, "utility")?,
        }),
        "stream" => Ok(Response::StreamAllocation {
            stream: field::<usize>(value, "stream")?,
            live: field::<bool>(value, "live")?,
            users: field::<Vec<usize>>(value, "users")?,
        }),
        "allocation" => Ok(Response::Allocation {
            utility: field::<f64>(value, "utility")?,
            users: field::<Vec<Vec<usize>>>(value, "users")?,
        }),
        "admissions" => Ok(Response::Admissions {
            admissions: admissions_from_value(value)?,
        }),
        "health" => Ok(Response::Health(HealthSnapshot::decode(value)?)),
        "metrics" => Ok(Response::Metrics(Box::new(MetricsSnapshot::decode(value)?))),
        "resolve" => Ok(Response::Resolve {
            scheduled: field::<bool>(value, "scheduled")?,
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
                    stale: false,
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

    /// `value` with `key` removed from every object in it.
    fn without(value: &Value, key: &str) -> Value {
        match value {
            Value::Object(entries) => Value::Object(
                entries
                    .iter()
                    .filter(|(k, _)| k != key)
                    .map(|(k, v)| (k.clone(), without(v, key)))
                    .collect(),
            ),
            Value::Array(items) => Value::Array(items.iter().map(|v| without(v, key)).collect()),
            other => other.clone(),
        }
    }

    #[test]
    fn a_frame_missing_any_body_row_fails_to_decode() {
        let frames: Vec<Value> = sample_responses().iter().map(response_to_value).collect();
        for (kind, fields) in [
            ("pushed", Admission::FIELDS),
            ("applied", WireOutcome::FIELDS),
            ("health", HealthSnapshot::FIELDS),
            ("metrics", MetricsSnapshot::FIELDS),
        ] {
            // The first sample of each kind carries its body (the first
            // `pushed` one an admission).
            let frame = frames
                .iter()
                .find(|f| f.get("kind") == Some(&Value::String(kind.into())))
                .unwrap();
            response_from_value(frame).unwrap();
            for (key, _) in fields {
                let err = response_from_value(&without(frame, key)).expect_err(key);
                assert_eq!(err.message, format!("missing field `{key}`"), "{kind}");
            }
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
