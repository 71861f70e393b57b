//! The wire protocol: compact length-prefixed binary frames.
//!
//! Every message on the socket is one *frame*: a little-endian `u32` payload
//! length followed by the payload, whose first byte is the opcode. Requests
//! flow client → server ([`Request`]), replies flow server → client
//! ([`Reply`]); each request produces exactly one reply, in order, so a
//! client can pipeline frames and match replies by position.
//!
//! The payload encoding is deliberately boring: fixed-width little-endian
//! integers, `u32`-length-prefixed UTF-8 strings, and tagged scalars for
//! [`Value`]. There is no self-description or versioning negotiation — the
//! protocol is an internal engine front-end, not a public standard — but
//! every decoder is total: any byte sequence either decodes or yields a
//! typed [`FrameError`], never a panic or an out-of-bounds read, and
//! length/count fields are validated against the actual remaining payload
//! before any allocation is sized from them.

use aidx_columnstore::types::{RowId, Value};
use aidx_core::{Aggregation, Inspection, Predicate, Query, QueryResult};
use aidx_telemetry::{
    AlertEvent, AlertEventKind, AlertState, AlertStatus, CounterDelta, GaugeDelta,
    HistogramSnapshot, QueryTrace, SnapshotDelta, SpanEvent, HISTOGRAM_BUCKETS,
};
use std::fmt;
use std::io::{self, Read, Write};

/// Bytes of the frame header (the little-endian payload length).
pub const FRAME_HEADER_BYTES: usize = 4;

/// Default cap on a single frame's payload. Large enough for a
/// several-hundred-thousand-row result set, small enough that a hostile
/// length prefix cannot make the server allocate gigabytes.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

// Request opcodes (client → server). 0x05 and 0x07..=0x09 are retired
// introspection opcodes: they decode as unknown and are never reused.
const OP_PING: u8 = 0x01;
const OP_QUERY: u8 = 0x02;
const OP_INSERT: u8 = 0x03;
const OP_BATCH: u8 = 0x04;
const OP_METRICS: u8 = 0x06;
const OP_INSPECT: u8 = 0x0A;

// Reply opcodes (server → client). 0x87 and 0x89..=0x8B are retired
// likewise.
const OP_PONG: u8 = 0x81;
const OP_RESULT: u8 = 0x82;
const OP_ERROR: u8 = 0x83;
const OP_OVERLOADED: u8 = 0x84;
const OP_INSERTED: u8 = 0x85;
const OP_BATCH_RESULT: u8 = 0x86;
const OP_METRICS_TEXT: u8 = 0x88;
const OP_INSPECT_RESULT: u8 = 0x8C;

// Span-event tags inside the traces section of an INSPECT reply.
const SPAN_PLAN: u8 = 0;
const SPAN_INDEX_PROBE: u8 = 1;
const SPAN_ZONE_MAP_PRUNE: u8 = 2;
const SPAN_RESIDUAL_FILTER: u8 = 3;
const SPAN_MATERIALIZE: u8 = 4;

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The payload ended before the field being read.
    Truncated,
    /// Bytes remained after the last field of the message.
    TrailingBytes,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// An unknown tag or opcode.
    UnknownTag {
        /// What kind of field carried the tag.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A count field claims more elements than the remaining payload could
    /// possibly hold.
    CountOverflow {
        /// What was being counted.
        what: &'static str,
        /// The claimed element count.
        count: u64,
    },
    /// A count field holds a value the message never carries (a
    /// histogram's bucket count must be [`HISTOGRAM_BUCKETS`]).
    BadCount {
        /// What was being counted.
        what: &'static str,
        /// The claimed element count.
        count: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "payload truncated"),
            FrameError::TrailingBytes => write!(f, "trailing bytes after message"),
            FrameError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            FrameError::UnknownTag { what, tag } => {
                write!(f, "unknown {what} tag 0x{tag:02x}")
            }
            FrameError::CountOverflow { what, count } => {
                write!(f, "{what} count {count} exceeds the payload")
            }
            FrameError::BadCount { what, count } => {
                write!(f, "{what} count {count} is invalid")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Machine-readable error category carried by [`Reply::Error`] frames.
///
/// Codes below 16 are protocol-level (the frame itself was unacceptable);
/// codes 16..=31 mirror the engine's typed [`aidx_core::AidxError`]
/// variants, so a client can distinguish "your query is wrong" from "the
/// server is unhealthy" without parsing the message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ErrorCode {
    /// The payload did not decode as a message.
    Malformed = 1,
    /// The frame's length prefix exceeds the server's configured cap.
    Oversized = 2,
    /// The opcode is not a request the server understands.
    UnknownOpcode = 3,
    /// The server is at its connection cap; retry against a replica or
    /// later.
    AtCapacity = 4,
    /// The server is shutting down.
    ShuttingDown = 5,
    /// [`aidx_core::AidxError::Store`]: unknown table/column, type or arity
    /// mismatch.
    Store = 16,
    /// [`aidx_core::AidxError::InvalidRange`].
    InvalidRange = 17,
    /// [`aidx_core::AidxError::Planner`].
    Planner = 18,
    /// [`aidx_core::AidxError::Strategy`].
    Strategy = 19,
    /// [`aidx_core::AidxError::AggregateOverflow`].
    AggregateOverflow = 20,
    /// [`aidx_core::AidxError::Config`].
    Config = 21,
    /// [`aidx_core::AidxError::Io`]: a durability-layer (write-ahead log or
    /// checkpoint) failure.
    Io = 22,
    /// Any engine failure without a more specific code.
    Internal = 31,
}

impl ErrorCode {
    /// Decode a wire code.
    pub fn from_u16(code: u16) -> Option<ErrorCode> {
        Some(match code {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Oversized,
            3 => ErrorCode::UnknownOpcode,
            4 => ErrorCode::AtCapacity,
            5 => ErrorCode::ShuttingDown,
            16 => ErrorCode::Store,
            17 => ErrorCode::InvalidRange,
            18 => ErrorCode::Planner,
            19 => ErrorCode::Strategy,
            20 => ErrorCode::AggregateOverflow,
            21 => ErrorCode::Config,
            22 => ErrorCode::Io,
            31 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A typed error reply: a machine-readable [`ErrorCode`] plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The error category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Construct a wire error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Reply::Pong`].
    Ping,
    /// Execute one query; answered with [`Reply::Result`],
    /// [`Reply::Overloaded`] or [`Reply::Error`].
    Query(Query),
    /// Append one row; answered with [`Reply::Inserted`] or
    /// [`Reply::Error`].
    Insert {
        /// Target table.
        table: String,
        /// One value per column, in schema order.
        values: Vec<Value>,
    },
    /// Execute many queries under a *single* admission permit, amortizing
    /// per-request overhead; answered with [`Reply::Batch`] (per-query
    /// results) or [`Reply::Overloaded`] for the whole batch.
    Batch(Vec<Query>),
    /// Fetch every engine and server metric (the engine's registry carries
    /// the server's own `server.*` metrics) rendered as Prometheus text
    /// exposition format; answered with [`Reply::MetricsText`]. Never shed
    /// by admission control — an operator must be able to see a saturated
    /// server.
    Metrics,
    /// Fetch the served database's [`Inspection`]: sampled query traces,
    /// alert states and journal, and the reporter's interval history;
    /// answered with [`Reply::Inspect`]. Like [`Request::Metrics`], never
    /// shed.
    Inspect,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to [`Request::Ping`].
    Pong,
    /// A completed query.
    Result(WireResult),
    /// A typed failure; the connection stays usable unless the error is
    /// [`ErrorCode::Oversized`] (framing can no longer be trusted).
    Error(WireError),
    /// The request was *shed* by admission control: the server's in-flight
    /// budget is exhausted. The client should back off and retry; nothing
    /// was executed.
    Overloaded {
        /// In-flight requests at the time of the rejection.
        in_flight: u32,
        /// The configured budget.
        budget: u32,
    },
    /// A completed insert.
    Inserted {
        /// Row id assigned to the appended row.
        row_id: u64,
    },
    /// Per-query outcomes of a [`Request::Batch`], in request order.
    Batch(Vec<BatchItem>),
    /// Answer to [`Request::Metrics`]: every metric rendered as Prometheus
    /// text exposition format, ready to proxy to a scraper.
    MetricsText(String),
    /// Answer to [`Request::Inspect`]: exactly the value
    /// [`aidx_core::Database::inspect`] returned on the server.
    Inspect(Inspection),
}

/// One query's outcome inside a [`Reply::Batch`].
#[derive(Debug, Clone, PartialEq)]
pub enum BatchItem {
    /// The query completed.
    Result(WireResult),
    /// The query failed (the rest of the batch still ran).
    Error(WireError),
}

/// A query result in wire form: qualifying positions, the optional
/// aggregate, and the projected rows.
///
/// Built from an engine [`QueryResult`] via [`WireResult::from_query_result`]
/// on the server; the load generator and the failure-path tests compare
/// [`WireResult::encoded`] bytes against an embedded-session baseline to
/// prove the wire path alters nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireResult {
    /// Positions of the qualifying rows in the base table.
    pub positions: Vec<RowId>,
    /// The aggregate value, when the query requested one.
    pub aggregate: Option<Value>,
    /// The projected rows (empty when the query projected no columns).
    pub rows: Vec<Vec<Value>>,
}

impl WireResult {
    /// Materialize an engine result for the wire.
    pub fn from_query_result(result: &QueryResult) -> Self {
        WireResult {
            positions: result.positions().as_slice().to_vec(),
            aggregate: result.aggregate().cloned(),
            rows: result.collect_rows(),
        }
    }

    /// Number of qualifying rows.
    pub fn row_count(&self) -> usize {
        self.positions.len()
    }

    /// The canonical byte encoding of this result (exactly what a
    /// [`Reply::Result`] frame carries after the opcode).
    pub fn encoded(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_result(&mut buf, self);
        buf
    }
}

// ---------------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => put_u8(buf, 0),
        Value::Int64(v) => {
            put_u8(buf, 1);
            put_i64(buf, *v);
        }
        Value::Float64(v) => {
            put_u8(buf, 2);
            put_u64(buf, v.to_bits());
        }
        Value::Utf8(s) => {
            put_u8(buf, 3);
            put_str(buf, s);
        }
    }
}

fn put_query(buf: &mut Vec<u8>, query: &Query) {
    put_str(buf, query.table_name());
    put_u16(buf, query.predicates().len() as u16);
    for predicate in query.predicates() {
        match predicate {
            Predicate::Range { column, low, high } => {
                put_u8(buf, 0);
                put_str(buf, column);
                put_i64(buf, *low);
                put_i64(buf, *high);
            }
            Predicate::Point { column, key } => {
                put_u8(buf, 1);
                put_str(buf, column);
                put_i64(buf, *key);
            }
            Predicate::InSet { column, keys } => {
                put_u8(buf, 2);
                put_str(buf, column);
                put_u32(buf, keys.len() as u32);
                for key in keys.iter() {
                    put_i64(buf, *key);
                }
            }
        }
    }
    put_u16(buf, query.projections().len() as u16);
    for column in query.projections() {
        put_str(buf, column);
    }
    match query.aggregation() {
        None => put_u8(buf, 0),
        Some((aggregation, column)) => {
            put_u8(buf, aggregation_tag(aggregation));
            put_str(buf, column);
        }
    }
}

fn aggregation_tag(aggregation: Aggregation) -> u8 {
    match aggregation {
        Aggregation::Count => 1,
        Aggregation::Sum => 2,
        Aggregation::Min => 3,
        Aggregation::Max => 4,
        Aggregation::Avg => 5,
    }
}

fn put_result(buf: &mut Vec<u8>, result: &WireResult) {
    put_u32(buf, result.positions.len() as u32);
    for &position in &result.positions {
        put_u32(buf, position);
    }
    match &result.aggregate {
        None => put_u8(buf, 0),
        Some(value) => {
            put_u8(buf, 1);
            put_value(buf, value);
        }
    }
    put_u32(buf, result.rows.len() as u32);
    for row in &result.rows {
        put_u16(buf, row.len() as u16);
        for value in row {
            put_value(buf, value);
        }
    }
}

fn put_wire_error(buf: &mut Vec<u8>, error: &WireError) {
    put_u16(buf, error.code as u16);
    put_str(buf, &error.message);
}

/// A `u32` element count followed by each element.
fn put_seq<T>(buf: &mut Vec<u8>, items: &[T], put: impl Fn(&mut Vec<u8>, &T)) {
    put_u32(buf, items.len() as u32);
    for item in items {
        put(buf, item);
    }
}

pub(crate) fn alert_state_tag(state: AlertState) -> u8 {
    match state {
        AlertState::Idle => 0,
        AlertState::Pending => 1,
        AlertState::Firing => 2,
    }
}

fn alert_event_kind_tag(kind: AlertEventKind) -> u8 {
    match kind {
        AlertEventKind::Pending => 0,
        AlertEventKind::Firing => 1,
        AlertEventKind::Resolved => 2,
        AlertEventKind::Cancelled => 3,
    }
}

fn put_alert_status(buf: &mut Vec<u8>, status: &AlertStatus) {
    put_str(buf, &status.rule);
    put_u8(buf, alert_state_tag(status.state));
    put_u32(buf, status.consecutive_breaches);
    put_u32(buf, status.healthy_intervals);
    put_str(buf, &status.observed);
    put_u64(buf, status.times_fired);
}

fn put_alert_event(buf: &mut Vec<u8>, event: &AlertEvent) {
    put_str(buf, &event.rule);
    put_u8(buf, alert_event_kind_tag(event.kind));
    put_u64(buf, event.tick);
    put_str(buf, &event.observed);
    put_seq(buf, &event.columns, |buf, column| put_str(buf, column));
}

fn put_delta(buf: &mut Vec<u8>, delta: &SnapshotDelta) {
    put_u64(buf, delta.interval_ns);
    put_seq(buf, &delta.counters, |buf, counter| {
        put_str(buf, &counter.name);
        put_u64(buf, counter.delta);
    });
    put_seq(buf, &delta.gauges, |buf, gauge| {
        put_str(buf, &gauge.name);
        put_i64(buf, gauge.level);
        put_i64(buf, gauge.delta);
    });
    put_seq(buf, &delta.histograms, |buf, histogram| {
        put_str(buf, &histogram.name);
        put_u64(buf, histogram.count);
        put_u64(buf, histogram.sum);
        put_seq(buf, &histogram.buckets, |buf, bucket| put_u64(buf, *bucket));
    });
}

fn put_inspection(buf: &mut Vec<u8>, inspection: &Inspection) {
    put_seq(buf, &inspection.traces, put_trace);
    put_seq(buf, &inspection.alerts, put_alert_status);
    put_seq(buf, &inspection.alert_events, put_alert_event);
    put_seq(buf, &inspection.history, put_delta);
}

fn put_trace(buf: &mut Vec<u8>, trace: &QueryTrace) {
    put_u64(buf, trace.elapsed_ns);
    put_seq(buf, &trace.events, |buf, event| match event {
        SpanEvent::Plan {
            driver_column,
            estimated_selectivity,
            residual_predicates,
        } => {
            put_u8(buf, SPAN_PLAN);
            match driver_column {
                None => put_u8(buf, 0),
                Some(column) => {
                    put_u8(buf, 1);
                    put_str(buf, column);
                }
            }
            put_u64(buf, estimated_selectivity.to_bits());
            put_u64(buf, *residual_predicates);
        }
        SpanEvent::IndexProbe {
            column,
            strategy,
            probes,
            pieces_before,
            pieces_after,
            effort_delta,
            rebuilt,
            lagging_scan,
        } => {
            put_u8(buf, SPAN_INDEX_PROBE);
            put_str(buf, column);
            put_str(buf, strategy);
            put_u64(buf, *probes);
            put_u64(buf, *pieces_before);
            put_u64(buf, *pieces_after);
            put_u64(buf, *effort_delta);
            put_u8(buf, u8::from(*rebuilt));
            put_u8(buf, u8::from(*lagging_scan));
        }
        SpanEvent::ZoneMapPrune {
            chunks_scanned,
            chunks_pruned,
        } => {
            put_u8(buf, SPAN_ZONE_MAP_PRUNE);
            put_u64(buf, *chunks_scanned);
            put_u64(buf, *chunks_pruned);
        }
        SpanEvent::ResidualFilter {
            column,
            candidates_in,
            rows_out,
        } => {
            put_u8(buf, SPAN_RESIDUAL_FILTER);
            put_str(buf, column);
            put_u64(buf, *candidates_in);
            put_u64(buf, *rows_out);
        }
        SpanEvent::Materialize { rows, aggregated } => {
            put_u8(buf, SPAN_MATERIALIZE);
            put_u64(buf, *rows);
            put_u8(buf, u8::from(*aggregated));
        }
    });
}

impl Request {
    /// Encode this request as a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Ping => put_u8(&mut buf, OP_PING),
            Request::Query(query) => {
                put_u8(&mut buf, OP_QUERY);
                put_query(&mut buf, query);
            }
            Request::Insert { table, values } => {
                put_u8(&mut buf, OP_INSERT);
                put_str(&mut buf, table);
                put_u32(&mut buf, values.len() as u32);
                for value in values {
                    put_value(&mut buf, value);
                }
            }
            Request::Batch(queries) => {
                put_u8(&mut buf, OP_BATCH);
                put_u32(&mut buf, queries.len() as u32);
                for query in queries {
                    put_query(&mut buf, query);
                }
            }
            Request::Metrics => put_u8(&mut buf, OP_METRICS),
            Request::Inspect => put_u8(&mut buf, OP_INSPECT),
        }
        buf
    }

    /// Decode a frame payload into a request.
    pub fn decode(payload: &[u8]) -> Result<Request, FrameError> {
        let mut r = Reader::new(payload);
        let opcode = r.take_u8()?;
        let request = match opcode {
            OP_PING => Request::Ping,
            OP_QUERY => Request::Query(take_query(&mut r)?),
            OP_INSERT => {
                let table = r.take_str()?;
                let count = r.take_count("insert value", 1)?;
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    values.push(take_value(&mut r)?);
                }
                Request::Insert { table, values }
            }
            OP_BATCH => {
                let count = r.take_count("batch query", 7)?;
                let mut queries = Vec::with_capacity(count);
                for _ in 0..count {
                    queries.push(take_query(&mut r)?);
                }
                Request::Batch(queries)
            }
            OP_METRICS => Request::Metrics,
            OP_INSPECT => Request::Inspect,
            tag => {
                return Err(FrameError::UnknownTag {
                    what: "request opcode",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(request)
    }
}

impl Reply {
    /// Encode this reply as a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Reply::Pong => put_u8(&mut buf, OP_PONG),
            Reply::Result(result) => {
                put_u8(&mut buf, OP_RESULT);
                put_result(&mut buf, result);
            }
            Reply::Error(error) => {
                put_u8(&mut buf, OP_ERROR);
                put_wire_error(&mut buf, error);
            }
            Reply::Overloaded { in_flight, budget } => {
                put_u8(&mut buf, OP_OVERLOADED);
                put_u32(&mut buf, *in_flight);
                put_u32(&mut buf, *budget);
            }
            Reply::Inserted { row_id } => {
                put_u8(&mut buf, OP_INSERTED);
                put_u64(&mut buf, *row_id);
            }
            Reply::Batch(items) => {
                put_u8(&mut buf, OP_BATCH_RESULT);
                put_u32(&mut buf, items.len() as u32);
                for item in items {
                    match item {
                        BatchItem::Result(result) => {
                            put_u8(&mut buf, 0);
                            put_result(&mut buf, result);
                        }
                        BatchItem::Error(error) => {
                            put_u8(&mut buf, 1);
                            put_wire_error(&mut buf, error);
                        }
                    }
                }
            }
            Reply::MetricsText(text) => {
                put_u8(&mut buf, OP_METRICS_TEXT);
                put_str(&mut buf, text);
            }
            Reply::Inspect(inspection) => {
                put_u8(&mut buf, OP_INSPECT_RESULT);
                put_inspection(&mut buf, inspection);
            }
        }
        buf
    }

    /// Decode a frame payload into a reply.
    pub fn decode(payload: &[u8]) -> Result<Reply, FrameError> {
        let mut r = Reader::new(payload);
        let opcode = r.take_u8()?;
        let reply = match opcode {
            OP_PONG => Reply::Pong,
            OP_RESULT => Reply::Result(take_result(&mut r)?),
            OP_ERROR => Reply::Error(take_wire_error(&mut r)?),
            OP_OVERLOADED => Reply::Overloaded {
                in_flight: r.take_u32()?,
                budget: r.take_u32()?,
            },
            OP_INSERTED => Reply::Inserted {
                row_id: r.take_u64()?,
            },
            OP_BATCH_RESULT => {
                let count = r.take_count("batch item", 1)?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    match r.take_u8()? {
                        0 => items.push(BatchItem::Result(take_result(&mut r)?)),
                        1 => items.push(BatchItem::Error(take_wire_error(&mut r)?)),
                        tag => {
                            return Err(FrameError::UnknownTag {
                                what: "batch item",
                                tag,
                            })
                        }
                    }
                }
                Reply::Batch(items)
            }
            OP_METRICS_TEXT => Reply::MetricsText(r.take_str()?),
            OP_INSPECT_RESULT => Reply::Inspect(take_inspection(&mut r)?),
            tag => {
                return Err(FrameError::UnknownTag {
                    what: "reply opcode",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(reply)
    }
}

// ---------------------------------------------------------------------------
// Decoding primitives
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over a frame payload.
struct Reader<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, offset: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.offset
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated);
        }
        let slice = &self.bytes[self.offset..self.offset + n];
        self.offset += n;
        Ok(slice)
    }

    fn take_u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn take_u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn take_u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn take_u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn take_i64(&mut self) -> Result<i64, FrameError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn take_str(&mut self) -> Result<String, FrameError> {
        let len = self.take_u32()? as usize;
        if len > self.remaining() {
            return Err(FrameError::CountOverflow {
                what: "string byte",
                count: len as u64,
            });
        }
        std::str::from_utf8(self.take(len)?)
            .map(str::to_owned)
            .map_err(|_| FrameError::BadUtf8)
    }

    /// Read a `u32` element count and validate it against the remaining
    /// payload, given a (conservative) minimum encoded size per element —
    /// this bounds `Vec::with_capacity` by the actual frame size, so a
    /// hostile count cannot force a huge allocation.
    fn take_count(
        &mut self,
        what: &'static str,
        min_bytes_each: usize,
    ) -> Result<usize, FrameError> {
        let count = self.take_u32()? as usize;
        if count.saturating_mul(min_bytes_each.max(1)) > self.remaining() {
            return Err(FrameError::CountOverflow {
                what,
                count: count as u64,
            });
        }
        Ok(count)
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(FrameError::TrailingBytes)
        }
    }
}

fn take_value(r: &mut Reader<'_>) -> Result<Value, FrameError> {
    match r.take_u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int64(r.take_i64()?)),
        2 => Ok(Value::Float64(f64::from_bits(r.take_u64()?))),
        3 => Ok(Value::Utf8(r.take_str()?)),
        tag => Err(FrameError::UnknownTag { what: "value", tag }),
    }
}

fn take_query(r: &mut Reader<'_>) -> Result<Query, FrameError> {
    let table = r.take_str()?;
    let mut query = Query::table(table);
    let predicates = r.take_u16()? as usize;
    for _ in 0..predicates {
        match r.take_u8()? {
            0 => {
                let column = r.take_str()?;
                let low = r.take_i64()?;
                let high = r.take_i64()?;
                query = query.range(column, low, high);
            }
            1 => {
                let column = r.take_str()?;
                let key = r.take_i64()?;
                query = query.point(column, key);
            }
            2 => {
                let column = r.take_str()?;
                let count = r.take_count("in-set key", 8)?;
                let mut keys = Vec::with_capacity(count);
                for _ in 0..count {
                    keys.push(r.take_i64()?);
                }
                query = query.in_set(column, keys);
            }
            tag => {
                return Err(FrameError::UnknownTag {
                    what: "predicate",
                    tag,
                })
            }
        }
    }
    let projections = r.take_u16()? as usize;
    let mut columns = Vec::with_capacity(projections.min(r.remaining()));
    for _ in 0..projections {
        columns.push(r.take_str()?);
    }
    if !columns.is_empty() {
        query = query.project(columns);
    }
    match r.take_u8()? {
        0 => {}
        tag @ 1..=5 => {
            let aggregation = match tag {
                1 => Aggregation::Count,
                2 => Aggregation::Sum,
                3 => Aggregation::Min,
                4 => Aggregation::Max,
                _ => Aggregation::Avg,
            };
            let column = r.take_str()?;
            query = query.aggregate(aggregation, column);
        }
        tag => {
            return Err(FrameError::UnknownTag {
                what: "aggregation",
                tag,
            })
        }
    }
    Ok(query)
}

fn take_result(r: &mut Reader<'_>) -> Result<WireResult, FrameError> {
    let positions_len = r.take_count("position", 4)?;
    let mut positions = Vec::with_capacity(positions_len);
    for _ in 0..positions_len {
        positions.push(r.take_u32()? as RowId);
    }
    let aggregate = match r.take_u8()? {
        0 => None,
        1 => Some(take_value(r)?),
        tag => {
            return Err(FrameError::UnknownTag {
                what: "aggregate presence",
                tag,
            })
        }
    };
    let rows_len = r.take_count("row", 2)?;
    let mut rows = Vec::with_capacity(rows_len);
    for _ in 0..rows_len {
        let arity = r.take_u16()? as usize;
        let mut row = Vec::with_capacity(arity.min(r.remaining()));
        for _ in 0..arity {
            row.push(take_value(r)?);
        }
        rows.push(row);
    }
    Ok(WireResult {
        positions,
        aggregate,
        rows,
    })
}

fn take_wire_error(r: &mut Reader<'_>) -> Result<WireError, FrameError> {
    let raw = r.take_u16()?;
    let code = ErrorCode::from_u16(raw).unwrap_or(ErrorCode::Internal);
    let message = r.take_str()?;
    Ok(WireError { code, message })
}

/// A `u32` element count (validated by [`Reader::take_count`] against
/// `min_bytes_each`) followed by each element.
fn take_seq<'a, T>(
    r: &mut Reader<'a>,
    what: &'static str,
    min_bytes_each: usize,
    take: impl Fn(&mut Reader<'a>) -> Result<T, FrameError>,
) -> Result<Vec<T>, FrameError> {
    let count = r.take_count(what, min_bytes_each)?;
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        items.push(take(r)?);
    }
    Ok(items)
}

fn take_inspection(r: &mut Reader<'_>) -> Result<Inspection, FrameError> {
    // minimum encoded sizes: trace = 8-byte elapsed + 4-byte event count;
    // status = two 4-byte string prefixes + 1-byte state + two 4-byte
    // streak counts + 8-byte fired; event = two string prefixes + 1-byte
    // kind + 8-byte tick + 4-byte column count; delta = 8-byte interval +
    // three 4-byte section counts
    Ok(Inspection {
        traces: take_seq(r, "trace", 12, take_trace)?,
        alerts: take_seq(r, "alert status", 25, take_alert_status)?,
        alert_events: take_seq(r, "alert event", 21, take_alert_event)?,
        history: take_seq(r, "history delta", 20, take_delta)?,
    })
}

fn take_alert_status(r: &mut Reader<'_>) -> Result<AlertStatus, FrameError> {
    let rule = r.take_str()?;
    let state = match r.take_u8()? {
        0 => AlertState::Idle,
        1 => AlertState::Pending,
        2 => AlertState::Firing,
        tag => {
            return Err(FrameError::UnknownTag {
                what: "alert state",
                tag,
            })
        }
    };
    Ok(AlertStatus {
        rule,
        state,
        consecutive_breaches: r.take_u32()?,
        healthy_intervals: r.take_u32()?,
        observed: r.take_str()?,
        times_fired: r.take_u64()?,
    })
}

fn take_alert_event(r: &mut Reader<'_>) -> Result<AlertEvent, FrameError> {
    let rule = r.take_str()?;
    let kind = match r.take_u8()? {
        0 => AlertEventKind::Pending,
        1 => AlertEventKind::Firing,
        2 => AlertEventKind::Resolved,
        3 => AlertEventKind::Cancelled,
        tag => {
            return Err(FrameError::UnknownTag {
                what: "alert event kind",
                tag,
            })
        }
    };
    Ok(AlertEvent {
        rule,
        kind,
        tick: r.take_u64()?,
        observed: r.take_str()?,
        // minimum encoded column: its 4-byte string length prefix
        columns: take_seq(r, "alert column", 4, Reader::take_str)?,
    })
}

fn take_delta(r: &mut Reader<'_>) -> Result<SnapshotDelta, FrameError> {
    Ok(SnapshotDelta {
        interval_ns: r.take_u64()?,
        // minimum encoded counter delta: 4-byte name prefix + 8-byte delta
        counters: take_seq(r, "counter delta", 12, |r| {
            Ok(CounterDelta {
                name: r.take_str()?,
                delta: r.take_u64()?,
            })
        })?,
        // minimum encoded gauge delta: name prefix + level + delta
        gauges: take_seq(r, "gauge delta", 20, |r| {
            Ok(GaugeDelta {
                name: r.take_str()?,
                level: r.take_i64()?,
                delta: r.take_i64()?,
            })
        })?,
        // minimum encoded histogram: name prefix + count + sum + bucket
        // count (the bucket count itself is checked exactly)
        histograms: take_seq(r, "windowed histogram", 24, take_histogram)?,
    })
}

/// A windowed histogram. The engine always emits exactly
/// [`HISTOGRAM_BUCKETS`] buckets, and any other count is rejected: the
/// quantile readout indexes bucket bounds by position, so a longer vector
/// would decode into a value that cannot be used.
fn take_histogram(r: &mut Reader<'_>) -> Result<HistogramSnapshot, FrameError> {
    let name = r.take_str()?;
    let count = r.take_u64()?;
    let sum = r.take_u64()?;
    let buckets_len = r.take_u32()?;
    if buckets_len as usize != HISTOGRAM_BUCKETS {
        return Err(FrameError::BadCount {
            what: "histogram bucket",
            count: u64::from(buckets_len),
        });
    }
    let buckets = (0..HISTOGRAM_BUCKETS)
        .map(|_| r.take_u64())
        .collect::<Result<_, _>>()?;
    Ok(HistogramSnapshot {
        name,
        count,
        sum,
        buckets,
    })
}

fn take_bool(r: &mut Reader<'_>, what: &'static str) -> Result<bool, FrameError> {
    match r.take_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(FrameError::UnknownTag { what, tag }),
    }
}

fn take_trace(r: &mut Reader<'_>) -> Result<QueryTrace, FrameError> {
    let elapsed_ns = r.take_u64()?;
    // minimum encoded span event: 1-byte tag + 8-byte rows + 1-byte flag
    // (Materialize, the smallest variant)
    let events = take_seq(r, "span event", 10, take_span_event)?;
    Ok(QueryTrace { events, elapsed_ns })
}

fn take_span_event(r: &mut Reader<'_>) -> Result<SpanEvent, FrameError> {
    Ok(match r.take_u8()? {
        SPAN_PLAN => SpanEvent::Plan {
            driver_column: match take_bool(r, "driver column presence")? {
                false => None,
                true => Some(r.take_str()?),
            },
            estimated_selectivity: f64::from_bits(r.take_u64()?),
            residual_predicates: r.take_u64()?,
        },
        SPAN_INDEX_PROBE => SpanEvent::IndexProbe {
            column: r.take_str()?,
            strategy: r.take_str()?,
            probes: r.take_u64()?,
            pieces_before: r.take_u64()?,
            pieces_after: r.take_u64()?,
            effort_delta: r.take_u64()?,
            rebuilt: take_bool(r, "rebuilt flag")?,
            lagging_scan: take_bool(r, "lagging-scan flag")?,
        },
        SPAN_ZONE_MAP_PRUNE => SpanEvent::ZoneMapPrune {
            chunks_scanned: r.take_u64()?,
            chunks_pruned: r.take_u64()?,
        },
        SPAN_RESIDUAL_FILTER => SpanEvent::ResidualFilter {
            column: r.take_str()?,
            candidates_in: r.take_u64()?,
            rows_out: r.take_u64()?,
        },
        SPAN_MATERIALIZE => SpanEvent::Materialize {
            rows: r.take_u64()?,
            aggregated: take_bool(r, "aggregated flag")?,
        },
        tag => {
            return Err(FrameError::UnknownTag {
                what: "span event",
                tag,
            })
        }
    })
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Why reading a frame off a stream failed.
#[derive(Debug)]
pub enum FrameReadError {
    /// The underlying stream failed (including mid-frame EOF, surfaced as
    /// [`io::ErrorKind::UnexpectedEof`]).
    Io(io::Error),
    /// The header announced a payload larger than the configured cap. The
    /// payload was *not* read; the stream can no longer be trusted to be at
    /// a frame boundary.
    Oversized {
        /// Announced payload length.
        announced: u64,
        /// The configured cap.
        max: usize,
    },
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameReadError::Oversized { announced, max } => {
                write!(f, "frame payload of {announced} bytes exceeds cap {max}")
            }
        }
    }
}

impl std::error::Error for FrameReadError {}

impl From<io::Error> for FrameReadError {
    fn from(e: io::Error) -> Self {
        FrameReadError::Io(e)
    }
}

/// Write one frame: header plus payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame's payload. Returns `Ok(None)` on a clean EOF *at a frame
/// boundary* (the peer closed between frames); an EOF inside a frame is an
/// [`io::ErrorKind::UnexpectedEof`] error.
pub fn read_frame(
    r: &mut impl Read,
    max_payload: usize,
) -> Result<Option<Vec<u8>>, FrameReadError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    // hand-rolled read_exact for the header so a boundary EOF is clean
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameReadError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > max_payload {
        return Err(FrameReadError::Oversized {
            announced: len as u64,
            max: max_payload,
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> Query {
        Query::table("orders")
            .range("o_key", 10, 500)
            .point("o_region", 3)
            .in_set("o_kind", [9, 1, 4])
            .project(["o_key", "o_label"])
            .aggregate(Aggregation::Sum, "o_key")
    }

    #[test]
    fn request_roundtrips() {
        let requests = [
            Request::Ping,
            Request::Query(sample_query()),
            Request::Query(Query::table("t")),
            Request::Insert {
                table: "orders".into(),
                values: vec![
                    Value::Int64(-7),
                    Value::Float64(2.5),
                    Value::Utf8("naïve".into()),
                    Value::Null,
                ],
            },
            Request::Batch(vec![sample_query(), Query::table("t").point("a", 1)]),
            Request::Batch(Vec::new()),
        ];
        for request in requests {
            let encoded = request.encode();
            assert_eq!(Request::decode(&encoded).unwrap(), request, "{request:?}");
        }
    }

    #[test]
    fn reply_roundtrips() {
        let result = WireResult {
            positions: vec![0, 5, 17],
            aggregate: Some(Value::Int64(42)),
            rows: vec![
                vec![Value::Int64(1), Value::Utf8("a".into())],
                vec![Value::Int64(2), Value::Null],
            ],
        };
        let replies = [
            Reply::Pong,
            Reply::Result(result.clone()),
            Reply::Result(WireResult::default()),
            Reply::Error(WireError::new(ErrorCode::Planner, "no driver")),
            Reply::Overloaded {
                in_flight: 64,
                budget: 64,
            },
            Reply::Inserted { row_id: 123 },
            Reply::Batch(vec![
                BatchItem::Result(result),
                BatchItem::Error(WireError::new(ErrorCode::Store, "unknown table")),
            ]),
        ];
        for reply in replies {
            let encoded = reply.encode();
            assert_eq!(Reply::decode(&encoded).unwrap(), reply, "{reply:?}");
        }
    }

    fn sample_trace() -> QueryTrace {
        QueryTrace {
            events: vec![
                SpanEvent::Plan {
                    driver_column: Some("ts".into()),
                    estimated_selectivity: 0.125,
                    residual_predicates: 1,
                },
                SpanEvent::IndexProbe {
                    column: "ts".into(),
                    strategy: "cracking".into(),
                    probes: 2,
                    pieces_before: 3,
                    pieces_after: 7,
                    effort_delta: 4096,
                    rebuilt: true,
                    lagging_scan: false,
                },
                SpanEvent::ZoneMapPrune {
                    chunks_scanned: 2,
                    chunks_pruned: 6,
                },
                SpanEvent::ResidualFilter {
                    column: "kind".into(),
                    candidates_in: 100,
                    rows_out: 20,
                },
                SpanEvent::Materialize {
                    rows: 20,
                    aggregated: true,
                },
            ],
            elapsed_ns: 123_456,
        }
    }

    fn sample_alerts() -> (Vec<AlertStatus>, Vec<AlertEvent>) {
        let status = vec![
            AlertStatus {
                rule: "shed-spike".into(),
                state: AlertState::Firing,
                consecutive_breaches: 3,
                healthy_intervals: 0,
                observed: "server.requests_shed rate 120.0/s > 50.0/s".into(),
                times_fired: 2,
            },
            AlertStatus {
                rule: "column-stalled".into(),
                state: AlertState::Idle,
                consecutive_breaches: 0,
                healthy_intervals: 0,
                observed: String::new(),
                times_fired: 0,
            },
        ];
        let events = vec![
            AlertEvent {
                rule: "shed-spike".into(),
                kind: AlertEventKind::Pending,
                tick: 4,
                observed: "naïve ★ evidence".into(),
                columns: vec![],
            },
            AlertEvent {
                rule: "column-stalled".into(),
                kind: AlertEventKind::Firing,
                tick: 9,
                observed: "verdict stalled".into(),
                columns: vec!["t.o_key".into(), "t.o_value".into()],
            },
        ];
        (status, events)
    }

    fn sample_history() -> Vec<SnapshotDelta> {
        let mut buckets = vec![0; HISTOGRAM_BUCKETS];
        buckets[1] = 7;
        buckets[17] = 35;
        vec![
            SnapshotDelta {
                interval_ns: 1_000_000,
                counters: vec![CounterDelta {
                    name: "engine.queries_served".into(),
                    delta: 42,
                }],
                gauges: vec![GaugeDelta {
                    name: "server.connections".into(),
                    level: -3,
                    delta: i64::MIN,
                }],
                histograms: vec![HistogramSnapshot {
                    name: "engine.query_ns".into(),
                    count: 42,
                    sum: 123_456,
                    buckets,
                }],
            },
            SnapshotDelta {
                interval_ns: 0,
                counters: vec![],
                gauges: vec![],
                histograms: vec![],
            },
        ]
    }

    /// An inspection with all four sections non-empty.
    fn sample_inspection() -> Inspection {
        let (alerts, alert_events) = sample_alerts();
        Inspection {
            traces: vec![sample_trace()],
            alerts,
            alert_events,
            history: sample_history(),
        }
    }

    #[test]
    fn metrics_and_traces_requests_and_replies_roundtrip() {
        for request in [Request::Metrics, Request::Inspect] {
            assert_eq!(Request::decode(&request.encode()).unwrap(), request);
        }
        let planless = QueryTrace {
            events: vec![SpanEvent::Plan {
                driver_column: None,
                estimated_selectivity: 1.0,
                residual_predicates: 0,
            }],
            elapsed_ns: 7,
        };
        let replies = [
            Reply::MetricsText(String::new()),
            Reply::MetricsText("# TYPE engine_queries_served counter\nnaïve 1\n".into()),
            Reply::Inspect(Inspection::default()),
            Reply::Inspect(Inspection {
                traces: vec![sample_trace(), planless],
                ..Inspection::default()
            }),
        ];
        for reply in replies {
            let encoded = reply.encode();
            assert_eq!(Reply::decode(&encoded).unwrap(), reply, "{reply:?}");
        }
    }

    /// Every strict prefix of `reply`'s encoding must decode to a typed
    /// truncation error, never a panic or a bogus reply.
    fn assert_every_cut_is_typed(reply: Reply) {
        let encoded = reply.encode();
        for cut in 1..encoded.len() {
            let err = Reply::decode(&encoded[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    FrameError::Truncated | FrameError::CountOverflow { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    /// Decodes an INSPECT reply made of `empty_sections` valid empty
    /// sections followed by whatever `tail` writes.
    fn decode_inspect_after_empty_sections(
        empty_sections: usize,
        tail: &dyn Fn(&mut Vec<u8>),
    ) -> FrameError {
        let mut buf = vec![OP_INSPECT_RESULT];
        for _ in 0..empty_sections {
            put_u32(&mut buf, 0);
        }
        tail(&mut buf);
        Reply::decode(&buf).unwrap_err()
    }

    #[test]
    fn truncated_inspect_replies_are_typed_errors_at_every_cut() {
        assert_every_cut_is_typed(Reply::Inspect(sample_inspection()));
        // a hostile count in each section, after valid empty sections
        for empty_sections in 0..4 {
            let err =
                decode_inspect_after_empty_sections(empty_sections, &|buf| put_u32(buf, u32::MAX));
            assert!(matches!(err, FrameError::CountOverflow { .. }), "{err:?}");
        }
        // trailing garbage after a well-formed empty inspection
        assert_eq!(
            decode_inspect_after_empty_sections(4, &|buf| buf.push(0)),
            FrameError::TrailingBytes
        );
    }

    #[test]
    fn truncated_traces_replies_are_typed_errors() {
        assert_every_cut_is_typed(Reply::Inspect(Inspection {
            traces: vec![sample_trace()],
            ..Inspection::default()
        }));
        // a reply claiming 4 billion traces in a tiny payload
        let err = decode_inspect_after_empty_sections(0, &|buf| put_u32(buf, u32::MAX));
        assert!(matches!(err, FrameError::CountOverflow { .. }), "{err:?}");
        // one trace claiming 4 billion span events
        let err = decode_inspect_after_empty_sections(0, &|buf| {
            put_u32(buf, 1);
            put_u64(buf, 0); // elapsed_ns
            put_u32(buf, u32::MAX);
        });
        assert!(matches!(err, FrameError::CountOverflow { .. }), "{err:?}");
    }

    #[test]
    fn truncated_alerts_replies_are_typed_errors_at_every_cut() {
        let (alerts, alert_events) = sample_alerts();
        assert_every_cut_is_typed(Reply::Inspect(Inspection {
            alerts,
            alert_events,
            ..Inspection::default()
        }));
        // hostile status count after an empty trace section
        let err = decode_inspect_after_empty_sections(1, &|buf| put_u32(buf, u32::MAX));
        assert!(matches!(err, FrameError::CountOverflow { .. }), "{err:?}");
        // hostile event count after a valid empty status section
        let err = decode_inspect_after_empty_sections(2, &|buf| put_u32(buf, u32::MAX));
        assert!(matches!(err, FrameError::CountOverflow { .. }), "{err:?}");
        // one event claiming 4 billion affected columns
        let err = decode_inspect_after_empty_sections(2, &|buf| {
            put_u32(buf, 1);
            put_str(buf, "r");
            put_u8(buf, 0);
            put_u64(buf, 1);
            put_str(buf, "");
            put_u32(buf, u32::MAX);
        });
        assert!(matches!(err, FrameError::CountOverflow { .. }), "{err:?}");
    }

    #[test]
    fn truncated_history_replies_are_typed_errors_at_every_cut() {
        assert_every_cut_is_typed(Reply::Inspect(Inspection {
            history: sample_history(),
            ..Inspection::default()
        }));
        // hostile delta count
        let err = decode_inspect_after_empty_sections(3, &|buf| put_u32(buf, u32::MAX));
        assert!(matches!(err, FrameError::CountOverflow { .. }), "{err:?}");
        // one delta claiming 4 billion counters
        let err = decode_inspect_after_empty_sections(3, &|buf| {
            put_u32(buf, 1);
            put_u64(buf, 0); // interval_ns
            put_u32(buf, u32::MAX);
        });
        assert!(matches!(err, FrameError::CountOverflow { .. }), "{err:?}");
    }

    #[test]
    fn hostile_histogram_bucket_counts_are_typed_errors() {
        let with_buckets = |buckets: Vec<u64>| {
            Reply::Inspect(Inspection {
                history: vec![SnapshotDelta {
                    interval_ns: 1,
                    counters: vec![],
                    gauges: vec![],
                    histograms: vec![HistogramSnapshot {
                        name: "engine.query_ns".into(),
                        count: u64::MAX,
                        sum: u64::MAX,
                        buckets,
                    }],
                }],
                ..Inspection::default()
            })
            .encode()
        };
        // one bucket too many would index past the last bucket bound
        for len in [HISTOGRAM_BUCKETS + 1, HISTOGRAM_BUCKETS - 1, 0] {
            assert_eq!(
                Reply::decode(&with_buckets(vec![0; len])).unwrap_err(),
                FrameError::BadCount {
                    what: "histogram bucket",
                    count: len as u64,
                }
            );
        }
        // bucket values whose running sum overflows decode, and every
        // readout stays total
        for value in [u64::MAX, u64::MAX / 10 * 9] {
            let decoded = Reply::decode(&with_buckets(vec![value; HISTOGRAM_BUCKETS])).unwrap();
            let Reply::Inspect(inspection) = decoded else {
                panic!("{decoded:?}");
            };
            let delta = &inspection.history[0];
            assert!(delta.histograms[0].p99().is_some());
            assert!(delta.render_text().contains("engine.query_ns"));
        }
    }

    #[test]
    fn hostile_span_tags_and_flags_are_typed_errors() {
        // an unknown span-event tag
        let mut buf = vec![OP_INSPECT_RESULT];
        put_u32(&mut buf, 1);
        put_u64(&mut buf, 0);
        put_u32(&mut buf, 1);
        put_u8(&mut buf, 9);
        buf.extend_from_slice(&[0u8; 16]); // satisfy the per-event size floor
        assert!(matches!(
            Reply::decode(&buf).unwrap_err(),
            FrameError::UnknownTag {
                what: "span event",
                tag: 9
            }
        ));
        // a Materialize whose aggregated flag is neither 0 nor 1
        let mut buf = vec![OP_INSPECT_RESULT];
        put_u32(&mut buf, 1);
        put_u64(&mut buf, 0);
        put_u32(&mut buf, 1);
        put_u8(&mut buf, SPAN_MATERIALIZE);
        put_u64(&mut buf, 5);
        put_u8(&mut buf, 2);
        assert!(matches!(
            Reply::decode(&buf).unwrap_err(),
            FrameError::UnknownTag {
                what: "aggregated flag",
                tag: 2
            }
        ));
    }

    #[test]
    fn trace_floats_roundtrip_bit_exactly() {
        for v in [0.0f64, -0.0, f64::NAN, 1.5e-300] {
            let reply = Reply::Inspect(Inspection {
                traces: vec![QueryTrace {
                    events: vec![SpanEvent::Plan {
                        driver_column: None,
                        estimated_selectivity: v,
                        residual_predicates: 0,
                    }],
                    elapsed_ns: 1,
                }],
                ..Inspection::default()
            });
            let decoded = Reply::decode(&reply.encode()).unwrap();
            match decoded {
                Reply::Inspect(inspection) => match &inspection.traces[0].events[0] {
                    SpanEvent::Plan {
                        estimated_selectivity,
                        ..
                    } => assert_eq!(estimated_selectivity.to_bits(), v.to_bits()),
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn alerts_and_history_requests_and_replies_roundtrip() {
        let (alerts, alert_events) = sample_alerts();
        for inspection in [
            sample_inspection(),
            Inspection {
                alerts,
                alert_events,
                ..Inspection::default()
            },
            Inspection {
                history: sample_history(),
                ..Inspection::default()
            },
        ] {
            let reply = Reply::Inspect(inspection);
            let encoded = reply.encode();
            assert_eq!(Reply::decode(&encoded).unwrap(), reply, "{reply:?}");
        }
    }

    #[test]
    fn hostile_alert_tags_are_typed_errors() {
        // an unknown state tag inside a status
        let mut buf = vec![OP_INSPECT_RESULT];
        put_u32(&mut buf, 0); // traces
        put_u32(&mut buf, 1);
        put_str(&mut buf, "r");
        put_u8(&mut buf, 7);
        buf.extend_from_slice(&[0u8; 20]); // satisfy the size floor
        assert!(matches!(
            Reply::decode(&buf).unwrap_err(),
            FrameError::UnknownTag {
                what: "alert state",
                tag: 7
            }
        ));
        // an unknown event-kind tag
        let mut buf = vec![OP_INSPECT_RESULT];
        put_u32(&mut buf, 0); // traces
        put_u32(&mut buf, 0); // alert states
        put_u32(&mut buf, 1);
        put_str(&mut buf, "r");
        put_u8(&mut buf, 9);
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            Reply::decode(&buf).unwrap_err(),
            FrameError::UnknownTag {
                what: "alert event kind",
                tag: 9
            }
        ));
    }

    #[test]
    fn truncated_and_trailing_payloads_are_typed_errors() {
        let encoded = Request::Query(sample_query()).encode();
        for cut in [0, 1, 5, encoded.len() - 1] {
            let err = Request::decode(&encoded[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    FrameError::Truncated | FrameError::CountOverflow { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
        let mut padded = encoded;
        padded.push(0);
        assert_eq!(
            Request::decode(&padded).unwrap_err(),
            FrameError::TrailingBytes
        );
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        // garbage, and the retired STATS/TRACES/ALERTS/HISTORY opcodes
        for tag in [0x7f, 0x05, 0x07, 0x08, 0x09] {
            assert_eq!(
                Request::decode(&[tag]).unwrap_err(),
                FrameError::UnknownTag {
                    what: "request opcode",
                    tag
                }
            );
        }
        for tag in [0x01, 0x87, 0x89, 0x8A, 0x8B] {
            assert_eq!(
                Reply::decode(&[tag]).unwrap_err(),
                FrameError::UnknownTag {
                    what: "reply opcode",
                    tag
                }
            );
        }
        // a QUERY whose predicate tag is garbage
        let mut buf = vec![OP_QUERY];
        put_str(&mut buf, "t");
        put_u16(&mut buf, 1);
        put_u8(&mut buf, 9);
        assert!(matches!(
            Request::decode(&buf).unwrap_err(),
            FrameError::UnknownTag {
                what: "predicate",
                tag: 9
            }
        ));
    }

    #[test]
    fn hostile_counts_cannot_force_allocations() {
        // an INSERT claiming 4 billion values in a 20-byte payload
        let mut buf = vec![OP_INSERT];
        put_str(&mut buf, "t");
        put_u32(&mut buf, u32::MAX);
        let err = Request::decode(&buf).unwrap_err();
        assert!(matches!(err, FrameError::CountOverflow { .. }), "{err:?}");
        // a string claiming to be longer than the payload
        let mut buf = vec![OP_QUERY];
        put_u32(&mut buf, 1_000_000);
        buf.extend_from_slice(b"abc");
        let err = Request::decode(&buf).unwrap_err();
        assert!(matches!(err, FrameError::CountOverflow { .. }), "{err:?}");
    }

    #[test]
    fn bad_utf8_is_a_typed_error() {
        let mut buf = vec![OP_QUERY];
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(Request::decode(&buf).unwrap_err(), FrameError::BadUtf8);
    }

    #[test]
    fn frame_io_roundtrips_and_rejects_oversized() {
        let payload = Request::Ping.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        write_frame(&mut wire, &payload).unwrap();
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(
            read_frame(&mut cursor, 1024).unwrap(),
            Some(payload.clone())
        );
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), Some(payload));
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), None, "clean eof");

        // oversized header: payload is not read
        let mut wire = Vec::new();
        wire.extend_from_slice(&1_000_000u32.to_le_bytes());
        let err = read_frame(&mut io::Cursor::new(wire), 1024).unwrap_err();
        assert!(matches!(
            err,
            FrameReadError::Oversized {
                announced: 1_000_000,
                max: 1024
            }
        ));
        assert!(err.to_string().contains("exceeds cap"));

        // eof inside the header
        let err = read_frame(&mut io::Cursor::new(vec![1u8, 0]), 1024).unwrap_err();
        match err {
            FrameReadError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("{other:?}"),
        }
        // eof inside the payload
        let mut wire = Vec::new();
        wire.extend_from_slice(&8u32.to_le_bytes());
        wire.extend_from_slice(&[1, 2, 3]);
        let err = read_frame(&mut io::Cursor::new(wire), 1024).unwrap_err();
        assert!(matches!(err, FrameReadError::Io(_)));
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::Oversized,
            ErrorCode::UnknownOpcode,
            ErrorCode::AtCapacity,
            ErrorCode::ShuttingDown,
            ErrorCode::Store,
            ErrorCode::InvalidRange,
            ErrorCode::Planner,
            ErrorCode::Strategy,
            ErrorCode::AggregateOverflow,
            ErrorCode::Config,
            ErrorCode::Io,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u16(code as u16), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(9999), None);
        let display = WireError::new(ErrorCode::Planner, "nope").to_string();
        assert!(display.contains("Planner") && display.contains("nope"));
    }

    #[test]
    fn float_values_roundtrip_bit_exactly() {
        for v in [0.0f64, -0.0, f64::INFINITY, f64::NAN, 1.5e-300] {
            let reply = Reply::Result(WireResult {
                positions: vec![],
                aggregate: Some(Value::Float64(v)),
                rows: vec![],
            });
            let decoded = Reply::decode(&reply.encode()).unwrap();
            match decoded {
                Reply::Result(r) => match r.aggregate {
                    Some(Value::Float64(back)) => assert_eq!(back.to_bits(), v.to_bits()),
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            }
        }
    }
}
