//! The client half of the wire protocol: a blocking connection handle.
//!
//! [`Client`] is intentionally symmetrical with the embedded
//! [`aidx_core::Session`] API: you hand it the same [`Query`] values a
//! session would execute, and you get back a [`WireResult`] that is
//! byte-for-byte what the server computed from its own session. An
//! admission-control shed surfaces as the matchable
//! [`ClientError::Overloaded`] — the caller decides whether to back off and
//! retry ([`Client::query_with_retry`] implements the obvious policy).

use crate::error::ClientError;
use crate::protocol::{
    read_frame, write_frame, BatchItem, Reply, Request, WireError, WireResult,
    DEFAULT_MAX_FRAME_BYTES,
};
use aidx_columnstore::types::Value;
use aidx_core::{Inspection, Query};
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A blocking client connection to an [`crate::Server`].
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    max_frame_bytes: usize,
}

/// Per-query outcome of [`Client::batch`].
pub type BatchOutcome = Vec<Result<WireResult, WireError>>;

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ClientError::Io)?;
        stream.set_nodelay(true).ok(); // request/reply traffic: latency over batching
        let writer = stream.try_clone().map_err(ClientError::Io)?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        })
    }

    /// Bound how long any single reply may take before the connection
    /// errors with [`std::io::ErrorKind::WouldBlock`]/`TimedOut` — the
    /// "zero hangs" guarantee the load generator asserts. `None` restores
    /// blocking reads.
    pub fn set_reply_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(ClientError::Io)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Ping)? {
            Reply::Pong => Ok(()),
            other => Err(unexpected(other, "pong")),
        }
    }

    /// Execute one query. An admission-control shed surfaces as
    /// [`ClientError::Overloaded`]; a typed engine failure as
    /// [`ClientError::Server`].
    pub fn query(&mut self, query: &Query) -> Result<WireResult, ClientError> {
        match self.roundtrip(&Request::Query(query.clone()))? {
            Reply::Result(result) => Ok(result),
            other => Err(unexpected(other, "query result")),
        }
    }

    /// Execute one query, retrying overload sheds up to `max_retries` times
    /// with the given backoff between attempts. Returns the result plus the
    /// number of sheds absorbed; any other error is returned immediately.
    pub fn query_with_retry(
        &mut self,
        query: &Query,
        max_retries: usize,
        backoff: Duration,
    ) -> Result<(WireResult, usize), ClientError> {
        let mut sheds = 0;
        loop {
            match self.query(query) {
                Ok(result) => return Ok((result, sheds)),
                Err(e) if e.is_overloaded() && sheds < max_retries => {
                    sheds += 1;
                    std::thread::sleep(backoff);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Execute many queries under one admission permit (one request frame,
    /// one reply frame). Per-query engine failures come back in-position;
    /// a shed rejects the whole batch as [`ClientError::Overloaded`].
    pub fn batch(&mut self, queries: &[Query]) -> Result<BatchOutcome, ClientError> {
        match self.roundtrip(&Request::Batch(queries.to_vec()))? {
            Reply::Batch(items) => Ok(items
                .into_iter()
                .map(|item| match item {
                    BatchItem::Result(result) => Ok(result),
                    BatchItem::Error(error) => Err(error),
                })
                .collect()),
            other => Err(unexpected(other, "batch result")),
        }
    }

    /// Fetch every metric the server sees rendered as Prometheus text
    /// exposition format: each `engine.*`, `maintenance.*` and `wal.*`
    /// metric of the served database, the `server.*` request counters and
    /// per-opcode latency histograms, and the alert-state and index-health
    /// gauges. Never shed by admission control — it stays answerable during
    /// overload.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(&Request::Metrics)? {
            Reply::MetricsText(text) => Ok(text),
            other => Err(unexpected(other, "metrics text")),
        }
    }

    /// Fetch the served database's [`Inspection`] (sampled traces, alert
    /// states and journal, reporter history): the same value
    /// [`aidx_core::Database::inspect`] returns on the server. Never shed
    /// by admission control — active alerts are exactly what an operator
    /// polls during an incident.
    pub fn inspect(&mut self) -> Result<Inspection, ClientError> {
        match self.roundtrip(&Request::Inspect)? {
            Reply::Inspect(inspection) => Ok(inspection),
            other => Err(unexpected(other, "inspection")),
        }
    }

    /// Append one row (one value per column, in schema order); returns the
    /// assigned row id.
    pub fn insert(&mut self, table: &str, values: &[Value]) -> Result<u64, ClientError> {
        let request = Request::Insert {
            table: table.to_owned(),
            values: values.to_vec(),
        };
        match self.roundtrip(&request)? {
            Reply::Inserted { row_id } => Ok(row_id),
            other => Err(unexpected(other, "insert acknowledgement")),
        }
    }

    /// Send one request frame and read exactly one reply frame.
    fn roundtrip(&mut self, request: &Request) -> Result<Reply, ClientError> {
        write_frame(&mut self.writer, &request.encode()).map_err(ClientError::Io)?;
        let payload =
            read_frame(&mut self.reader, self.max_frame_bytes)?.ok_or(ClientError::Disconnected)?;
        let reply = Reply::decode(&payload)?;
        match reply {
            Reply::Error(error) => Err(ClientError::Server(error)),
            Reply::Overloaded { in_flight, budget } => {
                Err(ClientError::Overloaded { in_flight, budget })
            }
            reply => Ok(reply),
        }
    }
}

fn unexpected(reply: Reply, expected: &'static str) -> ClientError {
    debug_assert!(
        !matches!(reply, Reply::Error(_) | Reply::Overloaded { .. }),
        "roundtrip already mapped error replies"
    );
    ClientError::UnexpectedReply { expected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crate::protocol::ErrorCode;
    use crate::server::Server;
    use aidx_columnstore::column::Column;
    use aidx_columnstore::table::Table;
    use aidx_core::{
        Aggregation, AlertCondition, AlertConfig, AlertRule, AlertState, Database, StrategyKind,
    };

    fn served_db() -> (Server, Database) {
        let db = Database::new(StrategyKind::Cracking);
        db.create_table(
            "events",
            Table::from_columns(vec![
                ("ts", Column::from_i64((0..200).rev().collect())),
                ("kind", Column::from_i64((0..200).map(|i| i % 5).collect())),
            ])
            .unwrap(),
        )
        .unwrap();
        let server = Server::start(db.clone(), ServerConfig::localhost()).unwrap();
        (server, db)
    }

    #[test]
    fn query_matches_embedded_session_byte_for_byte() {
        let (server, db) = served_db();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let query = Query::table("events")
            .range("ts", 50, 150)
            .point("kind", 2)
            .project(["ts", "kind"])
            .aggregate(Aggregation::Count, "ts");
        let over_the_wire = client.query(&query).unwrap();
        let embedded = WireResult::from_query_result(&db.session().execute(&query).unwrap());
        assert_eq!(over_the_wire, embedded);
        assert_eq!(over_the_wire.encoded(), embedded.encoded());
        server.shutdown();
    }

    #[test]
    fn insert_is_visible_to_subsequent_queries() {
        let (server, db) = served_db();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let row_id = client
            .insert("events", &[Value::Int64(999), Value::Int64(1)])
            .unwrap();
        assert_eq!(row_id, 200);
        let result = client
            .query(&Query::table("events").point("ts", 999))
            .unwrap();
        assert_eq!(result.row_count(), 1);
        assert_eq!(db.row_count("events").unwrap(), 201);
        server.shutdown();
    }

    #[test]
    fn engine_errors_are_typed_and_non_fatal() {
        let (server, _db) = served_db();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let err = client.query(&Query::table("no_such_table")).unwrap_err();
        match err {
            ClientError::Server(wire) => assert_eq!(wire.code, ErrorCode::Store),
            other => panic!("{other:?}"),
        }
        let err = client
            .query(&Query::table("events").range("ts", 10, 5))
            .unwrap_err();
        match err {
            ClientError::Server(wire) => assert_eq!(wire.code, ErrorCode::InvalidRange),
            other => panic!("{other:?}"),
        }
        // the connection survived both errors
        client.ping().unwrap();
        assert_eq!(server.stats().errors_sent, 2);
        server.shutdown();
    }

    #[test]
    fn batch_returns_per_query_outcomes_in_order() {
        let (server, db) = served_db();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let queries = vec![
            Query::table("events").range("ts", 0, 10),
            Query::table("missing").point("x", 1),
            Query::table("events").point("kind", 3).project(["ts"]),
        ];
        let outcomes = client.batch(&queries).unwrap();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].as_ref().unwrap().row_count(), 10);
        assert_eq!(outcomes[1].as_ref().unwrap_err().code, ErrorCode::Store);
        let expected = WireResult::from_query_result(&db.session().execute(&queries[2]).unwrap());
        assert_eq!(outcomes[2].as_ref().unwrap(), &expected);
        assert_eq!(server.stats().queries_served, 2, "two of three completed");
        let empty = client.batch(&[]).unwrap();
        assert!(empty.is_empty());
        server.shutdown();
    }

    #[test]
    fn metrics_text_is_prometheus_rendered_merged_snapshot() {
        let (server, _db) = served_db();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .query(&Query::table("events").range("ts", 20, 80))
            .unwrap();
        let text = client.metrics_text().unwrap();
        // engine and server families, Prometheus-sanitized names
        assert!(text.contains("engine_queries_served 1\n"), "{text}");
        assert!(text.contains("server_queries_served 1\n"), "{text}");
        assert!(text.contains("# TYPE engine_query_ns histogram"), "{text}");
        assert!(
            text.contains("engine_query_ns_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("server_query_ns_count 1\n"), "{text}");
        // the wire text and the embedded Server::stats() view read the same
        // counters
        assert_eq!(server.stats().queries_served, 1);
        // the METRICS dispatch itself is timed, and the next scrape sees it
        let text = client.metrics_text().unwrap();
        assert!(text.contains("server_metrics_ns_count 1\n"), "{text}");
        server.shutdown();
    }

    #[test]
    fn traces_returns_the_sampled_ring_over_the_wire() {
        let (server, db) = served_db();
        let mut client = Client::connect(server.local_addr()).unwrap();
        // default 1/64 sampling: the very first query is always sampled
        client
            .query(&Query::table("events").range("ts", 50, 150))
            .unwrap();
        let traces = client.inspect().unwrap().traces;
        assert_eq!(traces, db.inspect().traces, "wire view == embedded view");
        assert_eq!(traces.len(), 1);
        assert!(traces[0].refinement_effort() > 0, "the query cracked");
        server.shutdown();
    }

    #[test]
    fn alerts_and_history_round_trip_the_engine_surfaces() {
        let mut alert_config = AlertConfig::new();
        alert_config.rules = vec![AlertRule::new(
            "wire-traffic",
            AlertCondition::CounterRateAbove {
                counter: "server.queries_served".into(),
                per_second: 0.5,
            },
        )
        .for_intervals(1)
        .recovery_intervals(1)];
        let db = Database::builder()
            .default_strategy(StrategyKind::Cracking)
            .alerts(alert_config)
            .build();
        db.create_table(
            "events",
            Table::from_columns(vec![("ts", Column::from_i64((0..128).rev().collect()))]).unwrap(),
        )
        .unwrap();
        let server = Server::start(db.clone(), ServerConfig::localhost()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        // quiescent: one idle rule, empty journal, empty history ring
        let inspection = client.inspect().unwrap();
        assert_eq!(inspection.alerts.len(), 1);
        assert_eq!(inspection.alerts[0].rule, "wire-traffic");
        assert_eq!(inspection.alerts[0].state, AlertState::Idle);
        assert!(inspection.alert_events.is_empty());
        assert!(inspection.history.is_empty());

        // drive wire traffic, then complete reporter intervals: the rule's
        // counter only moves because the server instruments itself on the
        // engine's registry
        assert!(db.report_tick().is_none(), "first tick primes the baseline");
        for _ in 0..2 {
            client
                .query(&Query::table("events").range("ts", 0, 50))
                .unwrap();
            std::thread::sleep(Duration::from_millis(2));
            db.report_tick().expect("a completed interval");
        }
        let inspection = client.inspect().unwrap();
        assert_eq!(inspection.alerts[0].state, AlertState::Firing);
        assert!(inspection.alerts[0].times_fired >= 1);
        assert!(
            !inspection.alert_events.is_empty(),
            "journal travelled the wire"
        );
        // the wire view is the embedded view, field for field
        assert_eq!(inspection, db.inspect());
        assert_eq!(inspection.history.len(), 2);
        assert!(inspection.history.iter().any(|delta| delta
            .counters
            .iter()
            .any(|c| c.name == "server.queries_served" && c.delta > 0)));
        // the INSPECT dispatch arm is itself timed
        let text = client.metrics_text().unwrap();
        assert!(text.contains("server_inspect_ns_count 2\n"), "{text}");
        server.shutdown();
    }

    #[test]
    fn alert_states_and_index_health_are_scrapable_gauges() {
        let mut alert_config = AlertConfig::new();
        alert_config.rules = vec![AlertRule::new(
            "wire-traffic",
            AlertCondition::CounterRateAbove {
                counter: "server.queries_served".into(),
                per_second: 0.5,
            },
        )
        .for_intervals(1)
        .recovery_intervals(1)];
        let db = Database::builder()
            .default_strategy(StrategyKind::Cracking)
            .alerts(alert_config)
            .build();
        db.create_table(
            "events",
            Table::from_columns(vec![("ts", Column::from_i64((0..128).rev().collect()))]).unwrap(),
        )
        .unwrap();
        let server = Server::start(db.clone(), ServerConfig::localhost()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert!(db.report_tick().is_none(), "first tick primes the baseline");
        client
            .query(&Query::table("events").range("ts", 0, 50))
            .unwrap();
        std::thread::sleep(Duration::from_millis(2));
        db.report_tick().expect("a completed interval");
        let text = client.metrics_text().unwrap();
        assert!(text.contains("# TYPE aidx_alert_firing gauge"), "{text}");
        assert!(
            text.contains("aidx_alert_firing{rule=\"wire-traffic\"}"),
            "{text}"
        );
        assert!(
            text.contains("aidx_index_health{table=\"events\",column=\"ts\"}"),
            "{text}"
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_disconnects_clients_cleanly() {
        let (server, _db) = served_db();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.ping().unwrap();
        server.shutdown();
        let err = client.ping().unwrap_err();
        assert!(
            matches!(
                err,
                ClientError::Disconnected | ClientError::Io(_) | ClientError::Server(_)
            ),
            "{err:?}"
        );
    }
}
