//! The traced run: the chosen workload once untraced and once traced (their
//! difference is the tracing overhead), then one probe per layer. Every
//! probe calls a layer's public functions from here, inside spans recorded
//! by this crate; nothing is instrumented inside the program. Each
//! per-layer metric is printed beside the end-to-end metric and workload it
//! should move, and the workloads on which it should not.

use crate::inputs::{scan_digest, SEGMENT_CAPACITY};
use crate::measure::{median, Samples, Tracer};
use crate::{converge, ingest, metric, par2, serve, Metric, Run};
use aidx_columnstore::ops::project::fetch_i64;
use aidx_columnstore::ops::select::{scan_select_range, Predicate as ScanPredicate, PruneStats};
use aidx_core::partitioned::PARTITIONS_PER_WORKER;
use aidx_core::prelude::*;
use aidx_core::strategy::HybridKind;
use aidx_cracking::crack::{crack_in_three, crack_in_two, PivotSide};
use aidx_cracking::updates::UpdatableCrackedIndex;
use aidx_parallel::{parallel_scan_select, partition_keys};
use aidx_server::{Client, Reply, Request, Server, ServerConfig, WireResult};
use aidx_wal::{Wal, WalRecord};
use aidx_workloads::metrics::CostSeries;
use std::collections::BTreeMap;

/// One per-layer metric and its prediction: which end-to-end metric it
/// should move, on which workload, and on which it should not.
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
    pub not_on: &'static str,
}

const fn row(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
    not_on: &'static str,
) -> Row {
    Row {
        name,
        unit,
        moves,
        on,
        not_on,
    }
}

const REF: &str = "reference row";
const FIRST_CUM: &str = "first_query_ms, cumulative_s";

/// Every per-layer metric, in report order: name, unit, the end-to-end
/// metrics it should move, the workloads it should move them on, and the
/// workloads on which it should not.
#[rustfmt::skip]
pub const LAYERS: &[Row] = &[
    row("strategy.cracking.first_ms", "ms", "first_query_ms", "converge", "serve"),
    row("strategy.cracking.cumulative_ms", "ms", "cumulative_s", "converge", "serve"),
    row("strategy.stochastic-cracking.first_ms", "ms", REF, "converge", "serve"),
    row("strategy.stochastic-cracking.cumulative_ms", "ms", REF, "converge", "serve"),
    row("strategy.full-sort.first_ms", "ms", REF, "converge", "serve"),
    row("strategy.full-sort.cumulative_ms", "ms", REF, "converge", "serve"),
    row("strategy.adaptive-merging.first_ms", "ms", REF, "converge", "serve"),
    row("strategy.adaptive-merging.cumulative_ms", "ms", REF, "converge", "serve"),
    row("strategy.hybrid-crack-sort.first_ms", "ms", REF, "converge", "serve"),
    row("strategy.hybrid-crack-sort.cumulative_ms", "ms", REF, "converge", "serve"),
    row("strategy.hybrid-radix-radix.first_ms", "ms", REF, "converge", "serve"),
    row("strategy.hybrid-radix-radix.cumulative_ms", "ms", REF, "converge", "serve"),
    row("strategy.full-scan.first_ms", "ms", REF, "converge", "serve"),
    row("cracking.crack_in_two_ns_per_key", "ns/key", FIRST_CUM, "converge, par2", "serve"),
    row("cracking.crack_in_three_ns_per_key", "ns/key", FIRST_CUM, "converge, par2", "serve"),
    row("cracking.effort_total", "count", "cumulative_s", "converge", "-"),
    row("cracking.queries_to_converge", "count", "cumulative_s", "converge", "-"),
    row("cracking.aux_bytes_per_row", "B/row", "peak_rss_mb", "converge", "-"),
    row("session.snapshot_us", "us", "query_p50_us, qps", "serve", "-"),
    row("executor.plan_us", "us", "query_p50_us, qps", "serve", "-"),
    row("executor.probe_us", "us", "query_p50_us", "converge", "-"),
    row("executor.execute_us", "us", "query_p50_us", "converge", "-"),
    row("executor.materialize_ns_per_row", "ns/row", "query_p50_us, cumulative_s", "par2, ingest", "-"),
    row("executor.keys_examined_per_row", "key/row", "query_p50_us, cumulative_s", "par2, ingest", "-"),
    row("columnstore.scan_ns_per_key", "ns/key", FIRST_CUM, "par2, ingest", "serve"),
    row("columnstore.fetch_ns_per_row", "ns/row", FIRST_CUM, "par2, ingest", "serve"),
    row("columnstore.zone_pruned_frac", "ratio", FIRST_CUM, "par2, ingest", "serve"),
    row("parallel.pool_run_us", "us", FIRST_CUM, "par2", "converge"),
    row("parallel.partition_keys_ms.w1", "ms", FIRST_CUM, "par2", "converge"),
    row("parallel.partition_keys_ms.w2", "ms", FIRST_CUM, "par2", "converge"),
    row("parallel.partition_keys.w2_over_w1", "ratio", FIRST_CUM, "par2", "converge"),
    row("parallel.scan_ms.w1", "ms", FIRST_CUM, "par2", "converge"),
    row("parallel.scan_ms.w2", "ms", FIRST_CUM, "par2", "converge"),
    row("parallel.scan.w2_over_w1", "ratio", FIRST_CUM, "par2", "converge"),
    row("parallel.first_touch_ms.w1", "ms", FIRST_CUM, "par2", "converge"),
    row("parallel.first_touch_ms.w2", "ms", FIRST_CUM, "par2", "converge"),
    row("parallel.first_touch.w2_over_w1", "ratio", FIRST_CUM, "par2", "converge"),
    row("updates.insert_ns", "ns", "query_p50_us, query_p99_us", "ingest", "converge"),
    row("updates.query_us.p50", "us", "query_p50_us, query_p99_us", "ingest", "converge"),
    row("updates.query_us.p99", "us", "query_p50_us, query_p99_us", "ingest", "converge"),
    row("updates.pending_at_end", "count", "query_p50_us, query_p99_us", "ingest", "converge"),
    row("wal.append_us", "us", "insert_p50_us, insert_p99_us, disk_bytes_per_row", "ingest", "-"),
    row("wal.sync_us", "us", "insert_p50_us, insert_p99_us, disk_bytes_per_row", "ingest", "-"),
    row("wal.fsyncs_per_1k_rows", "count", "insert_p50_us, insert_p99_us, disk_bytes_per_row", "ingest", "-"),
    row("wal.bytes_per_row", "B/row", "insert_p50_us, insert_p99_us, disk_bytes_per_row", "ingest", "-"),
    row("durability.checkpoint_ms", "ms", "insert_p99_us", "ingest", "-"),
    row("durability.recover_s", "s", "insert_p99_us", "ingest", "-"),
    row("maintenance.compact_ms", "ms", "insert_p99_us", "ingest", "-"),
    row("protocol.request_encode_ns", "ns", "qps, query_p50_us", "serve", "converge"),
    row("protocol.request_decode_ns", "ns", "qps, query_p50_us", "serve", "converge"),
    row("protocol.reply_encode_ns", "ns", "qps, query_p50_us", "serve", "converge"),
    row("protocol.reply_decode_ns", "ns", "qps, query_p50_us", "serve", "converge"),
    row("protocol.reply_bytes", "B", "qps, query_p50_us", "serve", "converge"),
    row("server.ping_rtt_us", "us", "qps, query_p99_us", "serve", "-"),
    row("server.wire_overhead_us", "us", "qps, query_p99_us", "serve", "-"),
    row("admission.shed_frac", "ratio", "qps, query_p99_us", "serve", "-"),
    row("loadgen.late_ms", "ms", "qps, query_p99_us", "serve", "-"),
    row("telemetry.overhead_frac", "ratio", "cumulative_s (predicted ~0)", "all", "-"),
    row("trace.overhead_frac", "ratio", "cumulative_s (predicted ~0)", "all", "-"),
];

/// The strategies replayed over `converge`'s keys and queries.
const STRATEGIES: [StrategyKind; 6] = [
    StrategyKind::Cracking,
    StrategyKind::StochasticCracking,
    StrategyKind::FullSort,
    StrategyKind::AdaptiveMerging { run_size: 1 << 14 },
    StrategyKind::Hybrid {
        algorithm: HybridKind::CrackSort,
    },
    StrategyKind::Hybrid {
        algorithm: HybridKind::RadixRadix,
    },
];
/// Queries of `converge` each strategy replays (a prefix: the early,
/// index-building part of the sequence, where the strategies differ).
const STRATEGY_QUERIES: usize = 1_000;
/// Queries per side of the telemetry on/off comparison.
const TELEMETRY_QUERIES: usize = 1_500;
/// `par2` queries replayed for the executor and column-store probes.
const PAR2_PROBE_QUERIES: usize = 600;
/// Hot `serve` queries replayed embedded and over the wire.
const SERVE_PROBE_QUERIES: usize = 5_000;
/// Calls per timed batch for nanosecond-scale functions.
const BATCH: usize = 1_000;

/// The result of the traced run.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Collected metric values plus answer checks.
#[derive(Default)]
struct Probe {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Probe {
    fn set(&mut self, name: &str, value: f64) {
        let row = LAYERS
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the layer table"));
        self.values.insert(row.name, value);
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong += 1;
            println!("[trace] wrong answer: {what}");
        }
    }

    fn absorb_run(&mut self, run: &Run) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        self.wrong += run.wrong;
        for problem in &run.problems {
            println!("[trace] problem: {problem}");
        }
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// `converge`'s keys and queries through each strategy's `AdaptiveIndex`,
/// and plain scans through `StrategyKind::FullScan` for the first query.
fn strategies(tr: &mut Tracer, inputs: &converge::Inputs, p: &mut Probe) {
    let keys = &inputs.columns[0];
    for kind in STRATEGIES.iter().chain([&StrategyKind::FullScan]) {
        let label = kind.label();
        let (mut index, build_ns) = tr.timed("strategy.build", |_| kind.build(keys));
        let queries = if *kind == StrategyKind::FullScan {
            1
        } else {
            STRATEGY_QUERIES
        };
        let mut total_ns = build_ns;
        let mut first_ns = 0;
        for i in 0..queries {
            let (low, high) = inputs.ranges[i];
            let (out, ns) = tr.timed("strategy.query_range", |_| index.query_range(low, high));
            total_ns += ns;
            if i == 0 {
                first_ns = total_ns;
            }
            p.check(
                &format!("{label} query {i}"),
                out.count() == inputs.expected[i].0,
            );
        }
        println!(
            "[trace] strategy {label:<20} first {:>9.3} ms  cumulative({queries}) {:>10.3} ms",
            ms(first_ns as f64),
            ms(total_ns as f64)
        );
        p.set(&format!("strategy.{label}.first_ms"), ms(first_ns as f64));
        if *kind != StrategyKind::FullScan {
            p.set(
                &format!("strategy.{label}.cumulative_ms"),
                ms(total_ns as f64),
            );
        }
    }
}

/// `crack_in_two` / `crack_in_three` over a fresh copy of the column, five
/// times each; nanoseconds per key of the median pass.
fn crack_kernels(tr: &mut Tracer, inputs: &converge::Inputs, p: &mut Probe) {
    let keys = &inputs.columns[0];
    let n = keys.len();
    let domain = 4 * n as Key;
    let (low, high) = (domain / 3, 2 * domain / 3);
    let mut two = Vec::new();
    let mut three = Vec::new();
    for _ in 0..5 {
        let mut values = keys.clone();
        let mut rowids: Vec<RowId> = (0..n as RowId).collect();
        let (split, ns) = tr.timed("cracking.crack_in_two", |_| {
            crack_in_two(&mut values, &mut rowids, 0, n, low, PivotSide::Left)
        });
        two.push(ns as f64 / n as f64);
        p.check(
            "crack_in_two split",
            split == scan_digest(keys, Key::MIN, low).0,
        );
        let mut values = keys.clone();
        let mut rowids: Vec<RowId> = (0..n as RowId).collect();
        let (split, ns) = tr.timed("cracking.crack_in_three", |_| {
            crack_in_three(&mut values, &mut rowids, 0, n, low, high)
        });
        three.push(ns as f64 / n as f64);
        p.check(
            "crack_in_three split",
            split.high_split - split.low_split == scan_digest(keys, low, high).0,
        );
    }
    p.set("cracking.crack_in_two_ns_per_key", median(&two));
    p.set("cracking.crack_in_three_ns_per_key", median(&three));
}

/// The whole `converge` sequence through `Session::execute` with the
/// effort counter read after every query, then the same queries through a
/// bare `IndexManager` (the probe without the executor around it).
fn converge_counts(tr: &mut Tracer, inputs: &converge::Inputs, p: &mut Probe) {
    let db = inputs.load(StrategyKind::Cracking, true);
    let mut run = Run::default();
    let mut effort = Vec::with_capacity(converge::QUERIES);
    converge::run_hot(
        &db,
        inputs,
        converge::QUERIES,
        tr,
        &mut run,
        Some(&mut effort),
    );
    p.absorb_run(&run);
    p.set("executor.execute_us", us(run.query.median_ns()));
    p.set("cracking.effort_total", db.total_effort() as f64);
    let deltas: Vec<f64> = std::iter::once(0)
        .chain(effort.iter().copied())
        .collect::<Vec<u64>>()
        .windows(2)
        .map(|w| (w[1] - w[0]) as f64)
        .collect();
    let tail = &deltas[deltas.len() * 9 / 10..];
    let converged_level = median(tail);
    // converged: 10 queries in a row within 2x the effort of the last tenth
    let series = CostSeries::from_costs("cracking", deltas.clone());
    let to_converge = series
        .queries_to_convergence(converged_level, 1.0, 10)
        .unwrap_or(deltas.len());
    p.set("cracking.queries_to_converge", to_converge as f64);
    let info = db
        .index_stats()
        .into_iter()
        .find(|i| i.column.column() == "c0")
        .expect("the hot column is indexed");
    p.set(
        "cracking.aux_bytes_per_row",
        info.auxiliary_bytes as f64 / info.tuples.max(1) as f64,
    );
    drop(db);

    let manager = IndexManager::new(StrategyKind::Cracking);
    let column = ColumnId::new("t", "c0");
    let keys = &inputs.columns[0];
    let mut probe = Samples::default();
    for i in 0..converge::QUERIES {
        let (low, high) = inputs.ranges[i];
        let (out, ns) = tr.timed("manager.query_range", |_| {
            manager.query_range(&column, keys, low, high)
        });
        probe.push(std::time::Duration::from_nanos(ns));
        if i % 100 == 0 {
            p.check(
                &format!("manager query {i}"),
                out.count() == inputs.expected[i].0,
            );
        }
    }
    p.set("executor.probe_us", us(probe.median_ns()));
}

/// A `converge` prefix on fresh databases with telemetry on and off,
/// alternating, two of each.
fn telemetry_overhead(inputs: &converge::Inputs, p: &mut Probe) {
    let mut on = Vec::new();
    let mut off = Vec::new();
    for round in 0..4 {
        let enabled = round % 2 == 0;
        let db = inputs.load(StrategyKind::Cracking, enabled);
        let mut run = Run::default();
        let busy = converge::run_hot(
            &db,
            inputs,
            TELEMETRY_QUERIES,
            &mut Tracer::new(false),
            &mut run,
            None,
        );
        p.absorb_run(&run);
        if enabled {
            on.push(busy)
        } else {
            off.push(busy)
        }
    }
    let (on, off) = (median(&on), median(&off));
    println!("[trace] telemetry on {on:.4} s vs off {off:.4} s over {TELEMETRY_QUERIES} queries");
    p.set("telemetry.overhead_frac", on / off - 1.0);
}

/// Snapshot, plan, codec, embedded-vs-wire and open-loop probes on
/// `serve`'s table.
fn serve_layers(tr: &mut Tracer, inputs: &serve::Inputs, p: &mut Probe) {
    let db = inputs.load();
    let session = db.session();
    // converge the hot set embedded, as the workload's warm-up does over
    // the wire
    for op in &inputs.ops[..serve::WARMUP] {
        let _ = session.execute(&op.query());
    }
    let hot: Vec<Query> = inputs.ops[serve::WARMUP..serve::WARMUP + SERVE_PROBE_QUERIES]
        .iter()
        .map(|op| op.query())
        .collect();
    let mut snapshot = Samples::default();
    let mut plan = Samples::default();
    let mut embedded = Samples::default();
    for query in &hot {
        let (_, ns) = tr.timed("db.table_snapshot", |_| db.table_snapshot("s"));
        snapshot.push(std::time::Duration::from_nanos(ns));
        let (_, ns) = tr.timed("session.explain", |_| session.explain(query));
        plan.push(std::time::Duration::from_nanos(ns));
        let (_, ns) = tr.timed("session.execute", |_| session.execute(query));
        embedded.push(std::time::Duration::from_nanos(ns));
    }
    p.set("session.snapshot_us", us(snapshot.median_ns()));
    p.set("executor.plan_us", us(plan.median_ns()));

    // the codec on the mix's typical request and reply
    let query = hot
        .iter()
        .zip(&inputs.ops[serve::WARMUP..])
        .find(|(_, op)| matches!(op, serve::Op::Range(..)))
        .map(|(q, _)| q.clone())
        .expect("the mix has ranges");
    let request = Request::Query(query.clone());
    let result = session.execute(&query).expect("typical query runs");
    let reply = Reply::Result(WireResult::from_query_result(&result));
    let request_bytes = request.encode();
    let reply_bytes = reply.encode();
    let per_call = |tr: &mut Tracer, name: &'static str, f: &dyn Fn() -> usize| {
        let mut batches = Vec::new();
        for _ in 0..20 {
            let (_, ns) = tr.timed(name, |_| (0..BATCH).map(|_| f()).sum::<usize>());
            batches.push(ns as f64 / BATCH as f64);
        }
        median(&batches)
    };
    let v = per_call(tr, "protocol.request_encode", &|| request.encode().len());
    p.set("protocol.request_encode_ns", v);
    let v = per_call(tr, "protocol.request_decode", &|| {
        usize::from(Request::decode(&request_bytes).is_ok())
    });
    p.set("protocol.request_decode_ns", v);
    let v = per_call(tr, "protocol.reply_encode", &|| reply.encode().len());
    p.set("protocol.reply_encode_ns", v);
    let v = per_call(tr, "protocol.reply_decode", &|| {
        usize::from(Reply::decode(&reply_bytes).is_ok())
    });
    p.set("protocol.reply_decode_ns", v);
    p.set("protocol.reply_bytes", reply_bytes.len() as f64);
    p.check(
        "reply round trip",
        Reply::decode(&reply_bytes).ok() == Some(reply.clone()),
    );

    // the same hot queries over the wire on one connection
    let server = Server::start(db.clone(), ServerConfig::default()).expect("bind a loopback port");
    let mut client = Client::connect(server.local_addr()).expect("connect over loopback");
    let mut ping = Samples::default();
    for _ in 0..2_000 {
        let (ok, ns) = tr.timed("client.ping", |_| client.ping().is_ok());
        ping.push(std::time::Duration::from_nanos(ns));
        p.check("ping", ok);
    }
    p.set("server.ping_rtt_us", us(ping.median_ns()));
    let mut wire = Samples::default();
    for (i, query) in hot.iter().enumerate() {
        let (reply, ns) = tr.timed("client.query", |_| client.query(query));
        wire.push(std::time::Duration::from_nanos(ns));
        let op = serve::WARMUP + i;
        p.check(
            &format!("serve op {op} over the wire"),
            reply.as_ref().map(serve::digest).ok() == Some(inputs.expected[op]),
        );
    }
    println!(
        "[trace] serve p50: wire {:.2} us, embedded {:.2} us over {} queries",
        us(wire.median_ns()),
        us(embedded.median_ns()),
        hot.len()
    );
    p.set(
        "server.wire_overhead_us",
        us(wire.median_ns() - embedded.median_ns()),
    );
    drop(client);

    // one open-loop phase at the workload's offered rate, for the slip
    let mut clients: Vec<Client> = (0..serve::CONNECTIONS)
        .map(|_| Client::connect(server.local_addr()).expect("connect over loopback"))
        .collect();
    let (_, legs) = serve::phase(
        &mut clients,
        inputs,
        serve::Phase::Open,
        Some(serve::OPEN_RATE),
        tr,
    );
    let mut late = Samples::default();
    for leg in &legs {
        late.extend(&leg.late);
    }
    p.set("loadgen.late_ms", ms(late.quantile_ns(0.99)));
    let stats = server.stats();
    p.set(
        "admission.shed_frac",
        stats.requests_shed as f64 / (stats.queries_served + stats.requests_shed).max(1) as f64,
    );
    drop(clients);
    server.stop();
}

/// Executor and column-store probes on `par2`'s table, and the parallel
/// kernels at one and two workers on equal work.
fn par2_layers(tr: &mut Tracer, inputs: &par2::Inputs, p: &mut Probe) {
    let db = inputs.load();
    let session = db.session();
    let (mut rows, mut rows_ns) = (0usize, 0u64);
    let mut prune = PruneStats::default();
    for (i, conjunct) in inputs.queries[..PAR2_PROBE_QUERIES].iter().enumerate() {
        let query = conjunct.query();
        let result = tr.span("session.execute", |_| session.execute(&query));
        let Ok(result) = result else {
            p.check(&format!("par2 query {i} errored"), false);
            continue;
        };
        let (got, ns) = tr.timed("result.rows", |_| par2::sum_rows(&result));
        p.check(&format!("par2 query {i}"), got == inputs.expected[i]);
        rows += result.row_count();
        rows_ns += ns;
        prune += result.prune_stats();
    }
    p.set(
        "executor.materialize_ns_per_row",
        rows_ns as f64 / rows.max(1) as f64,
    );
    p.set(
        "executor.keys_examined_per_row",
        (prune.chunks_scanned * SEGMENT_CAPACITY) as f64 / rows.max(1) as f64,
    );
    p.set("columnstore.zone_pruned_frac", prune.pruned_fraction());
    drop(session);
    drop(db);

    let keys = &inputs.columns[0];
    let n = keys.len();
    let column = Column::from_i64(keys.clone()).with_segment_capacity(SEGMENT_CAPACITY);
    let (low, high) = inputs.queries[0].range;
    let predicate = ScanPredicate::range(low, high);
    let want = scan_digest(keys, low, high).0;
    let mut scan = Vec::new();
    let mut fetch = Vec::new();
    for _ in 0..15 {
        let (positions, ns) = tr.timed("columnstore.scan_select_range", |_| {
            scan_select_range(&column, &predicate)
        });
        scan.push(ns as f64 / n as f64);
        p.check("scan_select_range count", positions.len() == want);
        let (fetched, ns) = tr.timed("columnstore.fetch_i64", |_| fetch_i64(&column, &positions));
        fetch.push(ns as f64 / positions.len().max(1) as f64);
        p.check("fetch_i64", fetched.iter().all(|k| (low..high).contains(k)));
    }
    p.set("columnstore.scan_ns_per_key", median(&scan));
    p.set("columnstore.fetch_ns_per_row", median(&fetch));

    let segment = column.as_i64().expect("an Int64 column");
    let pools = [ThreadPool::new(1), ThreadPool::new(2)];
    let mut round_trip = Samples::default();
    for _ in 0..2_000 {
        let (_, ns) = tr.timed("parallel.pool_run", |_| pools[1].run(2, |_| ()));
        round_trip.push(std::time::Duration::from_nanos(ns));
    }
    p.set("parallel.pool_run_us", us(round_trip.median_ns()));
    // the partition count the engine uses at parallelism 2, for both pools
    let partitions = 2 * PARTITIONS_PER_WORKER;
    let mut results = Vec::new();
    for pool in &pools {
        let (mut part, mut scan, mut first) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..7 {
            let (split, ns) = tr.timed("parallel.partition_keys", |_| {
                partition_keys(pool, keys, partitions)
            });
            part.push(ms(ns as f64));
            p.check("partition_keys size", split.len() == n);
            let ((positions, _), ns) = tr.timed("parallel.scan_select", |_| {
                parallel_scan_select(pool, segment, &predicate)
            });
            scan.push(ms(ns as f64));
            p.check("parallel_scan_select count", positions.len() == want);
            let (answer, ns) = tr.timed("parallel.first_touch", |_| {
                let scattered = partition_keys(pool, keys, partitions).into_parts();
                let index = PartitionedIndex::build(
                    pool,
                    scattered,
                    StrategyKind::Cracking,
                    &StrategyTuning::default(),
                );
                index.query_range(pool, low, high, n)
            });
            first.push(ms(ns as f64));
            p.check("partitioned first touch count", answer.len() == want);
        }
        results.push((median(&part), median(&scan), median(&first)));
    }
    let [(p1, s1, f1), (p2, s2, f2)] = [results[0], results[1]];
    println!(
        "[trace] parallel partition_keys {p1:.3} ms (w1) vs {p2:.3} ms (w2): w2/w1 = {:.3}",
        p2 / p1
    );
    println!(
        "[trace] parallel scan           {s1:.3} ms (w1) vs {s2:.3} ms (w2): w2/w1 = {:.3}",
        s2 / s1
    );
    println!(
        "[trace] parallel first touch    {f1:.3} ms (w1) vs {f2:.3} ms (w2): w2/w1 = {:.3}",
        f2 / f1
    );
    p.set("parallel.partition_keys_ms.w1", p1);
    p.set("parallel.partition_keys_ms.w2", p2);
    p.set("parallel.partition_keys.w2_over_w1", p2 / p1);
    p.set("parallel.scan_ms.w1", s1);
    p.set("parallel.scan_ms.w2", s2);
    p.set("parallel.scan.w2_over_w1", s2 / s1);
    p.set("parallel.first_touch_ms.w1", f1);
    p.set("parallel.first_touch_ms.w2", f2);
    p.set("parallel.first_touch.w2_over_w1", f2 / f1);
}

/// `ingest`'s stream through the updatable-cracking kernel, through a bare
/// write-ahead log, and through a durable database that is then compacted,
/// checkpointed and recovered.
fn ingest_layers(tr: &mut Tracer, inputs: &ingest::Inputs, p: &mut Probe) {
    // the index `StrategyKind::UpdatableCracking` builds (merge-ripple)
    let initial: Vec<Key> = inputs.initial.iter().map(|&(k, _)| k).collect();
    let mut index = UpdatableCrackedIndex::from_keys(&initial, MergePolicy::MergeRipple);
    let mut insert_ns = Vec::new();
    let mut query = Samples::default();
    for step in 0..ingest::STEPS {
        let batch = &inputs.inserted[step * ingest::BATCH..][..ingest::BATCH];
        let (_, ns) = tr.timed("updates.insert", |_| {
            for &(k, _) in batch {
                index.insert(k);
            }
        });
        insert_ns.push(ns as f64 / ingest::BATCH as f64);
        let (low, high) = inputs.ranges[step];
        let (answer, ns) = tr.timed("updates.query_range", |_| index.query_range(low, high));
        query.push(std::time::Duration::from_nanos(ns));
        p.check(
            &format!("updatable query {step}"),
            answer.keys.len() == inputs.expected[step].0,
        );
    }
    p.set("updates.insert_ns", median(&insert_ns));
    p.set("updates.query_us.p50", us(query.quantile_ns(0.5)));
    p.set("updates.query_us.p99", us(query.quantile_ns(0.99)));
    p.set(
        "updates.pending_at_end",
        index.pending_insert_count() as f64,
    );
    drop(index);

    let dir = ingest::fresh_dir("wal-probe");
    let wal = Wal::open(&dir, FsyncPolicy::EveryN(16), SEGMENT_CAPACITY as u64)
        .expect("open a scratch log");
    let (mut append, mut sync) = (Samples::default(), Samples::default());
    for step in 0..ingest::STEPS {
        let record = WalRecord::Append {
            table: "i".into(),
            rows: inputs.batch(step),
        };
        let (appended, ns) = tr.timed("wal.append", |_| wal.append(&record));
        append.push(std::time::Duration::from_nanos(ns));
        match appended {
            Ok((_, Some(lsn))) => {
                let (synced, ns) = tr.timed("wal.sync", |_| wal.sync_to(lsn));
                sync.push(std::time::Duration::from_nanos(ns));
                p.check("wal sync", synced.is_ok());
            }
            Ok((_, None)) => {}
            Err(e) => p.check(&format!("wal append: {e}"), false),
        }
    }
    p.set("wal.append_us", us(append.median_ns()));
    p.set("wal.sync_us", us(sync.median_ns()));
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);

    let dir = ingest::fresh_dir("durability-probe");
    let db = tr.span("setup.ingest", |_| inputs.load(&dir));
    let mut run = Run::default();
    ingest::run_steps(&db, inputs, ingest::STEPS, tr, &mut run);
    p.absorb_run(&run);
    let stats = db.wal_stats().expect("a durable database");
    let rows = stats.rows_appended.max(1) as f64;
    let wal_dir = db
        .durability_config()
        .expect("a durable database")
        .wal_dir();
    p.set("wal.fsyncs_per_1k_rows", stats.fsyncs as f64 / (rows / 1e3));
    p.set(
        "wal.bytes_per_row",
        crate::measure::dir_bytes(&wal_dir) as f64 / rows,
    );
    let (_, ns) = tr.timed("db.compact", |_| db.compact());
    p.set("maintenance.compact_ms", ms(ns as f64));
    drop(db);
    // no checkpoint has run (background maintenance is off): recovery
    // replays the whole log, as it would after the workload
    let (recovered, ns) = tr.timed("db.open", |_| Database::open(&dir));
    p.set("durability.recover_s", ns as f64 / 1e9);
    let want = ingest::INITIAL_ROWS + ingest::STEPS * ingest::BATCH;
    match recovered {
        Ok(db) => {
            p.check("recovered row count", db.row_count("i").ok() == Some(want));
            let (checkpoint, ns) = tr.timed("db.checkpoint", |_| db.checkpoint());
            p.set("durability.checkpoint_ms", ms(ns as f64));
            p.check("checkpoint", matches!(checkpoint, Ok(Some(_))));
        }
        Err(e) => {
            p.check(&format!("recovery: {e}"), false);
            p.set("durability.checkpoint_ms", 0.0);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `workload` (every workload for `all`) once untraced and once
/// traced, then every layer probe; report every row of [`LAYERS`].
pub fn traced_run(workload: &str, seed: u64) -> Report {
    let mut p = Probe::default();
    let mut tr = Tracer::new(true);
    let names: Vec<&str> = if workload == "all" {
        crate::WORKLOADS.to_vec()
    } else {
        vec![workload]
    };
    let mut overheads = Vec::new();
    for name in names {
        let untraced = crate::run_workload(name, seed, 0.0, &mut Tracer::new(false));
        let traced = crate::run_workload(name, seed, 0.0, &mut tr);
        p.absorb_run(&untraced);
        p.absorb_run(&traced);
        let (a, b) = (median(&untraced.cumulative_s), median(&traced.cumulative_s));
        println!("[trace] {name} cumulative_s untraced {a:.4} s, traced {b:.4} s");
        overheads.push(b / a - 1.0);
    }
    p.set("trace.overhead_frac", median(&overheads));

    let converge_inputs = converge::Inputs::generate(seed);
    strategies(&mut tr, &converge_inputs, &mut p);
    crack_kernels(&mut tr, &converge_inputs, &mut p);
    converge_counts(&mut tr, &converge_inputs, &mut p);
    telemetry_overhead(&converge_inputs, &mut p);
    drop(converge_inputs);
    serve_layers(&mut tr, &serve::Inputs::generate(seed), &mut p);
    par2_layers(&mut tr, &par2::Inputs::generate(seed), &mut p);
    ingest_layers(&mut tr, &ingest::Inputs::generate(seed), &mut p);

    println!("[trace] span self time (total minus time covered by child spans):");
    println!(
        "[trace] {:<34} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    // a span's layer is the module its name starts with
    let mut by_layer: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (name, (count, total, own)) in tr.self_times() {
        println!(
            "[trace] {name:<34} {count:>9} {:>12.3} {:>12.3}",
            ms(total as f64),
            ms(own as f64)
        );
        let layer = by_layer
            .entry(name.split('.').next().unwrap_or(name))
            .or_default();
        *layer = (layer.0 + count, layer.1 + total, layer.2 + own);
    }
    println!("[trace] self time per layer:");
    for (layer, (count, total, own)) in by_layer {
        println!(
            "[trace] {layer:<34} {count:>9} {:>12.3} {:>12.3}",
            ms(total as f64),
            ms(own as f64)
        );
    }
    let path = crate::out_dir().join(format!("spans-{workload}-{seed}.tsv"));
    match tr.write_tsv(&path) {
        Ok(()) => println!("[trace] spans written to {}", path.display()),
        Err(e) => println!("[trace] could not write spans to {}: {e}", path.display()),
    }

    println!(
        "[trace] {:<44} {:>14} {:<7} | {:<48} | {:<14} | not on",
        "metric", "value", "unit", "should move", "on workload"
    );
    let mut metrics = Vec::new();
    for row in LAYERS {
        let value = *p
            .values
            .get(row.name)
            .unwrap_or_else(|| panic!("no probe produced {}", row.name));
        println!(
            "[trace] {:<44} {:>14.4} {:<7} | {:<48} | {:<14} | {}",
            row.name, value, row.unit, row.moves, row.on, row.not_on
        );
        metrics.push(metric(row.name, value, row.unit));
    }
    Report {
        correct: p.wrong == 0,
        attempted: p.attempted,
        failed: p.failed,
        metrics,
    }
}
