//! `serve` — the wire path: `aidx-server` on TCP loopback with the default
//! `ServerConfig`, read-only, 1M rows, two client connections. The mix is
//! 80% Zipf-skewed 0.01% ranges (16 regions, exponent 1.3) and 20% point
//! lookups, each projecting `v`. An untimed warm-up converges the hot set;
//! a closed-loop phase gives `qps`; an open-loop phase at one fixed offered
//! rate gives latency, timed from each request's due time. Per-request
//! engine work is tiny and the data is already cracked, so the protocol
//! codec, admission, the connection loop, the session snapshot and the
//! planner dominate.

use crate::inputs::{builder, unique_keys};
use crate::measure::{Rng, Samples, Tracer};
use crate::Run;
use aidx_core::prelude::*;
use aidx_server::{Client, ClientError, Server, ServerConfig, WireResult};
use std::time::{Duration, Instant};

pub const ROWS: usize = 1_000_000;
pub const CONNECTIONS: usize = 2;
pub const WARMUP: usize = 10_000;
pub const CLOSED: usize = 30_000;
pub const OPEN: usize = 7_500;
/// The open-loop offered rate, queries per second over both connections:
/// a constant, so that later changes are measured at the same offered load.
/// The closed loop completed 9,000 to 22,000 queries per second on the
/// 2-core virtual machine the benchmark was written on, depending on how
/// busy its host was; at 10,000 and at 5,000 per second the open loop fell
/// behind in the slow periods and its backlog grew without bound, so the
/// rate sits at about an eighth of the fast figure.
pub const OPEN_RATE: f64 = 2_500.0;
/// Key columns no query of the mix touches; one wire query each, right
/// after the server starts, gives the cold first-query samples.
const COLD: [&str; 3] = ["c1", "c2", "c3"];
const HOT_REGIONS: usize = 16;
const ZIPF_EXPONENT: f64 = 1.3;
/// Every this many closed-loop queries, one is re-run over the wire and
/// embedded and the encodings compared byte for byte.
const FIDELITY_STRIDE: usize = 500;
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
const START_LEAD: Duration = Duration::from_millis(2);

#[derive(Debug, Clone, Copy)]
pub enum Op {
    Range(Key, Key),
    Point(Key),
}

impl Op {
    pub fn query(self) -> Query {
        match self {
            Op::Range(low, high) => Query::table("s").range("k", low, high),
            Op::Point(key) => Query::table("s").point("k", key),
        }
        .project(["v"])
    }
}

pub struct Inputs {
    pub keys: Vec<Key>,
    pub values: Vec<Key>,
    pub ops: Vec<Op>,
    /// `(row count, sum of v)` per op.
    pub expected: Vec<Digest>,
    /// Untouched key columns, each queried once over the wire for a cold
    /// first-query sample, with its range and expected answer.
    pub cold: Vec<(Vec<Key>, (Key, Key), Digest)>,
}

/// `(row count, sum of v)` of an answer.
pub type Digest = (usize, i128);

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 2);
        let keys = unique_keys(ROWS, &mut rng);
        let values: Vec<Key> = (0..ROWS).map(|_| rng.below(1 << 40) as Key).collect();
        let domain = 4 * ROWS as Key;
        let width = domain / 10_000;
        let region_span = domain / HOT_REGIONS as Key;
        // which regions are hot is part of the seeded input
        let mut regions: Vec<usize> = (0..HOT_REGIONS).collect();
        rng.shuffle(&mut regions);
        let weights: Vec<f64> = (1..=HOT_REGIONS)
            .map(|rank| 1.0 / (rank as f64).powf(ZIPF_EXPONENT))
            .collect();
        let total_weight: f64 = weights.iter().sum();
        let ops: Vec<Op> = (0..WARMUP + CLOSED + OPEN)
            .map(|_| {
                if rng.below(5) == 0 {
                    return Op::Point(keys[rng.below(ROWS as u64) as usize]);
                }
                let mut pick = rng.unit() * total_weight;
                let mut rank = 0;
                while rank + 1 < HOT_REGIONS && pick >= weights[rank] {
                    pick -= weights[rank];
                    rank += 1;
                }
                let low = regions[rank] as Key * region_span
                    + rng.below((region_span - width) as u64) as Key;
                Op::Range(low, low + width)
            })
            .collect();
        let mut pairs: Vec<(Key, Key)> = keys.iter().copied().zip(values.iter().copied()).collect();
        pairs.sort_unstable();
        let mut prefix = vec![0i128];
        for &(_, v) in &pairs {
            prefix.push(prefix.last().copied().unwrap_or(0) + v as i128);
        }
        let expected = ops
            .iter()
            .map(|op| {
                let (low, high) = match *op {
                    Op::Range(low, high) => (low, high),
                    Op::Point(key) => (key, key + 1),
                };
                let a = pairs.partition_point(|&(k, _)| k < low);
                let b = pairs.partition_point(|&(k, _)| k < high);
                (b - a, prefix[b] - prefix[a])
            })
            .collect();
        let cold = COLD
            .iter()
            .map(|_| {
                let column = unique_keys(ROWS, &mut rng);
                let low = rng.below((domain - width) as u64) as Key;
                let (count, sum) = column
                    .iter()
                    .zip(&values)
                    .filter(|(c, _)| (low..low + width).contains(*c))
                    .fold((0, 0), |(n, s), (_, &v)| (n + 1, s + v as i128));
                (column, (low, low + width), (count, sum))
            })
            .collect();
        Inputs {
            keys,
            values,
            ops,
            expected,
            cold,
        }
    }

    pub fn load(&self) -> Database {
        let db = builder(StrategyKind::Cracking, 1).build();
        let mut columns = vec![
            ("k", Column::from_i64(self.keys.clone())),
            ("v", Column::from_i64(self.values.clone())),
        ];
        for (name, (keys, _, _)) in COLD.iter().zip(&self.cold) {
            columns.push((name, Column::from_i64(keys.clone())));
        }
        let table = Table::from_columns(columns).expect("distinct column names");
        db.create_table("s", table).expect("fresh database");
        db
    }

    fn phase(&self, phase: Phase) -> std::ops::Range<usize> {
        match phase {
            Phase::Warmup => 0..WARMUP,
            Phase::Closed => WARMUP..WARMUP + CLOSED,
            Phase::Open => WARMUP + CLOSED..WARMUP + CLOSED + OPEN,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Phase {
    Warmup,
    Closed,
    Open,
}

/// `(row count, sum of v)` of a wire result.
pub fn digest(result: &WireResult) -> (usize, i128) {
    let sum = result
        .rows
        .iter()
        .map(|row| match row.first() {
            Some(Value::Int64(v)) => *v as i128,
            _ => 0,
        })
        .sum();
    (result.row_count(), sum)
}

/// What one connection brings home from one phase.
#[derive(Default)]
pub struct Leg {
    pub latency: Samples,
    pub late: Samples,
    completed: u64,
    finished: Option<Instant>,
    /// `(op index, outcome)`; answers are checked after the phase.
    outcomes: Vec<(usize, std::result::Result<Digest, String>)>,
}

/// Wait until `due` by yielding rather than sleeping: a sleeping thread
/// can leave its virtual CPU idle, and on a virtual machine waking an idle
/// CPU takes the host anywhere from microseconds to many milliseconds, which
/// would then show up as request latency.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Drive one connection through `ops` (op indexes into the inputs). With
/// `rate`, request `j` of connection `c` is due at
/// `start + (j * CONNECTIONS + c) / rate` (open loop); without, each request
/// follows the previous reply (closed loop).
fn drive(
    client: &mut Client,
    ops: &[usize],
    queries: &[Query],
    start: Instant,
    rate: Option<(f64, usize)>,
    tr: &mut Tracer,
) -> Leg {
    let mut leg = Leg::default();
    wait_until(start);
    for (j, (query, &op)) in queries.iter().zip(ops).enumerate() {
        let due = match rate {
            Some((rate, connection)) => {
                let due =
                    start + Duration::from_secs_f64((j * CONNECTIONS + connection) as f64 / rate);
                wait_until(due);
                due
            }
            None => Instant::now(),
        };
        let sent = Instant::now();
        tr.set_request(op as u64);
        let reply = tr.span("client.query", |_| client.query(query));
        let done = Instant::now();
        leg.latency.push(done - due);
        leg.late.push(sent.saturating_duration_since(due));
        leg.completed += u64::from(reply.is_ok());
        leg.outcomes
            .push((op, reply.as_ref().map(digest).map_err(describe)));
    }
    leg.finished = Some(Instant::now());
    leg
}

fn describe(error: &ClientError) -> String {
    if error.is_overloaded() {
        format!("shed: {error}")
    } else {
        error.to_string()
    }
}

/// Run one phase on every connection at once.
pub fn phase(
    clients: &mut [Client],
    inputs: &Inputs,
    which: Phase,
    rate: Option<f64>,
    tr: &mut Tracer,
) -> (Instant, Vec<Leg>) {
    let range = inputs.phase(which);
    let prepared: Vec<(Vec<usize>, Vec<Query>)> = (0..CONNECTIONS)
        .map(|c| {
            let ops: Vec<usize> = range.clone().skip(c).step_by(CONNECTIONS).collect();
            let queries = ops.iter().map(|&i| inputs.ops[i].query()).collect();
            (ops, queries)
        })
        .collect();
    // a short lead lets both threads start before the first request is due
    let start = Instant::now() + START_LEAD;
    let legs = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&prepared)
            .enumerate()
            .map(|(c, (client, (ops, queries)))| {
                let mut thread_tr = tr.fork();
                scope.spawn(move || {
                    let leg = drive(
                        client,
                        ops,
                        queries,
                        start,
                        rate.map(|r| (r, c)),
                        &mut thread_tr,
                    );
                    (leg, thread_tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let legs = legs
        .into_iter()
        .map(|(leg, thread_tr)| {
            tr.absorb(thread_tr);
            leg
        })
        .collect();
    (start, legs)
}

fn check(inputs: &Inputs, legs: &[Leg], run: &mut Run) {
    for leg in legs {
        for (op, outcome) in &leg.outcomes {
            run.attempted += 1;
            match outcome {
                Ok(got) if *got == inputs.expected[*op] => {}
                Ok(got) => run.wrong(format!(
                    "serve op {op}: got {got:?}, want {:?}",
                    inputs.expected[*op]
                )),
                Err(e) => run.error(format!("serve op {op}: {e}")),
            }
        }
    }
}

/// A started server plus its connected clients.
pub struct Served {
    pub db: Database,
    pub server: Server,
    pub clients: Vec<Client>,
}

pub fn start(inputs: &Inputs) -> Served {
    let db = inputs.load();
    let server = Server::start(db.clone(), ServerConfig::default()).expect("bind a loopback port");
    let clients = (0..CONNECTIONS)
        .map(|_| {
            let mut client = Client::connect(server.local_addr()).expect("connect over loopback");
            client
                .set_reply_timeout(Some(REPLY_TIMEOUT))
                .expect("set a reply timeout");
            client
        })
        .collect();
    Served {
        db,
        server,
        clients,
    }
}

/// Compare a sample of wire results with embedded execution, byte for byte.
fn check_fidelity(served: &mut Served, inputs: &Inputs, run: &mut Run) {
    let session = served.db.session();
    let client = &mut served.clients[0];
    for op in inputs.phase(Phase::Closed).step_by(FIDELITY_STRIDE) {
        let query = inputs.ops[op].query();
        run.attempted += 1;
        let wire = client.query(&query);
        let embedded = session.execute(&query);
        match (wire, embedded) {
            (Ok(w), Ok(e)) if w.encoded() == WireResult::from_query_result(&e).encoded() => {}
            (Ok(_), Ok(_)) => run.wrong(format!("serve op {op}: wire bytes differ from embedded")),
            (w, e) => run.error(format!(
                "serve op {op}: wire {:?} embedded {:?}",
                w.err(),
                e.err()
            )),
        }
    }
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Run {
    let inputs = Inputs::generate(seed);
    let mut run = Run::default();
    crate::repeat(seconds, &mut run, |run| {
        let started = Instant::now();
        let mut served = tr.span("setup.serve", |_| start(&inputs));
        run.setup_s.push(started.elapsed().as_secs_f64());

        // the first wire query on `k` and on each cold column meets an
        // unindexed column
        let mut cold = vec![(inputs.ops[0].query(), inputs.expected[0])];
        for (name, (_, (low, high), want)) in COLD.iter().zip(&inputs.cold) {
            cold.push((
                Query::table("s").range(*name, *low, *high).project(["v"]),
                *want,
            ));
        }
        for (query, want) in cold {
            let started = Instant::now();
            let reply = served.clients[0].query(&query);
            run.first_ms.push(started.elapsed().as_secs_f64() * 1e3);
            run.attempted += 1;
            match reply.as_ref().map(digest) {
                Ok(got) if got == want => {}
                other => run.wrong(format!(
                    "serve cold query {query:?}: {other:?}, want {want:?}"
                )),
            }
        }

        let (_, warm) = phase(&mut served.clients, &inputs, Phase::Warmup, None, tr);
        check(&inputs, &warm, run);

        let (start, closed) = tr.span("workload.serve.closed", |tr| {
            phase(&mut served.clients, &inputs, Phase::Closed, None, tr)
        });
        let end = closed
            .iter()
            .filter_map(|l| l.finished)
            .max()
            .unwrap_or(start);
        let wall = (end - start).as_secs_f64();
        let completed: u64 = closed.iter().map(|l| l.completed).sum();
        run.cumulative_s.push(wall);
        run.qps.push(completed as f64 / wall);
        check(&inputs, &closed, run);

        let (_, open) = tr.span("workload.serve.open", |tr| {
            phase(
                &mut served.clients,
                &inputs,
                Phase::Open,
                Some(OPEN_RATE),
                tr,
            )
        });
        for leg in &open {
            run.query.extend(&leg.latency);
            run.late.extend(&leg.late);
        }
        check(&inputs, &open, run);

        check_fidelity(&mut served, &inputs, run);
        let stats = served.server.stats();
        run.shed += stats.requests_shed;
        served.server.stop();
    });
    run
}
