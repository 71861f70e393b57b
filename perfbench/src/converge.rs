//! `converge` — the paper's own experiment: one session of uniform-random
//! 1%-selectivity range queries, closed loop, over a 2M-row unique-key
//! column (16 MB of keys, more than the last-level cache), embedded,
//! `parallelism(1)`, `Cracking`. Crack kernels, the cut index and result
//! assembly do almost all the work; no WAL, wire or pool is involved. Four
//! further columns of the same kind stay untouched until the end, when one
//! query each gives the cold first-query samples (lazy index creation
//! included).

use crate::inputs::{
    builder, positions_digest, scan_digest, uniform_range, unique_keys, SortedOracle,
};
use crate::measure::{Rng, Tracer};
use crate::Run;
use aidx_core::prelude::*;
use std::time::Instant;

pub const ROWS: usize = 2_000_000;
pub const QUERIES: usize = 10_000;
pub const COLD_COLUMNS: usize = 4;
const HOT: &str = "c0";
const COLD: [&str; COLD_COLUMNS] = ["c1", "c2", "c3", "c4"];

/// Generated keys, queries and their expected answers.
pub struct Inputs {
    /// `columns[0]` is queried; the rest are the cold columns.
    pub columns: Vec<Vec<Key>>,
    /// `(low, high)` on the hot column, in order.
    pub ranges: Vec<(Key, Key)>,
    pub expected: Vec<(usize, u64)>,
    /// One range per cold column, with its expected answer.
    cold: Vec<((Key, Key), (usize, u64))>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 1);
        let columns: Vec<Vec<Key>> = (0..=COLD_COLUMNS)
            .map(|_| unique_keys(ROWS, &mut rng))
            .collect();
        let domain = 4 * ROWS as Key;
        let width = domain / 100;
        let ranges: Vec<(Key, Key)> = (0..QUERIES)
            .map(|_| uniform_range(&mut rng, domain, width))
            .collect();
        let oracle = SortedOracle::new(&columns[0]);
        let expected = ranges.iter().map(|&(l, h)| oracle.range(l, h)).collect();
        drop(oracle);
        let cold = columns[1..]
            .iter()
            .map(|keys| {
                let (l, h) = uniform_range(&mut rng, domain, width);
                ((l, h), scan_digest(keys, l, h))
            })
            .collect();
        Inputs {
            columns,
            ranges,
            expected,
            cold,
        }
    }

    /// The timed set-up: build the table from the generated columns and
    /// register it with a fresh database.
    pub fn load(&self, strategy: StrategyKind, telemetry: bool) -> Database {
        let db = builder(strategy, 1).telemetry(telemetry).build();
        let names = std::iter::once(HOT).chain(COLD);
        let table = Table::from_columns(
            names
                .zip(&self.columns)
                .map(|(name, keys)| (name, Column::from_i64(keys.clone())))
                .collect(),
        )
        .expect("distinct column names");
        db.create_table("t", table).expect("fresh database");
        db
    }

    pub fn hot_query(&self, i: usize) -> Query {
        let (low, high) = self.ranges[i];
        Query::table("t").range(HOT, low, high)
    }
}

/// One repetition's query sequence on the hot column. `effort`, when
/// given, receives `Database::total_effort` after every query.
pub fn run_hot(
    db: &Database,
    inputs: &Inputs,
    queries: usize,
    tr: &mut Tracer,
    run: &mut Run,
    mut effort: Option<&mut Vec<u64>>,
) -> f64 {
    let session = db.session();
    let prepared: Vec<Query> = (0..queries).map(|i| inputs.hot_query(i)).collect();
    let mut busy_ns = 0u64;
    for (i, query) in prepared.iter().enumerate() {
        tr.set_request(i as u64);
        let started = Instant::now();
        let result = tr.span("session.execute", |_| session.execute(query));
        let elapsed = started.elapsed();
        busy_ns += elapsed.as_nanos() as u64;
        run.query.push(elapsed);
        run.attempted += 1;
        match result {
            Ok(r) => {
                let got = positions_digest(r.positions().as_slice());
                if got != inputs.expected[i] {
                    run.wrong(format!(
                        "converge query {i}: got {got:?}, want {:?}",
                        inputs.expected[i]
                    ));
                }
            }
            Err(e) => run.error(format!("converge query {i}: {e}")),
        }
        if let Some(series) = effort.as_deref_mut() {
            series.push(db.total_effort());
        }
    }
    busy_ns as f64 / 1e9
}

/// The first query on each untouched column; returns their latencies in ms.
pub fn run_cold(db: &Database, inputs: &Inputs, tr: &mut Tracer, run: &mut Run) -> Vec<f64> {
    let session = db.session();
    let mut first_ms = Vec::new();
    for (((low, high), expected), name) in inputs.cold.iter().zip(COLD) {
        let query = Query::table("t").range(name, *low, *high);
        let started = Instant::now();
        let result = tr.span("session.execute", |_| session.execute(&query));
        first_ms.push(started.elapsed().as_secs_f64() * 1e3);
        run.attempted += 1;
        match result {
            Ok(r) => {
                let got = positions_digest(r.positions().as_slice());
                if got != *expected {
                    run.wrong(format!(
                        "converge cold {name}: got {got:?}, want {expected:?}"
                    ));
                }
            }
            Err(e) => run.error(format!("converge cold {name}: {e}")),
        }
    }
    first_ms
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Run {
    let inputs = Inputs::generate(seed);
    let mut run = Run::default();
    crate::repeat(seconds, &mut run, |run| {
        let started = Instant::now();
        let db = tr.span("setup.converge", |_| {
            inputs.load(StrategyKind::Cracking, true)
        });
        run.setup_s.push(started.elapsed().as_secs_f64());
        let cumulative = tr.span("workload.converge", |tr| {
            run_hot(&db, &inputs, QUERIES, tr, run, None)
        });
        run.cumulative_s.push(cumulative);
        run.qps.push(QUERIES as f64 / cumulative);
        let cold = run_cold(&db, &inputs, tr, run);
        run.first_ms.extend(cold);
    });
    run
}
