//! `par2` — the only workload where the parallel engine and the residual
//! and materialize phases dominate: embedded, `parallelism(2)`, `Cracking`,
//! four 1M-row key columns. Query `i` drives a 1% range on column `i % 4`,
//! filters a 50% residual range on the next column and projects a third;
//! every projected row is read back through `QueryResult::rows`. The first
//! query on each driver column pays the partitioned first-touch build.

use crate::inputs::{builder, uniform_range, unique_keys};
use crate::measure::{Rng, Tracer};
use crate::Run;
use aidx_core::prelude::*;
use std::time::Instant;

pub const ROWS: usize = 1_000_000;
pub const QUERIES: usize = 2_000;
pub const PARALLELISM: usize = 2;
pub const COLUMNS: [&str; 4] = ["a", "b", "c", "d"];

/// One conjunctive query: driver range, residual range, projection.
#[derive(Debug, Clone, Copy)]
pub struct Conjunct {
    pub driver: usize,
    pub range: (Key, Key),
    pub residual: (Key, Key),
}

impl Conjunct {
    pub fn residual_column(&self) -> usize {
        (self.driver + 1) % COLUMNS.len()
    }

    pub fn projected_column(&self) -> usize {
        (self.driver + 2) % COLUMNS.len()
    }

    pub fn query(&self) -> Query {
        let (low, high) = self.range;
        let (rlow, rhigh) = self.residual;
        Query::table("p")
            .range(COLUMNS[self.driver], low, high)
            .range(COLUMNS[self.residual_column()], rlow, rhigh)
            .project([COLUMNS[self.projected_column()]])
    }
}

pub struct Inputs {
    pub columns: Vec<Vec<Key>>,
    pub queries: Vec<Conjunct>,
    /// `(row count, sum of the projected column)` per query.
    pub expected: Vec<(usize, i128)>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 4);
        let columns: Vec<Vec<Key>> = COLUMNS
            .iter()
            .map(|_| unique_keys(ROWS, &mut rng))
            .collect();
        let domain = 4 * ROWS as Key;
        let queries: Vec<Conjunct> = (0..QUERIES)
            .map(|i| Conjunct {
                driver: i % COLUMNS.len(),
                range: uniform_range(&mut rng, domain, domain / 100),
                residual: uniform_range(&mut rng, domain, domain / 2),
            })
            .collect();
        // sorted-array oracle: per column, (key, row) pairs in key order
        let sorted: Vec<Vec<(Key, u32)>> = columns
            .iter()
            .map(|keys| {
                let mut pairs: Vec<(Key, u32)> = keys
                    .iter()
                    .enumerate()
                    .map(|(r, &k)| (k, r as u32))
                    .collect();
                pairs.sort_unstable();
                pairs
            })
            .collect();
        let expected = queries
            .iter()
            .map(|q| {
                let pairs = &sorted[q.driver];
                let a = pairs.partition_point(|&(k, _)| k < q.range.0);
                let b = pairs.partition_point(|&(k, _)| k < q.range.1);
                let residual = &columns[q.residual_column()];
                let projected = &columns[q.projected_column()];
                pairs[a..b]
                    .iter()
                    .map(|&(_, r)| r as usize)
                    .filter(|&r| (q.residual.0..q.residual.1).contains(&residual[r]))
                    .fold((0usize, 0i128), |(n, s), r| {
                        (n + 1, s + projected[r] as i128)
                    })
            })
            .collect();
        Inputs {
            columns,
            queries,
            expected,
        }
    }

    /// The timed set-up: build the four-column table and register it.
    pub fn load(&self) -> Database {
        let db = builder(StrategyKind::Cracking, PARALLELISM).build();
        let table = Table::from_columns(
            COLUMNS
                .iter()
                .zip(&self.columns)
                .map(|(&name, keys)| (name, Column::from_i64(keys.clone())))
                .collect(),
        )
        .expect("distinct column names");
        db.create_table("p", table).expect("fresh database");
        db
    }
}

/// Sum of the single projected `Int64` value of every row.
pub fn sum_rows(result: &QueryResult) -> (usize, i128) {
    result.rows().fold((0, 0), |(n, s), row| match row.first() {
        Some(Value::Int64(v)) => (n + 1, s + *v as i128),
        _ => (n + 1, s),
    })
}

/// One repetition: every query in order; returns `(busy seconds, first
/// query latency per driver column in ms)`.
pub fn run_sequence(
    db: &Database,
    inputs: &Inputs,
    tr: &mut Tracer,
    run: &mut Run,
) -> (f64, Vec<f64>) {
    let session = db.session();
    let prepared: Vec<Query> = inputs.queries.iter().map(Conjunct::query).collect();
    let mut busy_ns = 0u64;
    let mut first_ms = Vec::new();
    for (i, query) in prepared.iter().enumerate() {
        tr.set_request(i as u64);
        let started = Instant::now();
        let outcome = tr.span("session.execute", |tr| {
            session
                .execute(query)
                .map(|r| tr.span("result.rows", |_| sum_rows(&r)))
        });
        let elapsed = started.elapsed();
        busy_ns += elapsed.as_nanos() as u64;
        if i < COLUMNS.len() {
            first_ms.push(elapsed.as_secs_f64() * 1e3);
        }
        run.query.push(elapsed);
        run.attempted += 1;
        match outcome {
            Ok(got) if got == inputs.expected[i] => {}
            Ok(got) => run.wrong(format!(
                "par2 query {i}: got {got:?}, want {:?}",
                inputs.expected[i]
            )),
            Err(e) => run.error(format!("par2 query {i}: {e}")),
        }
    }
    (busy_ns as f64 / 1e9, first_ms)
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Run {
    let inputs = Inputs::generate(seed);
    let mut run = Run::default();
    crate::repeat(seconds, &mut run, |run| {
        let started = Instant::now();
        let db = tr.span("setup.par2", |_| inputs.load());
        run.setup_s.push(started.elapsed().as_secs_f64());
        let (cumulative, first) =
            tr.span("workload.par2", |tr| run_sequence(&db, &inputs, tr, run));
        run.cumulative_s.push(cumulative);
        run.qps.push(QUERIES as f64 / cumulative);
        run.first_ms.extend(first);
    });
    run
}
