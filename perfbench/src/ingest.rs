//! `ingest` — writes beside reads: an embedded durable database
//! (write-ahead log in a fresh directory per repetition,
//! `FsyncPolicy::EveryN(16)`, the 65,536-row checkpoint trigger, background
//! maintenance off) under `UpdatableCracking`. Each step appends one batch
//! of 64 random-key rows with `insert_rows`, then runs one 0.1% range on
//! `k` projecting `v`. WAL append/fsync, segment-tail appends, the catalog
//! write lock and merge-ripple absorption of pending inserts do the work
//! `converge` never does; query cost grows with the inserts absorbed, which
//! is why the run is long enough for that growth to show.

use crate::inputs::{builder, uniform_range, unique_keys};
use crate::measure::{dir_bytes, Rng, Tracer};
use crate::par2::sum_rows;
use crate::Run;
use aidx_core::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const INITIAL_ROWS: usize = 300_000;
pub const STEPS: usize = 1_000;
pub const BATCH: usize = 64;
/// Queries re-run on the recovered database.
const RECOVERY_SAMPLE: usize = 32;

pub fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::at(dir)
        .fsync(FsyncPolicy::EveryN(16))
        .checkpoint_after_rows(65_536)
}

pub struct Inputs {
    pub initial: Vec<(Key, Key)>,
    /// `STEPS * BATCH` rows, appended in order.
    pub inserted: Vec<(Key, Key)>,
    pub ranges: Vec<(Key, Key)>,
    /// `(row count, sum of v)` per step, over every row inserted so far.
    pub expected: Vec<(usize, i128)>,
    /// The last ranges, answered over the final table.
    recovery: Vec<((Key, Key), (usize, i128))>,
    /// A range on the never-queried `v`, run once after the stream as a
    /// second cold first-query sample, with its `(row count, sum of v)`.
    cold: ((Key, Key), (usize, i128)),
}

fn digest(rows: &BTreeMap<Key, Key>, (low, high): (Key, Key)) -> (usize, i128) {
    rows.range(low..high)
        .fold((0, 0), |(n, s), (_, &v)| (n + 1, s + v as i128))
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 3);
        let total = INITIAL_ROWS + STEPS * BATCH;
        let rows: Vec<(Key, Key)> = unique_keys(total, &mut rng)
            .into_iter()
            .map(|k| (k, rng.below(1 << 40) as Key))
            .collect();
        let domain = 4 * total as Key;
        let ranges: Vec<(Key, Key)> = (0..STEPS)
            .map(|_| uniform_range(&mut rng, domain, domain / 1000))
            .collect();
        let mut oracle: BTreeMap<Key, Key> = rows[..INITIAL_ROWS].iter().copied().collect();
        let mut expected = Vec::with_capacity(STEPS);
        for (step, &range) in ranges.iter().enumerate() {
            let batch = &rows[INITIAL_ROWS + step * BATCH..][..BATCH];
            oracle.extend(batch.iter().copied());
            expected.push(digest(&oracle, range));
        }
        let recovery = ranges[STEPS - RECOVERY_SAMPLE..]
            .iter()
            .map(|&r| (r, digest(&oracle, r)))
            .collect();
        let (low, high) = uniform_range(&mut rng, 1 << 40, (1 << 40) / 1000);
        let cold_answer = rows
            .iter()
            .filter(|(_, v)| (low..high).contains(v))
            .fold((0, 0), |(n, s), &(_, v)| (n + 1, s + v as i128));
        let (initial, inserted) = rows.split_at(INITIAL_ROWS);
        Inputs {
            initial: initial.to_vec(),
            inserted: inserted.to_vec(),
            ranges,
            expected,
            recovery,
            cold: ((low, high), cold_answer),
        }
    }

    pub fn batch(&self, step: usize) -> Vec<Vec<Value>> {
        self.inserted[step * BATCH..][..BATCH]
            .iter()
            .map(|&(k, v)| vec![Value::Int64(k), Value::Int64(v)])
            .collect()
    }

    pub fn query(&self, step: usize) -> Query {
        query(self.ranges[step])
    }

    /// The timed set-up: open the log in `dir` and load the initial rows.
    pub fn load(&self, dir: &Path) -> Database {
        let db = builder(StrategyKind::UpdatableCracking, 1)
            .durability(durability(dir))
            .try_build()
            .expect("open a fresh durable directory");
        let (keys, values): (Vec<Key>, Vec<Key>) = self.initial.iter().copied().unzip();
        let table = Table::from_columns(vec![
            ("k", Column::from_i64(keys)),
            ("v", Column::from_i64(values)),
        ])
        .expect("distinct column names");
        db.create_table("i", table).expect("fresh database");
        db
    }
}

fn query((low, high): (Key, Key)) -> Query {
    Query::table("i").range("k", low, high).project(["v"])
}

/// A fresh, empty directory for one repetition's durable state (a
/// leftover directory would be recovered instead of created).
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = crate::out_dir()
        .join("tmp")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run every step; returns the busy seconds (inserts plus queries).
pub fn run_steps(
    db: &Database,
    inputs: &Inputs,
    steps: usize,
    tr: &mut Tracer,
    run: &mut Run,
) -> f64 {
    let session = db.session();
    let batches: Vec<Vec<Vec<Value>>> = (0..steps).map(|s| inputs.batch(s)).collect();
    let queries: Vec<Query> = (0..steps).map(|s| inputs.query(s)).collect();
    let mut busy_ns = 0u64;
    for step in 0..steps {
        tr.set_request(step as u64);
        let started = Instant::now();
        let inserted = tr.span("session.insert_rows", |_| {
            session.insert_rows("i", &batches[step])
        });
        let elapsed = started.elapsed();
        busy_ns += elapsed.as_nanos() as u64;
        run.insert.push(elapsed);
        run.attempted += 1;
        if let Err(e) = inserted {
            run.error(format!("ingest insert {step}: {e}"));
        }
        let started = Instant::now();
        let outcome = tr.span("session.execute", |tr| {
            session
                .execute(&queries[step])
                .map(|r| tr.span("result.rows", |_| sum_rows(&r)))
        });
        let elapsed = started.elapsed();
        busy_ns += elapsed.as_nanos() as u64;
        if step == 0 {
            run.first_ms.push(elapsed.as_secs_f64() * 1e3);
        }
        run.query.push(elapsed);
        run.attempted += 1;
        match outcome {
            Ok(got) if got == inputs.expected[step] => {}
            Ok(got) => run.wrong(format!(
                "ingest query {step}: got {got:?}, want {:?}",
                inputs.expected[step]
            )),
            Err(e) => run.error(format!("ingest query {step}: {e}")),
        }
    }
    busy_ns as f64 / 1e9
}

/// Reopen `dir` with `Database::open` and check that it holds exactly the
/// acknowledged rows and answers the final queries as before.
pub fn check_recovery(dir: &Path, inputs: &Inputs, run: &mut Run) {
    let db = match Database::open(dir) {
        Ok(db) => db,
        Err(e) => return run.wrong(format!("ingest recovery: open failed: {e}")),
    };
    let want_rows = INITIAL_ROWS + STEPS * BATCH;
    match db.row_count("i") {
        Ok(rows) if rows == want_rows => {}
        other => run.wrong(format!("ingest recovery: {other:?} rows, want {want_rows}")),
    }
    let session = db.session();
    for &(range, want) in &inputs.recovery {
        match session.execute(&query(range)).map(|r| sum_rows(&r)) {
            Ok(got) if got == want => {}
            other => run.wrong(format!(
                "ingest recovery query {range:?}: {other:?}, want {want:?}"
            )),
        }
    }
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Run {
    let inputs = Inputs::generate(seed);
    let mut run = Run::default();
    crate::repeat(seconds, &mut run, |run| {
        let dir = fresh_dir("ingest");
        let started = Instant::now();
        let db = tr.span("setup.ingest", |_| inputs.load(&dir));
        run.setup_s.push(started.elapsed().as_secs_f64());
        let before = run.query.len();
        let cumulative = tr.span("workload.ingest", |tr| {
            run_steps(&db, &inputs, STEPS, tr, run)
        });
        let (first, last) = (
            run.query.window(before..before + 100).median_ns(),
            run.query
                .window(run.query.len() - 100..run.query.len())
                .median_ns(),
        );
        run.notes.push(format!(
            "query p50 over the first 100 steps {:.1} us, over the last 100 {:.1} us",
            first / 1e3,
            last / 1e3
        ));
        run.cumulative_s.push(cumulative);
        run.qps.push(STEPS as f64 / cumulative);
        let rows = db.row_count("i").unwrap_or(0).max(1);
        run.disk_bytes_per_row
            .push(dir_bytes(&dir) as f64 / rows as f64);
        let ((low, high), want) = inputs.cold;
        let cold = Query::table("i").range("v", low, high).project(["v"]);
        let started = Instant::now();
        let got = tr.span("session.execute", |_| db.session().execute(&cold));
        run.first_ms.push(started.elapsed().as_secs_f64() * 1e3);
        run.attempted += 1;
        match got.map(|r| sum_rows(&r)) {
            Ok(got) if got == want => {}
            other => run.wrong(format!("ingest cold query on v: {other:?}, want {want:?}")),
        }
        drop(db);
        check_recovery(&dir, &inputs, run);
        let _ = std::fs::remove_dir_all(&dir);
    });
    run
}
