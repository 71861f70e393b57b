//! End-to-end tests for the parallel query engine.
//!
//! The parallel engine's contract is *pure speedup*: chunk-parallel scans
//! and partition-parallel adaptive index refinement must produce exactly the
//! position sets the serial kernel produces — same seed, same answers, at
//! any `parallelism`, under any thread interleaving. These tests pin that
//! contract at the facade level:
//!
//! * serial/parallel agreement against a scan reference across strategies;
//! * byte-identical determinism across `parallelism` 1, 2, 4, 8;
//! * a multi-threaded stress race where many sessions refine the same
//!   partitioned indexes concurrently (with a writer appending rows
//!   mid-flight) and every answer is checked against the reference;
//! * identical zone-map pruning statistics from both engines.

use adaptive_indexing::core::prelude::*;
use adaptive_indexing::workloads::data::{generate_keys, DataDistribution};
use adaptive_indexing::Database;
use std::sync::Arc;
use std::thread;

const ROWS: usize = 30_000;
const SEED: u64 = 20_260_731;

/// The strategy matrix the storage tests also use: plain adaptive,
/// update-capable adaptive, and a non-adaptive full index.
const STRATEGIES: [StrategyKind; 3] = [
    StrategyKind::Cracking,
    StrategyKind::UpdatableCracking,
    StrategyKind::FullSort,
];

fn build_db(keys: &[i64], strategy: StrategyKind, parallelism: usize) -> Database {
    let db = Database::builder()
        .default_strategy(strategy)
        .segment_capacity(512)
        .parallelism(parallelism)
        .try_build()
        .expect("valid configuration");
    db.create_table(
        "events",
        Table::from_columns(vec![("k", Column::from_i64(keys.to_vec()))]).unwrap(),
    )
    .unwrap();
    db
}

/// Seeded pseudo-random query bounds (an LCG so every configuration sees the
/// identical sequence).
fn query_bounds(seed: u64, queries: usize) -> Vec<(i64, i64)> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut out = Vec::with_capacity(queries);
    for _ in 0..queries {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let low = (state >> 33) as i64 % (ROWS as i64 - 1000);
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let width = 1 + (state >> 33) as i64 % 2000;
        out.push((low, low + width));
    }
    out
}

fn reference(keys: &[i64], low: i64, high: i64) -> Vec<u32> {
    (0..keys.len())
        .filter(|&i| keys[i] >= low && keys[i] < high)
        .map(|i| i as u32)
        .collect()
}

#[test]
fn parallel_engines_agree_with_the_scan_reference_across_strategies() {
    let keys = generate_keys(ROWS, DataDistribution::UniformPermutation, SEED);
    let bounds = query_bounds(SEED, 25);
    for strategy in STRATEGIES {
        for parallelism in [1usize, 2, 4] {
            let db = build_db(&keys, strategy, parallelism);
            let session = db.session();
            for &(low, high) in &bounds {
                let result = session
                    .query("events")
                    .range("k", low, high)
                    .execute()
                    .unwrap();
                assert_eq!(
                    result.positions().as_slice(),
                    reference(&keys, low, high).as_slice(),
                    "{strategy:?} parallelism={parallelism} [{low},{high})"
                );
            }
            let stats = db.index_stats();
            assert_eq!(
                stats[0].partitions > 1,
                parallelism > 1,
                "partitioned form engages exactly when parallel ({strategy:?})"
            );
        }
    }
}

#[test]
fn same_seed_produces_byte_identical_results_at_any_parallelism() {
    let keys = generate_keys(ROWS, DataDistribution::UniformPermutation, SEED);
    let bounds = query_bounds(SEED ^ 0xBEEF, 40);
    let run = |parallelism: usize| -> Vec<Vec<u32>> {
        let db = build_db(&keys, StrategyKind::Cracking, parallelism);
        let session = db.session();
        bounds
            .iter()
            .map(|&(low, high)| {
                session
                    .query("events")
                    .range("k", low, high)
                    .execute()
                    .unwrap()
                    .positions()
                    .as_slice()
                    .to_vec()
            })
            .collect()
    };
    let serial = run(1);
    for parallelism in [2usize, 4, 8] {
        assert_eq!(run(parallelism), serial, "parallelism={parallelism}");
    }
    // and re-running the same configuration reproduces itself exactly
    assert_eq!(run(4), run(4));
}

#[test]
fn concurrent_sessions_stress_partition_parallel_refinement() {
    let keys = generate_keys(ROWS, DataDistribution::UniformPermutation, SEED);
    for strategy in STRATEGIES {
        let db = build_db(&keys, strategy, 4);
        let keys = Arc::new(keys.clone());
        let db_handle = db.clone();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let session = db.session();
            let keys = Arc::clone(&keys);
            handles.push(thread::spawn(move || {
                for (q, (low, high)) in query_bounds(SEED + t, 40).into_iter().enumerate() {
                    let result = session
                        .query("events")
                        .range("k", low, high)
                        .execute()
                        .unwrap();
                    // appended rows all hold key -1, outside every query
                    // range, so the expected set is snapshot-independent
                    assert_eq!(
                        result.positions().as_slice(),
                        reference(&keys, low, high).as_slice(),
                        "thread {t} query {q} [{low},{high})"
                    );
                }
            }));
        }
        // a writer appends rows mid-flight, racing the readers' refinement;
        // the appended key (-1) can never satisfy a reader's range
        let writer = thread::spawn(move || {
            let session = db_handle.session();
            for _ in 0..50 {
                session.insert_row("events", &[Value::Int64(-1)]).unwrap();
                thread::yield_now();
            }
        });
        for handle in handles {
            handle.join().unwrap();
        }
        writer.join().unwrap();
        assert_eq!(db.row_count("events").unwrap(), ROWS + 50, "{strategy:?}");
        // after the dust settles, answers still match a reference that
        // includes the appended rows
        let grown: Vec<i64> = keys
            .iter()
            .copied()
            .chain(std::iter::repeat_n(-1, 50))
            .collect();
        let result = db
            .session()
            .query("events")
            .range("k", -1, 0)
            .execute()
            .unwrap();
        assert_eq!(
            result.positions().as_slice(),
            reference(&grown, -1, 0).as_slice(),
            "{strategy:?}"
        );
    }
}

#[test]
fn serial_and_parallel_prune_statistics_are_identical() {
    let keys: Vec<i64> = (0..ROWS as i64).collect();
    let serial = build_db(&keys, StrategyKind::Cracking, 1);
    let parallel = build_db(&keys, StrategyKind::Cracking, 4);
    // an out-of-domain query is answered by zone maps alone in both engines;
    // the merged parallel statistics must equal the serial one-pass numbers
    let run = |db: &Database| {
        let result = db
            .session()
            .query("events")
            .range("k", ROWS as i64 * 2, ROWS as i64 * 3)
            .execute()
            .unwrap();
        assert!(result.is_empty());
        result.prune_stats()
    };
    let serial_stats = run(&serial);
    let parallel_stats = run(&parallel);
    assert_eq!(serial_stats, parallel_stats);
    assert!(serial_stats.chunks_pruned > 0);
    assert_eq!(serial.indexed_column_count(), 0, "no index for empty proof");
    assert_eq!(parallel.indexed_column_count(), 0);
}

/// Partitioned answers are merged from per-partition sorted runs, not
/// re-sorted, so this pins what the merge must keep: answers strictly
/// ascending and equal to the serial engine's and to a scan, for ranges over
/// one, several and all partitions, before and after appended rows the
/// partitioned index absorbs.
#[test]
fn partitioned_answers_are_ascending_and_match_serial_and_scan() {
    let keys = generate_keys(ROWS, DataDistribution::UniformPermutation, SEED);
    let n = ROWS as i64;
    // cuts are equal-width over the key domain `[0, ROWS)`: four partitions
    // at parallelism 2, eight at parallelism 4, both with a cut just below
    // n / 2
    let ranges = [
        (100, 140),               // one partition, at the low edge
        (n / 2 + 7, n / 2 + 300), // one interior partition
        (n / 8 - 50, n / 2 + 50), // several partitions
        (n / 3, n - 2),           // several, up to the high edge
        (-10, n + 10),            // all partitions
        (Key::MIN, Key::MAX),     // all, through the open-ended edges
    ];
    // appended keys are spread evenly over `[-30, n + 30]` in scrambled
    // order, so they land in every partition, including both open edges
    let appended: Vec<i64> = (0..240)
        .map(|i| (i * 97 % 240) * (n + 60) / 239 - 30)
        .collect();
    let rows: Vec<Vec<Value>> = appended.iter().map(|&k| vec![Value::Int64(k)]).collect();
    let grown: Vec<i64> = keys.iter().chain(&appended).copied().collect();
    for strategy in [StrategyKind::Cracking, StrategyKind::UpdatableCracking] {
        for parallelism in [2usize, 4] {
            let serial = build_db(&keys, strategy, 1);
            let parallel = build_db(&keys, strategy, parallelism);
            for (phase, oracle_keys) in [("loaded", &keys), ("appended", &grown)] {
                if phase == "appended" {
                    serial.session().insert_rows("events", &rows).unwrap();
                    parallel.session().insert_rows("events", &rows).unwrap();
                }
                // twice: the first query of a range refines the index, the
                // second is answered from the refined pieces
                for &(low, high) in ranges.iter().chain(&ranges) {
                    let query = |db: &Database| {
                        db.session()
                            .query("events")
                            .range("k", low, high)
                            .execute()
                            .unwrap()
                            .positions()
                            .as_slice()
                            .to_vec()
                    };
                    let got = query(&parallel);
                    let what =
                        format!("{strategy:?} parallelism={parallelism} {phase} [{low},{high})");
                    assert!(got.windows(2).all(|w| w[0] < w[1]), "not ascending: {what}");
                    assert_eq!(got, query(&serial), "serial differs: {what}");
                    assert_eq!(
                        got,
                        reference(oracle_keys, low, high),
                        "scan differs: {what}"
                    );
                }
            }
            let stats = parallel.index_stats();
            assert_eq!(stats[0].partitions, 2 * parallelism, "{strategy:?}");
            if strategy == StrategyKind::UpdatableCracking {
                // the appends were absorbed, not answered by a rebuilt index
                assert_eq!(stats[0].tuples, grown.len());
                assert_eq!(stats[0].queries, 4 * ranges.len() as u64);
            }
        }
    }
}
