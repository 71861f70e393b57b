//! Criterion micro-benchmarks for the physical reorganization kernels:
//! crack-in-two, crack-in-three, sorted-run extraction and the scan / binary
//! search baselines they compete with, plus result assembly — putting an
//! answer's row ids back into row order — beside its comparison-sort
//! baseline, and row materialization — streaming an answer's projected rows
//! — beside the typed column fetch of the same positions, and the
//! updatable-cracking merge ripple replaying an insert-heavy query stream.

use aidx_columnstore::ops::project::fetch_i64;
use aidx_columnstore::position::PositionList;
use aidx_core::prelude::*;
use aidx_cracking::crack::{crack_in_three, crack_in_two, PivotSide};
use aidx_cracking::updates::{MergePolicy, UpdatableCrackedIndex};
use aidx_merging::run::SortedRun;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SIZES: [usize; 3] = [1 << 14, 1 << 17, 1 << 20];

fn make_pairs(n: usize) -> (Vec<i64>, Vec<u32>) {
    let values: Vec<i64> = (0..n as i64).map(|i| (i * 48271) % n as i64).collect();
    let rowids: Vec<u32> = (0..n as u32).collect();
    (values, rowids)
}

fn bench_crack_in_two(c: &mut Criterion) {
    let mut group = c.benchmark_group("crack_in_two");
    for &n in &SIZES {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let (values, rowids) = make_pairs(n);
            b.iter_batched(
                || (values.clone(), rowids.clone()),
                |(mut values, mut rowids)| {
                    let split = crack_in_two(
                        &mut values,
                        &mut rowids,
                        0,
                        n,
                        (n / 2) as i64,
                        PivotSide::Left,
                    );
                    black_box(split)
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_crack_in_three(c: &mut Criterion) {
    let mut group = c.benchmark_group("crack_in_three");
    for &n in &SIZES {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let (values, rowids) = make_pairs(n);
            let low = (n / 4) as i64;
            let high = (3 * n / 4) as i64;
            b.iter_batched(
                || (values.clone(), rowids.clone()),
                |(mut values, mut rowids)| {
                    let split = crack_in_three(&mut values, &mut rowids, 0, n, low, high);
                    black_box(split.high_split - split.low_split)
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_scan_vs_sorted_extract(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_baselines");
    let n = 1 << 20;
    let (values, _) = make_pairs(n);
    let low = (n / 4) as i64;
    let high = low + (n / 100) as i64;

    group.bench_function("full_scan_count", |b| {
        b.iter(|| black_box(values.iter().filter(|&&v| v >= low && v < high).count()))
    });

    let run = SortedRun::from_pairs(
        values
            .iter()
            .copied()
            .enumerate()
            .map(|(i, k)| (k, i as u32))
            .collect(),
    );
    group.bench_function("sorted_run_count", |b| {
        b.iter(|| black_box(run.count_range(low, high)))
    });
    group.bench_function("sorted_run_extract_and_restore", |b| {
        b.iter_batched(
            || run.clone(),
            |mut run| black_box(run.extract_range(low, high).len()),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// Answer sizes of a point-like, a 1% and a 10% range over a 2M-row column.
const ANSWER_SIZES: [usize; 3] = [300, 20_000, 200_000];

/// `count` distinct row ids below 2M in scrambled order: multiplying by a
/// constant coprime to 2M permutes `0..2M`.
fn scrambled_ids(count: usize) -> Vec<u32> {
    (0..count as u64)
        .map(|i| (i * 1_234_567 % 2_000_000) as u32)
        .collect()
}

fn bench_position_list(c: &mut Criterion) {
    let mut group = c.benchmark_group("position_list");
    for &n in &ANSWER_SIZES {
        let ids = scrambled_ids(n);
        group.bench_with_input(BenchmarkId::new("from_vec", n), &ids, |b, ids| {
            b.iter_batched(
                || ids.clone(),
                |ids| black_box(PositionList::from_vec(ids).len()),
                BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("sort_dedup", n), &ids, |b, ids| {
            b.iter_batched(
                || ids.clone(),
                |mut ids| {
                    ids.sort_unstable();
                    ids.dedup();
                    black_box(ids.len())
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Rows of the column `row_materialize` reads, and its segment capacity.
const MATERIALIZE_ROWS: usize = 1_000_000;
const MATERIALIZE_SEGMENT_CAPACITY: usize = 4096;
/// Rows in each answer whose projected values are materialized.
const MATERIALIZE_ANSWER: usize = 5_000;

fn bench_row_materialize(c: &mut Criterion) {
    let mut group = c.benchmark_group("row_materialize");
    // `k` is a permutation of `0..n`, so a width-5,000 range on it selects
    // 5,000 row ids scattered over the whole column, in row order
    let n = MATERIALIZE_ROWS as i64;
    let keys: Vec<i64> = (0..n).map(|i| i * 48_271 % n).collect();
    let payload: Vec<i64> = (0..n).map(|i| i * 7).collect();
    let db = Database::builder()
        .segment_capacity(MATERIALIZE_SEGMENT_CAPACITY)
        .parallelism(1)
        .telemetry(false)
        .build();
    let table = Table::from_columns(vec![
        ("k", Column::from_i64(keys)),
        ("v", Column::from_i64(payload)),
    ])
    .expect("equal-length columns");
    db.create_table("t", table).expect("fresh database");
    // one answer per disjoint key range, used in turn: together they touch
    // every row, so an iteration reads positions the last few did not, as a
    // query stream over a column larger than the cache does
    let session = db.session();
    let width = MATERIALIZE_ANSWER as i64;
    let answers: Vec<QueryResult> = (0..n / width)
        .map(|j| {
            let query = Query::table("t")
                .range("k", j * width, (j + 1) * width)
                .project(["v"]);
            let result = session.execute(&query).expect("valid query");
            assert_eq!(result.row_count(), MATERIALIZE_ANSWER);
            result
        })
        .collect();
    let column = answers[0].snapshot().column("v").expect("projected column");

    group.bench_function(BenchmarkId::new("rows", MATERIALIZE_ANSWER), |b| {
        let mut turn = answers.iter().cycle();
        b.iter(|| {
            let result = turn.next().expect("endless cycle");
            result.rows().fold(0i64, |sum, row| match row.first() {
                Some(Value::Int64(v)) => sum.wrapping_add(*v),
                _ => sum,
            })
        })
    });
    group.bench_function(BenchmarkId::new("fetch_i64", MATERIALIZE_ANSWER), |b| {
        let mut turn = answers.iter().cycle();
        b.iter(|| {
            let result = turn.next().expect("endless cycle");
            fetch_i64(column, result.positions())
                .into_iter()
                .fold(0i64, i64::wrapping_add)
        })
    });
    group.finish();
}

/// Rows the updatable index starts with.
const RIPPLE_ROWS: usize = 300_000;
/// Steps in the replayed stream: one insert batch, then one query.
const RIPPLE_STEPS: usize = 1_000;
/// Inserts staged before each query.
const RIPPLE_BATCH: usize = 64;

/// The merge-ripple layer on its own: a 300k-row updatable cracked index
/// takes 1,000 steps of 64 random-key inserts followed by one 0.1% range
/// query (which merges the pending inserts inside its range). The reported
/// time is the whole stream's query time; the inserts and the index copy
/// are not timed.
fn bench_updatable_ripple(c: &mut Criterion) {
    let mut group = c.benchmark_group("updatable_ripple");
    group.sample_size(5);
    let domain = 4 * (RIPPLE_ROWS + RIPPLE_STEPS * RIPPLE_BATCH) as i64;
    let width = domain / 1000;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |bound: i64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) % bound as u64) as i64
    };
    let initial: Vec<i64> = (0..RIPPLE_ROWS).map(|_| next(domain)).collect();
    let inserted: Vec<i64> = (0..RIPPLE_STEPS * RIPPLE_BATCH)
        .map(|_| next(domain))
        .collect();
    let ranges: Vec<(i64, i64)> = (0..RIPPLE_STEPS)
        .map(|_| {
            let low = next(domain - width);
            (low, low + width)
        })
        .collect();
    let fresh = UpdatableCrackedIndex::from_keys(&initial, MergePolicy::MergeRipple);

    group.bench_function(BenchmarkId::new("merge_ripple_stream", RIPPLE_STEPS), |b| {
        b.iter_custom(|iters| {
            let mut queries = Duration::ZERO;
            for _ in 0..iters {
                let mut index = fresh.clone();
                for (step, &(low, high)) in ranges.iter().enumerate() {
                    for &key in &inserted[step * RIPPLE_BATCH..][..RIPPLE_BATCH] {
                        index.insert(key);
                    }
                    let started = Instant::now();
                    black_box(index.query_range(low, high).len());
                    queries += started.elapsed();
                }
            }
            queries
        })
    });
    group.finish();
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(15);
    targets = bench_crack_in_two, bench_crack_in_three, bench_scan_vs_sorted_extract,
        bench_position_list, bench_row_materialize, bench_updatable_ripple
}
criterion_main!(kernels);
