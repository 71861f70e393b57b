//! Criterion micro-benchmarks for the physical reorganization kernels:
//! crack-in-two, crack-in-three, sorted-run extraction and the scan / binary
//! search baselines they compete with, plus result assembly — putting an
//! answer's row ids back into row order — beside its comparison-sort
//! baseline.

use aidx_columnstore::position::PositionList;
use aidx_cracking::crack::{crack_in_three, crack_in_two, PivotSide};
use aidx_merging::run::SortedRun;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

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

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(15);
    targets = bench_crack_in_two, bench_crack_in_three, bench_scan_vs_sorted_extract,
        bench_position_list
}
criterion_main!(kernels);
