//! Pinned engine settings and seeded input generation shared by the
//! workloads.

use crate::measure::Rng;
use aidx_core::prelude::*;

/// Rows per sealed chunk, pinned (the engine default at the time the
/// benchmark was written) so a change of the default shows as a change.
pub const SEGMENT_CAPACITY: usize = 4096;

/// Sampled-trace period: the engine default of one query in 64, pinned.
pub const TRACE_SAMPLING: u64 = 64;

/// Every engine setting the benchmark depends on, set explicitly. The
/// builder's own parallelism default reads `AIDX_TEST_PARALLELISM`; the
/// explicit call here always wins over the environment.
pub fn builder(strategy: StrategyKind, parallelism: usize) -> DatabaseBuilder {
    Database::builder()
        .default_strategy(strategy)
        .parallelism(parallelism)
        .segment_capacity(SEGMENT_CAPACITY)
        .telemetry(true)
        .trace_sampling(TRACE_SAMPLING)
        .maintenance(MaintenanceConfig {
            background: false,
            ..MaintenanceConfig::default()
        })
}

/// `n` distinct keys in random order: the `i`-th smallest is `4i + r` with
/// `r` in `0..4`, so the domain is `0..4n` and no two keys collide.
pub fn unique_keys(n: usize, rng: &mut Rng) -> Vec<Key> {
    let mut keys: Vec<Key> = (0..n as Key).map(|i| 4 * i + rng.below(4) as Key).collect();
    rng.shuffle(&mut keys);
    keys
}

/// A `[low, high)` range of `width` keys placed uniformly in `0..domain`.
pub fn uniform_range(rng: &mut Rng, domain: Key, width: Key) -> (Key, Key) {
    let low = rng.below((domain - width + 1) as u64) as Key;
    (low, low + width)
}

/// Sorted-array oracle over one column: for any key range, the number of
/// qualifying rows and the sum of their positions, by binary search over
/// `(key, position)` pairs and prefix sums of the positions. A result's
/// position list matches when its length and sum do.
pub struct SortedOracle {
    sorted: Vec<Key>,
    prefix: Vec<u64>,
}

impl SortedOracle {
    pub fn new(keys: &[Key]) -> Self {
        let mut pairs: Vec<(Key, RowId)> = keys.iter().copied().zip(0..).collect();
        pairs.sort_unstable();
        let mut prefix = Vec::with_capacity(pairs.len() + 1);
        let mut acc = 0u64;
        prefix.push(acc);
        for &(_, position) in &pairs {
            acc += u64::from(position);
            prefix.push(acc);
        }
        SortedOracle {
            sorted: pairs.into_iter().map(|(k, _)| k).collect(),
            prefix,
        }
    }

    /// `(count, position sum)` of the rows whose key is in `[low, high)`.
    pub fn range(&self, low: Key, high: Key) -> (usize, u64) {
        let a = self.sorted.partition_point(|&k| k < low);
        let b = self.sorted.partition_point(|&k| k < high);
        (b - a, self.prefix[b] - self.prefix[a])
    }
}

/// `(count, position sum)` of a result's position list.
pub fn positions_digest(positions: &[RowId]) -> (usize, u64) {
    (
        positions.len(),
        positions.iter().map(|&p| u64::from(p)).sum(),
    )
}

/// `(count, position sum)` of the rows whose key is in `[low, high)`, by a
/// scan.
pub fn scan_digest(keys: &[Key], low: Key, high: Key) -> (usize, u64) {
    (0u64..)
        .zip(keys)
        .filter(|(_, k)| (low..high).contains(*k))
        .fold((0, 0), |(n, s), (p, _)| (n + 1, s + p))
}
