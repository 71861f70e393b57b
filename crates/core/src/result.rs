//! Query results: a compact summary plus a streaming row iterator.
//!
//! The seed executor materialized every projected row into a
//! `Vec<Vec<Value>>` before returning. [`QueryResult`] instead carries the
//! qualifying [`PositionList`] and a point-in-time snapshot of the table
//! (`Arc<Table>`); projected rows are reconstructed lazily by [`RowIter`] —
//! late materialization all the way to the client, and the snapshot stays
//! valid even while other sessions keep appending to the table.
//!
//! Reconstruction is column-at-a-time over bounded batches: the iterator
//! gathers the next batch of positions from each projected column with
//! [`Column::gather`](aidx_columnstore::column::Column::gather) (one
//! chunk-resolved pass per column, so independent cache misses overlap),
//! then hands rows out of that column-major buffer. It never holds more than
//! one batch, so a result of any size streams in bounded memory.

use aidx_columnstore::ops::select::PruneStats;
use aidx_columnstore::position::PositionList;
use aidx_columnstore::table::Table;
use aidx_columnstore::types::{RowId, Value};
use std::sync::Arc;

/// The result of executing a [`crate::Query`] through a [`crate::Session`].
#[derive(Debug, Clone)]
pub struct QueryResult {
    table: Arc<Table>,
    positions: PositionList,
    /// Schema indexes of the projected columns, in projection order.
    projected: Vec<usize>,
    aggregate: Option<Value>,
    prune: PruneStats,
}

impl QueryResult {
    /// Assemble a result. Positions must refer to rows of `table`; the
    /// constructor is crate-private so only the executor (which guarantees
    /// that invariant) can build one.
    pub(crate) fn new(
        table: Arc<Table>,
        positions: PositionList,
        projected: Vec<usize>,
        aggregate: Option<Value>,
        prune: PruneStats,
    ) -> Self {
        debug_assert!(positions
            .as_slice()
            .last()
            .is_none_or(|&p| (p as usize) < table.row_count()));
        QueryResult {
            table,
            positions,
            projected,
            aggregate,
            prune,
        }
    }

    /// Number of qualifying rows.
    pub fn row_count(&self) -> usize {
        self.positions.len()
    }

    /// True when no row qualifies.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Positions of the qualifying rows in the base table.
    pub fn positions(&self) -> &PositionList {
        &self.positions
    }

    /// The aggregate value, when the query requested one. `None` either
    /// means "no aggregate requested" or "aggregate over an empty set"
    /// (`COUNT` of an empty set is `Some(Int64(0))`, never `None`).
    pub fn aggregate(&self) -> Option<&Value> {
        self.aggregate.as_ref()
    }

    /// Stream the projected rows. Each item is one row, with values in
    /// projection order. Returns an empty iterator when the query projected
    /// no columns.
    pub fn rows(&self) -> RowIter<'_> {
        RowIter::new(&self.table, self.positions.as_slice(), &self.projected)
    }

    /// Materialize every projected row (convenience over [`Self::rows`]).
    pub fn collect_rows(&self) -> Vec<Vec<Value>> {
        self.rows().collect()
    }

    /// The table snapshot this result reads from.
    pub fn snapshot(&self) -> &Arc<Table> {
        &self.table
    }

    /// Zone-map pruning statistics for the scan and residual-filter work of
    /// this query: chunks whose zone map proved them irrelevant were skipped
    /// without reading a value. Work done *inside* an adaptive index is not
    /// chunk-granular and is not counted here.
    pub fn prune_stats(&self) -> PruneStats {
        self.prune
    }
}

/// Rows per column-at-a-time batch of [`RowIter`]: each projected column is
/// gathered for this many positions at once, which bounds the iterator's
/// buffer to `ROW_BATCH` values per projected column.
pub(crate) const ROW_BATCH: usize = 1024;

/// A streaming iterator over the projected rows of a [`QueryResult`].
///
/// Rows are reconstructed on demand from the result's table snapshot, one
/// bounded batch at a time: the next 1,024 positions are gathered
/// column by column into a column-major buffer, and rows are handed out of
/// it. Memory stays O(batch × projected columns) whatever the result size.
/// The iterator is cheap to create and can be re-created from the result
/// any number of times.
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    table: &'a Table,
    /// Positions not yet gathered into `batch`.
    pending: &'a [RowId],
    projected: &'a [usize],
    /// The gathered batch, column-major: one iterator per projected column,
    /// all with the same number of values left.
    batch: Vec<std::vec::IntoIter<Value>>,
}

impl<'a> RowIter<'a> {
    /// Stream the `projected` columns of `table` at `positions`, in order.
    /// Every position must be below the table's row count and every
    /// projected index below its arity.
    pub(crate) fn new(table: &'a Table, positions: &'a [RowId], projected: &'a [usize]) -> Self {
        RowIter {
            table,
            pending: positions,
            projected,
            batch: Vec::with_capacity(projected.len()),
        }
    }

    /// Values left in the gathered batch.
    #[inline]
    fn buffered(&self) -> usize {
        self.batch.first().map_or(0, ExactSizeIterator::len)
    }

    /// Gather the next batch of pending positions, one column at a time.
    fn refill(&mut self) {
        let (positions, rest) = self.pending.split_at(self.pending.len().min(ROW_BATCH));
        self.pending = rest;
        let table = self.table;
        self.batch.clear();
        self.batch
            .extend(self.projected.iter().map(|&column_index| {
                // Both indexes were validated when the result was assembled:
                // `projected` against the schema, `positions` against the
                // snapshot's row count.
                table
                    .column_at(column_index)
                    .and_then(|c| c.gather(positions).ok())
                    .expect("QueryResult invariant: projection and positions validated")
                    .into_iter()
            }));
    }
}

impl Iterator for RowIter<'_> {
    type Item = Vec<Value>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.projected.is_empty() {
            return None;
        }
        if self.buffered() == 0 {
            if self.pending.is_empty() {
                return None;
            }
            self.refill();
        }
        Some(
            self.batch
                .iter_mut()
                .map(|column| column.next().expect("batch columns have equal length"))
                .collect(),
        )
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.projected.is_empty() {
            return (0, Some(0));
        }
        let remaining = self.buffered() + self.pending.len();
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

impl<'a> IntoIterator for &'a QueryResult {
    type Item = Vec<Value>;
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aidx_columnstore::column::Column;

    fn snapshot() -> Arc<Table> {
        Arc::new(
            Table::from_columns(vec![
                ("k", Column::from_i64(vec![10, 20, 30, 40])),
                ("label", Column::from_strs(&["a", "b", "c", "d"])),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn rows_stream_lazily_in_projection_order() {
        let result = QueryResult::new(
            snapshot(),
            PositionList::from_vec(vec![1, 3]),
            vec![1, 0], // label, k
            None,
            PruneStats::default(),
        );
        assert_eq!(result.row_count(), 2);
        let mut iter = result.rows();
        assert_eq!(iter.len(), 2);
        assert_eq!(
            iter.next(),
            Some(vec![Value::Utf8("b".into()), Value::Int64(20)])
        );
        assert_eq!(iter.len(), 1);
        assert_eq!(
            iter.next(),
            Some(vec![Value::Utf8("d".into()), Value::Int64(40)])
        );
        assert_eq!(iter.next(), None);
        // re-creating the iterator replays the rows
        assert_eq!(result.collect_rows().len(), 2);
        assert_eq!((&result).into_iter().count(), 2);
    }

    /// `RowIter` against a per-row `Column::value_at` reference, over every
    /// column type, permuted and repeated projections, result lengths on
    /// both sides of each batch boundary, and positions in sealed chunks and
    /// in the mutable tail at several segment capacities. The seed comes
    /// from `AIDX_SEED` when set, otherwise from the clock, and every failure
    /// message carries it.
    #[test]
    fn row_iter_matches_per_row_value_at_reference() {
        let seed = std::env::var("AIDX_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or_else(|| {
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(1, |d| d.as_nanos() as u64)
            });
        // splitmix64: a full-period generator that needs no dependency
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // not a multiple of any capacity below, so every layout keeps a
        // non-empty mutable tail
        const ROWS: usize = 5_003;
        let ints: Vec<i64> = (0..ROWS).map(|_| next() as i64).collect();
        let floats: Vec<f64> = (0..ROWS)
            .map(|_| (next() % 1_000_000) as f64 / 8.0)
            .collect();
        let strings: Vec<String> = (0..ROWS).map(|_| format!("s{}", next() % 97)).collect();
        let strs: Vec<&str> = strings.iter().map(String::as_str).collect();
        let projections: [&[usize]; 4] = [&[0, 1, 2], &[2, 0, 1], &[1, 2, 0, 2], &[2]];
        let lengths = [
            0,
            1,
            ROW_BATCH - 1,
            ROW_BATCH,
            ROW_BATCH + 1,
            3 * ROW_BATCH + 7,
        ];
        for capacity in [7, 1000, 4096] {
            let table = Arc::new(
                Table::from_columns(vec![
                    (
                        "i",
                        Column::from_i64(ints.clone()).with_segment_capacity(capacity),
                    ),
                    (
                        "f",
                        Column::from_f64(floats.clone()).with_segment_capacity(capacity),
                    ),
                    (
                        "s",
                        Column::from_strs(&strs).with_segment_capacity(capacity),
                    ),
                ])
                .unwrap(),
            );
            let sealed: usize = table.column_at(0).unwrap().sealed_chunk_lens().iter().sum();
            assert!(
                sealed > 0 && sealed < ROWS,
                "capacity {capacity}: {sealed} sealed rows"
            );
            for &len in &lengths {
                // a random `len`-subset of the rows that starts with the last
                // row (in the tail) and the first (in a sealed chunk)
                let mut ids: Vec<RowId> = [ROWS as RowId - 1, 0]
                    .into_iter()
                    .chain(1..ROWS as RowId - 1)
                    .collect();
                for i in 2..len {
                    let j = i + (next() % (ROWS - i) as u64) as usize;
                    ids.swap(i, j);
                }
                ids.truncate(len);
                let positions = PositionList::from_vec(ids);
                assert_eq!(positions.len(), len);
                for projection in projections {
                    let what = format!(
                        "capacity {capacity}, {len} rows, projection {projection:?} \
                         (reproduce with AIDX_SEED={seed})"
                    );
                    let expected: Vec<Vec<Value>> = positions
                        .iter()
                        .map(|p| {
                            projection
                                .iter()
                                .map(|&c| table.column_at(c).unwrap().value_at(p as usize).unwrap())
                                .collect()
                        })
                        .collect();
                    let result = QueryResult::new(
                        Arc::clone(&table),
                        positions.clone(),
                        projection.to_vec(),
                        None,
                        PruneStats::default(),
                    );

                    let mut iter = result.rows();
                    let mut got = Vec::with_capacity(len);
                    assert_eq!(iter.len(), len, "len() before the first row: {what}");
                    while let Some(row) = iter.next() {
                        got.push(row);
                        assert_eq!(iter.len(), len - got.len(), "len() after a row: {what}");
                    }
                    assert!(got == expected, "rows differ from value_at: {what}");
                    assert_eq!(iter.next(), None, "{what}");

                    // partly consumed, then cloned: both halves agree, and
                    // with the reference
                    for split in [(next() % (len as u64 + 1)) as usize, ROW_BATCH.min(len)] {
                        let mut iter = result.rows();
                        let head: Vec<Vec<Value>> = iter.by_ref().take(split).collect();
                        let clone = iter.clone();
                        assert_eq!(clone.len(), len - split, "clone after {split}: {what}");
                        let rest: Vec<Vec<Value>> = iter.collect();
                        let cloned_rest: Vec<Vec<Value>> = clone.collect();
                        assert!(
                            head == expected[..split]
                                && rest == expected[split..]
                                && cloned_rest == rest,
                            "split at {split} differs: {what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_projection_streams_nothing() {
        let result = QueryResult::new(
            snapshot(),
            PositionList::from_vec(vec![0, 1, 2]),
            Vec::new(),
            None,
            PruneStats::default(),
        );
        assert_eq!(result.row_count(), 3);
        assert!(!result.is_empty());
        assert_eq!(result.rows().count(), 0);
        assert_eq!(result.rows().size_hint(), (0, Some(0)));
    }

    #[test]
    fn aggregate_accessor() {
        let result = QueryResult::new(
            snapshot(),
            PositionList::new(),
            Vec::new(),
            Some(Value::Int64(0)),
            PruneStats::default(),
        );
        assert!(result.is_empty());
        assert_eq!(result.aggregate(), Some(&Value::Int64(0)));
        assert_eq!(result.snapshot().row_count(), 4);
    }
}
