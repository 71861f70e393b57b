//! Updating a cracked database (Idreos, Kersten, Manegold — SIGMOD 2007).
//!
//! Updates follow the same adaptive philosophy as the index itself: they are
//! *not* applied eagerly. Insertions and deletions are staged in pending
//! areas and merged into the cracker column lazily, during query
//! processing, and only as much as the chosen merge policy demands:
//!
//! * [`MergePolicy::MergeCompletely`] — the first query after updates merges
//!   every pending tuple (the simplest, most disruptive strategy),
//! * [`MergePolicy::MergeGradually`] — each query merges at most a fixed
//!   number of pending tuples that fall inside its range, lowest keys first,
//! * [`MergePolicy::MergeRipple`] — each query merges exactly the pending
//!   tuples that fall inside its range.
//!
//! The pending areas are key-ordered sets of `(key, row id)`, so a query
//! finds the pending tuples of its range with one range walk, and a pending
//! deletion masks an indexed tuple with one set lookup.
//!
//! Every policy merges its insertions with one *batched ripple*: the `k`
//! tuples to merge are taken in key order, the column grows by `k`, and the
//! downstream pieces are walked once from the last to the first. A piece
//! with `s` new keys below its low cut moves `min(s, len)` of its leading
//! elements past its end and takes its own new tuples into the gap that
//! opens, so no piece is shifted wholesale; one ascending walk over the cut
//! index then moves each downstream cut by its `s`. A query's merge costs
//! O(C + k + moved elements) for `C` cuts, and the cached min/max only
//! widen. Deletions, which are rare, use the per-tuple reverse ripple.
//!
//! Whatever is not merged yet is still reflected in query answers: results
//! combine the cracker column with the relevant pending tuples, so answers
//! are always up to date ("updates are applied on demand").

use crate::index::{BTreeCutIndex, CutIndex};
use crate::selection::CrackedIndex;
use crate::stats::CrackStats;
use aidx_columnstore::types::{Key, RowId};
use std::collections::btree_set::{self, BTreeSet};

/// How aggressively pending updates are merged during query processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePolicy {
    /// Merge all pending updates on the next query, regardless of its range.
    MergeCompletely,
    /// Merge at most this many pending updates per query, restricted to the
    /// query's range: the lowest-keyed pending insertions first, then, with
    /// what is left of the budget, the lowest-keyed pending deletions.
    MergeGradually {
        /// Maximum number of pending tuples merged per query.
        batch: usize,
    },
    /// Merge exactly the pending updates falling inside the query's range.
    MergeRipple,
}

/// A query answer that owns its data (the updatable index may consult both
/// the cracker column and the pending areas, so it cannot hand out one
/// contiguous borrowed slice).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateQueryAnswer {
    /// Qualifying key values.
    pub keys: Vec<Key>,
    /// Row ids parallel to `keys`.
    pub rowids: Vec<RowId>,
}

impl UpdateQueryAnswer {
    /// Number of qualifying tuples.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no tuple qualifies.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// A selection-cracking index that supports adaptive insertions and deletions.
#[derive(Debug, Clone)]
pub struct UpdatableCrackedIndex {
    index: CrackedIndex<BTreeCutIndex>,
    policy: MergePolicy,
    pending_inserts: BTreeSet<(Key, RowId)>,
    pending_deletes: BTreeSet<(Key, RowId)>,
    next_rowid: RowId,
    merged_inserts: u64,
    merged_deletes: u64,
}

impl UpdatableCrackedIndex {
    /// Build from a dense key slice; row ids `0..n` refer to those keys.
    pub fn from_keys(keys: &[Key], policy: MergePolicy) -> Self {
        Self::from_key_iter(keys.iter().copied(), policy)
    }

    /// Build by streaming keys straight into the inner cracked index (no
    /// transient contiguous copy of the base column).
    pub fn from_key_iter(keys: impl ExactSizeIterator<Item = Key>, policy: MergePolicy) -> Self {
        let index = CrackedIndex::from_key_iter(keys);
        let next_rowid = index.len() as RowId;
        UpdatableCrackedIndex {
            index,
            policy,
            pending_inserts: BTreeSet::new(),
            pending_deletes: BTreeSet::new(),
            next_rowid,
            merged_inserts: 0,
            merged_deletes: 0,
        }
    }

    /// Total number of live tuples (indexed + pending inserts − pending deletes).
    pub fn len(&self) -> usize {
        self.index.len() + self.pending_inserts.len() - self.pending_deletes.len()
    }

    /// True when no live tuple exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tuples waiting in the pending-insertions area.
    pub fn pending_insert_count(&self) -> usize {
        self.pending_inserts.len()
    }

    /// Number of tuples waiting in the pending-deletions area.
    pub fn pending_delete_count(&self) -> usize {
        self.pending_deletes.len()
    }

    /// How many pending insertions have been merged into the cracker column.
    pub fn merged_insert_count(&self) -> u64 {
        self.merged_inserts
    }

    /// How many pending deletions have been applied to the cracker column.
    pub fn merged_delete_count(&self) -> u64 {
        self.merged_deletes
    }

    /// The active merge policy.
    pub fn policy(&self) -> MergePolicy {
        self.policy
    }

    /// Change the merge policy (e.g. to study the trade-off in a benchmark).
    pub fn set_policy(&mut self, policy: MergePolicy) {
        self.policy = policy;
    }

    /// Accumulated instrumentation of the underlying cracked index.
    pub fn stats(&self) -> &CrackStats {
        self.index.stats()
    }

    /// Number of pieces in the cracker column.
    pub fn piece_count(&self) -> usize {
        self.index.piece_count()
    }

    /// Stage an insertion; returns the row id assigned to the new tuple.
    pub fn insert(&mut self, key: Key) -> RowId {
        let rowid = self.next_rowid;
        self.next_rowid += 1;
        self.pending_inserts.insert((key, rowid));
        rowid
    }

    /// Stage a deletion of the tuple `(key, rowid)`. If the tuple is still in
    /// the pending-insertions area it is simply dropped from there. Returns
    /// `true` when the tuple was known (either pending or indexed).
    pub fn delete(&mut self, key: Key, rowid: RowId) -> bool {
        if self.pending_inserts.remove(&(key, rowid)) {
            return true;
        }
        // only the piece that can hold `key` is scanned
        let (begin, end) = self.index.piece_holding(key);
        let column = self.index.column();
        let indexed = (begin..end).any(|p| column.rowid(p) == rowid && column.value(p) == key);
        indexed && self.pending_deletes.insert((key, rowid))
    }

    /// Answer the half-open range query `[low, high)`, merging pending
    /// updates according to the configured policy first.
    pub fn query_range(&mut self, low: Key, high: Key) -> UpdateQueryAnswer {
        self.merge_for_query(low, high);

        // Remaining pending deletions mask indexed tuples; remaining pending
        // insertions contribute extra tuples.
        let result = self.index.query_range(low, high);
        let (mut keys, mut rowids): (Vec<Key>, Vec<RowId>) =
            if in_range(&self.pending_deletes, low, high).next().is_some() {
                result
                    .keys()
                    .iter()
                    .zip(result.rowids())
                    .map(|(&k, &r)| (k, r))
                    .filter(|pair| !self.pending_deletes.contains(pair))
                    .unzip()
            } else {
                (result.keys().to_vec(), result.rowids().to_vec())
            };
        for &(k, r) in in_range(&self.pending_inserts, low, high) {
            keys.push(k);
            rowids.push(r);
        }

        UpdateQueryAnswer { keys, rowids }
    }

    /// Count the qualifying tuples of `[low, high)`.
    pub fn count_range(&mut self, low: Key, high: Key) -> usize {
        self.query_range(low, high).len()
    }

    fn merge_for_query(&mut self, low: Key, high: Key) {
        let budget = match self.policy {
            MergePolicy::MergeCompletely => {
                let inserts: Vec<(Key, RowId)> = std::mem::take(&mut self.pending_inserts)
                    .into_iter()
                    .collect();
                self.merge_inserts(&inserts);
                let deletes: Vec<(Key, RowId)> = std::mem::take(&mut self.pending_deletes)
                    .into_iter()
                    .collect();
                self.merge_deletes(&deletes);
                return;
            }
            MergePolicy::MergeGradually { batch } => batch,
            MergePolicy::MergeRipple => usize::MAX,
        };
        let inserts = take_in_range(&mut self.pending_inserts, low, high, budget);
        self.merge_inserts(&inserts);
        let budget = budget - inserts.len();
        let deletes = take_in_range(&mut self.pending_deletes, low, high, budget);
        self.merge_deletes(&deletes);
    }

    /// Merge `batch`, sorted by key, into the cracker column with one
    /// batched ripple pass, and widen the cached min/max to cover it.
    fn merge_inserts(&mut self, batch: &[(Key, RowId)]) {
        let (Some(&(lowest, _)), Some(&(highest, _))) = (batch.first(), batch.last()) else {
            return;
        };
        let was_empty = self.index.is_empty();
        let (column, cuts, stats) = self.index.parts_mut();
        let len = column.len();

        // One ascending walk over the cuts above the lowest new key: each
        // downstream piece shifts right by `s`, the number of new keys below
        // its low cut. Remember each piece's old start with its `s`.
        let mut shifts: Vec<(usize, usize)> = Vec::new();
        let mut below = 0;
        for (cut_key, position) in cuts.positions_above_mut(lowest) {
            while below < batch.len() && batch[below].0 < cut_key {
                below += 1;
            }
            shifts.push((*position, below));
            *position += below;
        }

        // Open one slot per new tuple at the end; the walk overwrites them.
        for &(key, rowid) in batch {
            column.push(key, rowid);
        }
        // Walk the downstream pieces from the last to the first. Invariant:
        // the `upper` slots starting at `end` (the old end of the current
        // piece) are free, and `upper` counts the new keys below its high cut.
        let (values, rowids) = column.pair_slices_mut();
        let (mut end, mut upper) = (len, batch.len());
        for &(begin, shift) in shifts.iter().rev() {
            // The piece moves to `[begin + shift, end + upper)`: its leading
            // elements go past its end, its new tuples fill the rest.
            let piece = end - begin;
            let moved = shift.min(piece);
            let to = begin + shift.max(piece);
            values.copy_within(begin..begin + moved, to);
            rowids.copy_within(begin..begin + moved, to);
            write_pairs(values, rowids, end + shift, &batch[shift..upper]);
            (end, upper) = (begin, shift);
        }
        // The piece holding the lowest new keys does not move.
        write_pairs(values, rowids, end, &batch[..upper]);

        stats.record_merge(batch.len());
        self.merged_inserts += batch.len() as u64;
        if was_empty {
            self.index.refresh_min_max();
        } else {
            self.index.widen_min_max(lowest, highest);
        }
    }

    /// Apply `batch` one tuple at a time with the reverse ripple; rescan the
    /// column for its min/max only if a deleted key was the min or the max.
    fn merge_deletes(&mut self, batch: &[(Key, RowId)]) {
        let mut stale = false;
        for &(key, rowid) in batch {
            stale |= key == self.index.min_value() || key == self.index.max_value();
            self.ripple_delete(key, rowid);
        }
        if stale {
            self.index.refresh_min_max();
        }
    }

    /// Delete `(key, rowid)` from the cracker column using the reverse
    /// ripple: the hole left by the deleted pair swallows one element per
    /// downstream piece, and the column shrinks by one at the end.
    fn ripple_delete(&mut self, key: Key, rowid: RowId) {
        // Locate the piece holding `key` and scan it for the row id.
        let (begin, end) = self.index.piece_holding(key);
        let (column, cuts, stats) = self.index.parts_mut();
        let len = column.len();
        let Some(offset) =
            (begin..end).find(|&p| column.rowid(p) == rowid && column.value(p) == key)
        else {
            return;
        };

        // Cut keys strictly greater than `key`, ascending: each downstream
        // piece donates its first element to the hole and shifts left by one.
        let downstream: Vec<(Key, usize)> =
            cuts.cuts().into_iter().filter(|&(k, _)| k > key).collect();

        let mut hole = offset;
        // Within the target piece, fill the hole with the piece's last pair.
        let target_piece_end = downstream.first().map_or(len, |&(_, p)| p);
        if hole != target_piece_end - 1 {
            let (v, r) = (
                column.value(target_piece_end - 1),
                column.rowid(target_piece_end - 1),
            );
            column.set(hole, v, r);
        }
        hole = target_piece_end - 1;

        for (i, &(cut_key, cut_pos)) in downstream.iter().enumerate() {
            // The hole sits at the last slot of the previous piece; once this
            // piece's boundary moves left by one, that slot is this piece's
            // first, so it takes this piece's last element.
            let next_pos = downstream.get(i + 1).map_or(len, |&(_, p)| p);
            if next_pos - 1 != hole {
                let (v, r) = (column.value(next_pos - 1), column.rowid(next_pos - 1));
                column.set(hole, v, r);
            }
            hole = next_pos - 1;
            cuts.insert(cut_key, cut_pos - 1);
        }

        debug_assert_eq!(hole, len - 1);
        column.truncate(len - 1);
        stats.record_merge(1);
        self.merged_deletes += 1;
    }

    /// Verify structural invariants of the underlying index plus the pending
    /// areas (no tuple may be both pending-inserted and pending-deleted).
    pub fn verify_integrity(&self) -> bool {
        self.index.verify_integrity() && self.pending_inserts.is_disjoint(&self.pending_deletes)
    }

    /// The underlying cracked index (for inspection in tests / harnesses).
    pub fn index(&self) -> &CrackedIndex<BTreeCutIndex> {
        &self.index
    }
}

/// The tuples of a pending area with keys in `[low, high)`, in key order
/// (empty when `low >= high`).
fn in_range(
    pending: &BTreeSet<(Key, RowId)>,
    low: Key,
    high: Key,
) -> btree_set::Range<'_, (Key, RowId)> {
    pending.range((low, RowId::MIN)..(high.max(low), RowId::MIN))
}

/// Remove and return, in key order, at most `budget` tuples of `pending`
/// with keys in `[low, high)`.
fn take_in_range(
    pending: &mut BTreeSet<(Key, RowId)>,
    low: Key,
    high: Key,
    budget: usize,
) -> Vec<(Key, RowId)> {
    let taken: Vec<(Key, RowId)> = in_range(pending, low, high).take(budget).copied().collect();
    for pair in &taken {
        pending.remove(pair);
    }
    taken
}

/// Write `pairs` into consecutive slots starting at `at`.
fn write_pairs(values: &mut [Key], rowids: &mut [RowId], at: usize, pairs: &[(Key, RowId)]) {
    for (i, &(key, rowid)) in pairs.iter().enumerate() {
        values[at + i] = key;
        rowids[at + i] = rowid;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(mut v: Vec<Key>) -> Vec<Key> {
        v.sort_unstable();
        v
    }

    /// Reference model: a plain vector of (key, rowid) pairs.
    #[derive(Default)]
    struct Model {
        live: Vec<(Key, RowId)>,
    }

    impl Model {
        fn from_keys(keys: &[Key]) -> Self {
            Model {
                live: keys
                    .iter()
                    .copied()
                    .enumerate()
                    .map(|(i, k)| (k, i as RowId))
                    .collect(),
            }
        }
        fn insert(&mut self, key: Key, rowid: RowId) {
            self.live.push((key, rowid));
        }
        fn delete(&mut self, key: Key, rowid: RowId) {
            self.live.retain(|&(k, r)| !(k == key && r == rowid));
        }
        fn range(&self, low: Key, high: Key) -> Vec<Key> {
            self.pairs_in(low, high)
                .into_iter()
                .map(|(k, _)| k)
                .collect()
        }
        /// The live `(key, rowid)` pairs with keys in `[low, high)`, sorted.
        fn pairs_in(&self, low: Key, high: Key) -> Vec<(Key, RowId)> {
            let mut pairs: Vec<(Key, RowId)> = self
                .live
                .iter()
                .copied()
                .filter(|&(k, _)| k >= low && k < high)
                .collect();
            pairs.sort_unstable();
            pairs
        }
    }

    fn policies() -> Vec<MergePolicy> {
        vec![
            MergePolicy::MergeCompletely,
            MergePolicy::MergeGradually { batch: 2 },
            MergePolicy::MergeRipple,
        ]
    }

    #[test]
    fn insert_then_query_sees_new_tuples() {
        for policy in policies() {
            let data = vec![10, 50, 90];
            let mut idx = UpdatableCrackedIndex::from_keys(&data, policy);
            idx.insert(42);
            idx.insert(60);
            assert_eq!(idx.pending_insert_count(), 2);
            let answer = idx.query_range(40, 70);
            assert_eq!(sorted(answer.keys.clone()), vec![42, 50, 60], "{policy:?}");
            assert!(idx.verify_integrity(), "{policy:?}");
        }
    }

    #[test]
    fn delete_then_query_hides_tuples() {
        for policy in policies() {
            let data = vec![10, 20, 30, 40];
            let mut idx = UpdatableCrackedIndex::from_keys(&data, policy);
            assert!(idx.delete(20, 1));
            assert!(idx.delete(40, 3));
            let answer = idx.query_range(0, 100);
            assert_eq!(sorted(answer.keys.clone()), vec![10, 30], "{policy:?}");
            assert!(idx.verify_integrity(), "{policy:?}");
        }
    }

    #[test]
    fn delete_of_pending_insert_cancels_it() {
        let mut idx = UpdatableCrackedIndex::from_keys(&[1, 2], MergePolicy::MergeRipple);
        let rid = idx.insert(99);
        assert!(idx.delete(99, rid));
        assert_eq!(idx.pending_insert_count(), 0);
        assert_eq!(idx.pending_delete_count(), 0);
        assert_eq!(idx.count_range(0, 1000), 2);
    }

    #[test]
    fn delete_of_unknown_tuple_returns_false() {
        let mut idx = UpdatableCrackedIndex::from_keys(&[1, 2], MergePolicy::MergeRipple);
        assert!(!idx.delete(99, 57));
        assert!(!idx.delete(1, 1)); // rowid 1 holds key 2, not key 1
        assert!(idx.delete(2, 1));
        // double delete is rejected
        assert!(!idx.delete(2, 1));
    }

    #[test]
    fn merge_completely_drains_pending_on_first_query() {
        let data: Vec<Key> = (0..100).collect();
        let mut idx = UpdatableCrackedIndex::from_keys(&data, MergePolicy::MergeCompletely);
        for i in 0..10 {
            idx.insert(1000 + i);
        }
        idx.delete(5, 5);
        let _ = idx.query_range(0, 10);
        assert_eq!(idx.pending_insert_count(), 0);
        assert_eq!(idx.pending_delete_count(), 0);
        assert_eq!(idx.merged_insert_count(), 10);
        assert_eq!(idx.merged_delete_count(), 1);
        assert_eq!(idx.index().len(), 109);
        assert!(idx.verify_integrity());
    }

    #[test]
    fn merge_ripple_only_merges_in_range_tuples() {
        let data: Vec<Key> = (0..100).collect();
        let mut idx = UpdatableCrackedIndex::from_keys(&data, MergePolicy::MergeRipple);
        // establish some pieces first
        let _ = idx.query_range(20, 40);
        let _ = idx.query_range(60, 80);
        idx.insert(25); // inside a future query range
        idx.insert(70); // outside it
        let answer = idx.query_range(20, 40);
        assert!(answer.keys.contains(&25));
        assert_eq!(idx.pending_insert_count(), 1, "70 stays pending");
        assert_eq!(idx.merged_insert_count(), 1);
        assert!(idx.verify_integrity());
        // the merged tuple is physically in the cracker column now
        assert!(idx.index().column().values().contains(&25));
    }

    #[test]
    fn merge_gradually_respects_batch_limit() {
        let data: Vec<Key> = (0..50).collect();
        let mut idx =
            UpdatableCrackedIndex::from_keys(&data, MergePolicy::MergeGradually { batch: 2 });
        for _ in 0..6 {
            idx.insert(25);
        }
        let a1 = idx.query_range(20, 30);
        assert_eq!(a1.keys.iter().filter(|&&k| k == 25).count(), 6 + 1);
        assert_eq!(idx.merged_insert_count(), 2);
        assert_eq!(idx.pending_insert_count(), 4);
        let _ = idx.query_range(20, 30);
        assert_eq!(idx.merged_insert_count(), 4);
        assert!(idx.verify_integrity());
        assert_eq!(idx.policy(), MergePolicy::MergeGradually { batch: 2 });
    }

    #[test]
    fn ripple_insert_preserves_piece_invariants() {
        let data: Vec<Key> = (0..200).rev().collect();
        let mut idx = UpdatableCrackedIndex::from_keys(&data, MergePolicy::MergeRipple);
        // crack into several pieces
        let _ = idx.query_range(50, 100);
        let _ = idx.query_range(120, 160);
        let pieces_before = idx.piece_count();
        // insert values hitting different pieces
        for &v in &[10, 55, 110, 130, 190] {
            idx.insert(v);
        }
        let answer = idx.query_range(0, 300);
        assert_eq!(answer.len(), 205);
        assert_eq!(idx.piece_count(), pieces_before);
        assert!(idx.verify_integrity());
        assert_eq!(idx.len(), 205);
    }

    #[test]
    fn interleaved_updates_and_queries_match_model() {
        for policy in policies() {
            let initial: Vec<Key> = (0..500).map(|i| (i * 71) % 500).collect();
            let mut idx = UpdatableCrackedIndex::from_keys(&initial, policy);
            let mut model = Model::from_keys(&initial);

            let mut state: u64 = 0xDEADBEEF;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as i64
            };

            for step in 0..300 {
                match step % 5 {
                    0 => {
                        let k = next() % 600;
                        let rid = idx.insert(k);
                        model.insert(k, rid);
                    }
                    1 => {
                        // delete a random live tuple from the model
                        if !model.live.is_empty() {
                            let pick = (next() as usize) % model.live.len();
                            let (k, r) = model.live[pick];
                            assert!(idx.delete(k, r), "{policy:?}: delete of live tuple failed");
                            model.delete(k, r);
                        }
                    }
                    _ => {
                        let a = next() % 600;
                        let b = next() % 600;
                        let (low, high) = if a <= b { (a, b) } else { (b, a) };
                        let got = sorted(idx.query_range(low, high).keys);
                        assert_eq!(got, model.range(low, high), "{policy:?}");
                    }
                }
            }
            assert!(idx.verify_integrity(), "{policy:?}");
        }
    }

    /// Differential test of the batched ripple against [`Model`]: every
    /// answer must hold exactly the model's `(key, rowid)` pairs, and after
    /// every step the index must pass `verify_integrity` and hold exactly the
    /// pending and merged insertion counts its policy implies. The streams
    /// cover an empty initial index, duplicate keys, inserts below the min
    /// and above the max, inserts on existing cut keys, merges spanning one,
    /// several and all pieces, and deletes of the current min and max. The
    /// seed comes from `AIDX_SEED` when set, otherwise from the clock, and
    /// every failure message carries it.
    #[test]
    fn batched_ripple_matches_model() {
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
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let scenarios: [(&str, Vec<Key>); 3] = [
            ("empty", Vec::new()),
            ("duplicates", (0..120).map(|i| (i * 7) % 15).collect()),
            ("spread", (0..400).map(|i| (i * 389) % 1000).collect()),
        ];
        let policies = [
            MergePolicy::MergeCompletely,
            MergePolicy::MergeGradually { batch: 1 },
            MergePolicy::MergeGradually { batch: 4 },
            MergePolicy::MergeRipple,
        ];
        for (name, initial) in &scenarios {
            for &policy in &policies {
                let mut idx = UpdatableCrackedIndex::from_keys(initial, policy);
                let mut model = Model::from_keys(initial);
                // what the policy implies: the pending insertions, by rowid
                // order of arrival, and how many were merged so far
                let mut pending: Vec<(Key, RowId)> = Vec::new();
                let mut merged = 0u64;
                // query bounds so far: the keys the index has cuts on
                let mut bounds: Vec<Key> = vec![500];
                for step in 0..400 {
                    let ctx = |what: &str| {
                        format!(
                            "{what} at step {step} ({name}, {policy:?}; \
                             reproduce with AIDX_SEED={seed})"
                        )
                    };
                    let (lo, hi) = model
                        .live
                        .iter()
                        .fold((0, 1000), |(lo, hi), &(k, _)| (k.min(lo), k.max(hi)));
                    match next(10) {
                        0..=3 => {
                            // a burst of inserts, each from one of the shapes
                            for _ in 0..1 + next(6) {
                                let key = match next(5) {
                                    0 => bounds[next(bounds.len() as u64) as usize],
                                    1 => lo - 1 - next(5) as Key,
                                    2 => hi + 1 + next(5) as Key,
                                    3 if !model.live.is_empty() => {
                                        model.live[next(model.live.len() as u64) as usize].0
                                    }
                                    _ => next(1000) as Key,
                                };
                                let rowid = idx.insert(key);
                                model.insert(key, rowid);
                                pending.push((key, rowid));
                            }
                        }
                        4 | 5 if !model.live.is_empty() => {
                            // a random live tuple, or the one at the min or max
                            let pick = match next(3) {
                                0 => model.live.iter().copied().min(),
                                1 => model.live.iter().copied().max(),
                                _ => Some(model.live[next(model.live.len() as u64) as usize]),
                            };
                            let (k, r) = pick.expect("live tuples exist");
                            assert!(idx.delete(k, r), "{}", ctx("delete of a live tuple"));
                            assert!(!idx.delete(k, r), "{}", ctx("double delete"));
                            model.delete(k, r);
                            pending.retain(|&p| p != (k, r));
                        }
                        _ => {
                            let (low, high) = match next(5) {
                                0 => (Key::MIN, Key::MAX),
                                1 => {
                                    let low = next(1000) as Key;
                                    (low, low + 1 + next(20) as Key)
                                }
                                2 => {
                                    let high = next(1000) as Key;
                                    (high, high - next(3) as Key)
                                }
                                _ => {
                                    let low = next(1100) as Key - 50;
                                    (low, low + next(600) as Key)
                                }
                            };
                            if low != Key::MIN {
                                bounds.extend([low, high]);
                            }
                            let answer = idx.query_range(low, high);
                            let mut got: Vec<(Key, RowId)> =
                                answer.keys.into_iter().zip(answer.rowids).collect();
                            got.sort_unstable();
                            assert_eq!(
                                got,
                                model.pairs_in(low, high),
                                "{}",
                                ctx(&format!("answer of [{low}, {high})"))
                            );
                            let in_range = |&(k, _): &(Key, RowId)| k >= low && k < high;
                            let take = match policy {
                                MergePolicy::MergeCompletely => pending.len(),
                                MergePolicy::MergeGradually { batch } => {
                                    batch.min(pending.iter().filter(|p| in_range(p)).count())
                                }
                                MergePolicy::MergeRipple => {
                                    pending.iter().filter(|p| in_range(p)).count()
                                }
                            };
                            // every policy merges the lowest keys first
                            pending.sort_unstable();
                            let mut taken = 0;
                            pending.retain(|p| {
                                let merge = taken < take
                                    && (policy == MergePolicy::MergeCompletely || in_range(p));
                                taken += usize::from(merge);
                                !merge
                            });
                            merged += take as u64;
                        }
                    }
                    assert!(idx.verify_integrity(), "{}", ctx("integrity"));
                    assert_eq!(idx.len(), model.live.len(), "{}", ctx("live count"));
                    assert_eq!(
                        idx.pending_insert_count(),
                        pending.len(),
                        "{}",
                        ctx("pending insert count")
                    );
                    assert_eq!(
                        idx.merged_insert_count(),
                        merged,
                        "{}",
                        ctx("merged insert count")
                    );
                }
            }
        }
    }

    #[test]
    fn len_and_empty_reflect_pending_state() {
        let mut idx = UpdatableCrackedIndex::from_keys(&[], MergePolicy::MergeRipple);
        assert!(idx.is_empty());
        idx.insert(5);
        assert_eq!(idx.len(), 1);
        assert!(!idx.is_empty());
        let mut idx = UpdatableCrackedIndex::from_keys(&[1, 2, 3], MergePolicy::MergeCompletely);
        idx.delete(2, 1);
        assert_eq!(idx.len(), 2);
        idx.set_policy(MergePolicy::MergeRipple);
        assert_eq!(idx.policy(), MergePolicy::MergeRipple);
    }
}
