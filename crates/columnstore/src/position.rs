//! Position lists (a.k.a. selection vectors / candidate lists).
//!
//! A selection over a column produces the *positions* of qualifying rows, not
//! the rows themselves; later operators combine position lists and only fetch
//! the attribute values they need (late tuple reconstruction). This is the
//! intermediate-result representation the cracking papers assume from
//! MonetDB's BAT algebra.

use crate::types::RowId;

/// Inputs shorter than this are comparison-sorted by [`PositionList::from_vec`]:
/// below it the radix sort's bucket histograms cost more than they save.
/// Measured on a 2-core x86-64 VM over ids drawn from `0..2M`, the two sorts
/// cross between 384 and 512 ids.
const RADIX_SORT_MIN_LEN: usize = 512;

/// Bits per radix digit: ids below 2²² (a 4M-row column) sort in two passes,
/// and the 2,048-entry histogram stays in L1.
const RADIX_BITS: u32 = 11;
const RADIX_BUCKETS: usize = 1 << RADIX_BITS;

/// LSD radix sort of row ids, using only as many digit passes as the largest
/// id needs. Each pass is one histogram read plus one stable scatter into an
/// O(len) scratch buffer.
fn radix_sort(positions: &mut Vec<RowId>) {
    let max = positions.iter().copied().max().unwrap_or(0);
    let passes = (RowId::BITS - max.leading_zeros()).div_ceil(RADIX_BITS);
    let mask = (RADIX_BUCKETS - 1) as RowId;
    let mut scratch: Vec<RowId> = vec![0; positions.len()];
    for pass in 0..passes {
        let shift = pass * RADIX_BITS;
        let mut offsets = [0usize; RADIX_BUCKETS];
        for &id in positions.iter() {
            offsets[((id >> shift) & mask) as usize] += 1;
        }
        let mut sum = 0;
        for offset in offsets.iter_mut() {
            let count = *offset;
            *offset = sum;
            sum += count;
        }
        for &id in positions.iter() {
            let digit = ((id >> shift) & mask) as usize;
            scratch[offsets[digit]] = id;
            offsets[digit] += 1;
        }
        std::mem::swap(positions, &mut scratch);
    }
}

/// A list of row positions, kept sorted and duplicate-free so that set
/// operations (intersection, union, difference) are linear merges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PositionList {
    positions: Vec<RowId>,
}

impl PositionList {
    /// Create an empty position list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty list with capacity for `capacity` positions.
    pub fn with_capacity(capacity: usize) -> Self {
        PositionList {
            positions: Vec::with_capacity(capacity),
        }
    }

    /// Build from an arbitrary vector; sorts and deduplicates.
    ///
    /// Every index answer is assembled here, so the sort is linear-time: an
    /// LSD radix sort over 11-bit digits with one pass per digit the largest
    /// id needs (two for ids below 2²², three at most), O(k) time and O(k)
    /// scratch for `k` ids. Inputs shorter than 512 ids are comparison-sorted
    /// instead, and already-sorted inputs are detected in one scan and left
    /// as they are.
    pub fn from_vec(mut positions: Vec<RowId>) -> Self {
        if positions.len() < RADIX_SORT_MIN_LEN {
            positions.sort_unstable();
        } else if !positions.is_sorted() {
            radix_sort(&mut positions);
        }
        positions.dedup();
        PositionList { positions }
    }

    /// Build from a vector that is already sorted and duplicate-free.
    ///
    /// Debug builds assert the invariant; release builds trust the caller
    /// (this is the hot path used by scans, which emit positions in order).
    pub fn from_sorted_vec(positions: Vec<RowId>) -> Self {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        PositionList { positions }
    }

    /// A contiguous range of positions `[start, end)`.
    pub fn from_range(start: RowId, end: RowId) -> Self {
        PositionList {
            positions: (start..end).collect(),
        }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when no row qualifies.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Append a position that is strictly greater than every current one.
    #[inline]
    pub fn push(&mut self, position: RowId) {
        debug_assert!(self.positions.last().is_none_or(|&last| last < position));
        self.positions.push(position);
    }

    /// The positions as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[RowId] {
        &self.positions
    }

    /// Iterate over positions.
    pub fn iter(&self) -> impl Iterator<Item = RowId> + '_ {
        self.positions.iter().copied()
    }

    /// Whether `position` is contained (binary search).
    pub fn contains(&self, position: RowId) -> bool {
        self.positions.binary_search(&position).is_ok()
    }

    /// Consume and return the raw vector.
    pub fn into_vec(self) -> Vec<RowId> {
        self.positions
    }

    /// Set intersection (linear merge).
    pub fn intersect(&self, other: &PositionList) -> PositionList {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::with_capacity(self.len().min(other.len()));
        while i < self.positions.len() && j < other.positions.len() {
            match self.positions[i].cmp(&other.positions[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.positions[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        PositionList { positions: out }
    }

    /// Set union (linear merge).
    pub fn union(&self, other: &PositionList) -> PositionList {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::with_capacity(self.len() + other.len());
        while i < self.positions.len() && j < other.positions.len() {
            match self.positions[i].cmp(&other.positions[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.positions[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.positions[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.positions[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.positions[i..]);
        out.extend_from_slice(&other.positions[j..]);
        PositionList { positions: out }
    }

    /// Set difference: positions in `self` but not in `other`.
    pub fn difference(&self, other: &PositionList) -> PositionList {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::with_capacity(self.len());
        while i < self.positions.len() && j < other.positions.len() {
            match self.positions[i].cmp(&other.positions[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.positions[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.positions[i..]);
        PositionList { positions: out }
    }

    /// Selectivity of this list relative to a column of `total` rows.
    pub fn selectivity(&self, total: usize) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.len() as f64 / total as f64
        }
    }
}

impl FromIterator<RowId> for PositionList {
    fn from_iter<I: IntoIterator<Item = RowId>>(iter: I) -> Self {
        PositionList::from_vec(iter.into_iter().collect())
    }
}

impl From<Vec<RowId>> for PositionList {
    fn from(v: Vec<RowId>) -> Self {
        PositionList::from_vec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_sorts_and_dedups() {
        let p = PositionList::from_vec(vec![5, 1, 3, 1, 5]);
        assert_eq!(p.as_slice(), &[1, 3, 5]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    /// `from_vec` against the comparison-sort reference on random inputs on
    /// both sides of the radix cutoff. The seed comes from `AIDX_SEED` when
    /// set, otherwise from the clock, and every failure message carries it.
    #[test]
    fn from_vec_matches_sort_and_dedup_reference() {
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
        let check = |input: Vec<RowId>, what: &str| {
            let mut expected = input.clone();
            expected.sort_unstable();
            expected.dedup();
            let got = PositionList::from_vec(input);
            assert!(
                got.as_slice() == expected.as_slice(),
                "from_vec differs from sort+dedup on {what} \
                 (reproduce with AIDX_SEED={seed})"
            );
        };
        let lengths = [
            0,
            1,
            2,
            RADIX_SORT_MIN_LEN - 1,
            RADIX_SORT_MIN_LEN,
            RADIX_SORT_MIN_LEN + 1,
            20_000,
        ];
        // id domains: one digit, two digits (a 2M-row column), and the full
        // `RowId` range, which needs every pass
        let domains: [u64; 3] = [1 << RADIX_BITS, 2_000_000, 1 << RowId::BITS];
        for &len in &lengths {
            for &domain in &domains {
                let random: Vec<RowId> = (0..len).map(|_| (next() % domain) as RowId).collect();
                check(random.clone(), &format!("{len} ids below {domain}"));
                let mut sorted = random.clone();
                sorted.sort_unstable();
                check(sorted.clone(), &format!("{len} sorted ids below {domain}"));
                sorted.reverse();
                check(sorted, &format!("{len} reversed ids below {domain}"));
                // many duplicates: a handful of distinct ids, each repeated
                let distinct: Vec<RowId> = (0..8).map(|_| (next() % domain) as RowId).collect();
                let repeated: Vec<RowId> =
                    (0..len).map(|_| distinct[(next() % 8) as usize]).collect();
                check(repeated, &format!("{len} ids of 8 distinct below {domain}"));
            }
            let mut extremes: Vec<RowId> = (0..len).map(|_| next() as RowId).collect();
            extremes.extend([RowId::MAX, 0, RowId::MAX]);
            check(extremes, &format!("{len} ids with RowId::MAX and 0"));
        }
    }

    #[test]
    fn range_and_contains() {
        let p = PositionList::from_range(2, 6);
        assert_eq!(p.as_slice(), &[2, 3, 4, 5]);
        assert!(p.contains(4));
        assert!(!p.contains(6));
    }

    #[test]
    fn push_preserves_order() {
        let mut p = PositionList::new();
        p.push(1);
        p.push(4);
        p.push(9);
        assert_eq!(p.as_slice(), &[1, 4, 9]);
    }

    #[test]
    fn intersect_union_difference() {
        let a = PositionList::from_vec(vec![1, 2, 3, 5, 8]);
        let b = PositionList::from_vec(vec![2, 3, 4, 8, 9]);
        assert_eq!(a.intersect(&b).as_slice(), &[2, 3, 8]);
        assert_eq!(a.union(&b).as_slice(), &[1, 2, 3, 4, 5, 8, 9]);
        assert_eq!(a.difference(&b).as_slice(), &[1, 5]);
        assert_eq!(b.difference(&a).as_slice(), &[4, 9]);
    }

    #[test]
    fn set_ops_with_empty() {
        let a = PositionList::from_vec(vec![1, 2]);
        let e = PositionList::new();
        assert_eq!(a.intersect(&e), e);
        assert_eq!(a.union(&e), a);
        assert_eq!(a.difference(&e), a);
        assert_eq!(e.difference(&a), e);
    }

    #[test]
    fn selectivity() {
        let p = PositionList::from_range(0, 25);
        assert!((p.selectivity(100) - 0.25).abs() < 1e-12);
        assert_eq!(PositionList::new().selectivity(0), 0.0);
    }

    #[test]
    fn iterators_and_conversions() {
        let p: PositionList = vec![3u32, 1, 2].into();
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(p.clone().into_vec(), vec![1, 2, 3]);
        let q: PositionList = (0u32..3).collect();
        assert_eq!(q.as_slice(), &[0, 1, 2]);
        let r = PositionList::from_sorted_vec(vec![1, 2, 3]);
        assert_eq!(r.len(), 3);
        let s = PositionList::with_capacity(8);
        assert!(s.is_empty());
    }
}
