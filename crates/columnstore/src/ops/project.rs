//! Late-materializing projection (fetch) operators.
//!
//! Given a position list produced by a selection, these operators fetch the
//! attribute values of *other* columns of the same table — the "tuple
//! reconstruction" step that sideways cracking optimizes.

use crate::column::Column;
use crate::error::Result;
use crate::position::PositionList;
use crate::types::{Key, Value};

/// Fetch `i64` values at `positions` from a key column (chunk-at-a-time:
/// the backing chunk is resolved once per run of positions, not per row).
///
/// Non-integer columns yield an empty vector (the caller is expected to have
/// validated the column type; the kernel layer does).
pub fn fetch_i64(column: &Column, positions: &PositionList) -> Vec<Key> {
    match column.as_i64() {
        Some(c) => c.gather_positions(positions.as_slice()),
        None => Vec::new(),
    }
}

/// Fetch `f64` values at `positions`.
pub fn fetch_f64(column: &Column, positions: &PositionList) -> Vec<f64> {
    match column.as_f64() {
        Some(c) => c.gather_positions(positions.as_slice()),
        None => Vec::new(),
    }
}

/// Fetch dynamically typed values at `positions` (works for every column
/// type; slower than the typed variants).
pub fn fetch_values(column: &Column, positions: &PositionList) -> Result<Vec<Value>> {
    column.gather(positions.as_slice())
}

/// Fetch `i64` values from a dense slice at `positions` — the innermost
/// reconstruction kernel shared by the adaptive operators.
#[inline]
pub fn fetch_keys_from_slice(keys: &[Key], positions: &PositionList) -> Vec<Key> {
    positions.iter().map(|p| keys[p as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_i64_gathers_in_position_order() {
        let c = Column::from_i64(vec![10, 20, 30, 40]);
        let p = PositionList::from_vec(vec![3, 1]);
        assert_eq!(fetch_i64(&c, &p), vec![20, 40]);
    }

    #[test]
    fn fetch_i64_on_wrong_type_is_empty() {
        let c = Column::from_f64(vec![1.0, 2.0]);
        let p = PositionList::from_vec(vec![0]);
        assert!(fetch_i64(&c, &p).is_empty());
        let c2 = Column::from_i64(vec![1]);
        assert!(fetch_f64(&c2, &p).is_empty());
    }

    #[test]
    fn fetch_f64_and_values() {
        let c = Column::from_f64(vec![0.5, 1.5, 2.5]);
        let p = PositionList::from_vec(vec![0, 2]);
        assert_eq!(fetch_f64(&c, &p), vec![0.5, 2.5]);
        let vals = fetch_values(&c, &p).unwrap();
        assert_eq!(vals, vec![Value::Float64(0.5), Value::Float64(2.5)]);
    }

    #[test]
    fn fetch_from_slice() {
        let keys = vec![9, 8, 7, 6];
        let p = PositionList::from_vec(vec![0, 3]);
        assert_eq!(fetch_keys_from_slice(&keys, &p), vec![9, 6]);
    }

    #[test]
    fn fetch_empty_positions() {
        let c = Column::from_i64(vec![1, 2, 3]);
        let p = PositionList::new();
        assert!(fetch_i64(&c, &p).is_empty());
        assert!(fetch_values(&c, &p).unwrap().is_empty());
    }
}
