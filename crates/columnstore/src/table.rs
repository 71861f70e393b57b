//! Tables and schemas.
//!
//! A table is a set of equally long columns. Tuples are *decomposed*: there is
//! no row storage, and tuple reconstruction happens late, by fetching values
//! per column for a position list.

use crate::column::Column;
use crate::error::{ColumnStoreError, Result};
use crate::segment::DEFAULT_SEGMENT_CAPACITY;
use crate::types::{DataType, RowId, Value};

/// A named, typed column slot in a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    name: String,
    data_type: DataType,
}

impl Field {
    /// Create a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
        }
    }

    /// Field name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Field data type.
    pub fn data_type(&self) -> DataType {
        self.data_type
    }
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Create a schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Index of the field with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Field with the given name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// A decomposed (column-at-a-time) table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    row_count: usize,
}

impl Table {
    /// Create an empty table for the schema with the default segment
    /// capacity.
    pub fn new(schema: Schema) -> Self {
        Table::new_with_segment_capacity(schema, DEFAULT_SEGMENT_CAPACITY)
    }

    /// Create an empty table whose columns seal chunks of `segment_capacity`
    /// rows.
    pub fn new_with_segment_capacity(schema: Schema, segment_capacity: usize) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty_with_capacity(f.data_type(), segment_capacity))
            .collect();
        Table {
            schema,
            columns,
            row_count: 0,
        }
    }

    /// Build a table directly from named columns (all must be equally long).
    pub fn from_columns(named: Vec<(&str, Column)>) -> Result<Self> {
        let mut fields = Vec::with_capacity(named.len());
        let mut columns = Vec::with_capacity(named.len());
        let mut row_count = None;
        for (name, column) in named {
            match row_count {
                None => row_count = Some(column.len()),
                Some(expected) if expected != column.len() => {
                    return Err(ColumnStoreError::LengthMismatch {
                        expected,
                        found: column.len(),
                    });
                }
                _ => {}
            }
            fields.push(Field::new(name, column.data_type()));
            columns.push(column);
        }
        Ok(Table {
            schema: Schema::new(fields),
            columns,
            row_count: row_count.unwrap_or(0),
        })
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.row_count == 0
    }

    /// Borrow a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| ColumnStoreError::NotFound {
                kind: "column",
                name: name.to_owned(),
            })?;
        Ok(&self.columns[idx])
    }

    /// Borrow a column by position in the schema.
    pub fn column_at(&self, index: usize) -> Option<&Column> {
        self.columns.get(index)
    }

    /// Check that `values` forms a valid row for this schema (arity and
    /// per-column types) without mutating anything. Batch appenders call
    /// this for every row *before* applying any of them, so a bad row in
    /// the middle of a batch cannot leave a half-applied batch behind.
    pub fn validate_row(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.schema.arity() {
            return Err(ColumnStoreError::ArityMismatch {
                expected: self.schema.arity(),
                found: values.len(),
            });
        }
        for (field, value) in self.schema.fields().iter().zip(values) {
            if value.data_type() != Some(field.data_type()) {
                return Err(ColumnStoreError::TypeMismatch {
                    column: field.name().to_owned(),
                    expected: field.data_type(),
                    found: value.data_type(),
                });
            }
        }
        Ok(())
    }

    /// Append a row of dynamically typed values (one per column, in schema
    /// order). Returns the new row id.
    ///
    /// Arity and every value's type are validated *before* the first column
    /// is touched, so a rejected row never leaves columns at ragged lengths.
    pub fn append_row(&mut self, values: &[Value]) -> Result<RowId> {
        self.validate_row(values)?;
        for (i, value) in values.iter().enumerate() {
            let name = self.schema.fields()[i].name().to_owned();
            self.columns[i].push_value(&name, value)?;
        }
        let id = self.row_count as RowId;
        self.row_count += 1;
        Ok(id)
    }

    /// Append many rows.
    pub fn append_rows(&mut self, rows: &[Vec<Value>]) -> Result<()> {
        for row in rows {
            self.append_row(row)?;
        }
        Ok(())
    }

    /// Approximate in-memory footprint of all columns in bytes.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(Column::byte_size).sum()
    }

    /// Rows per sealed chunk of the backing segments (the default capacity
    /// for a table with no columns).
    pub fn segment_capacity(&self) -> usize {
        self.columns
            .first()
            .map_or(DEFAULT_SEGMENT_CAPACITY, Column::segment_capacity)
    }

    /// Seal every column's mutable tail as an (undersized) immutable chunk.
    /// Returns `true` when the tails were non-empty and sealed.
    ///
    /// The catalog's copy-on-write append path calls this on the writer's
    /// private copy when a snapshot is alive: the tail is paid for once, at
    /// its current size, and the sealed chunk is shared with every later
    /// snapshot — so churn copies only the rows appended since the last
    /// seal, at the price of fragmenting the columns into undersized chunks
    /// that background compaction later merges.
    pub fn seal_tails(&mut self) -> bool {
        let mut sealed = false;
        for column in &mut self.columns {
            sealed |= column.seal_tail();
        }
        sealed
    }

    /// Total undersized sealed chunks across all columns.
    pub fn fragmented_chunk_count(&self) -> usize {
        self.columns
            .iter()
            .map(Column::fragmented_chunk_count)
            .sum()
    }

    /// Total sealed chunks across all columns.
    pub fn sealed_chunk_count(&self) -> usize {
        self.columns
            .iter()
            .map(|c| c.sealed_chunk_lens().len())
            .sum()
    }

    /// The table with one column's sealed-chunk runs merged (see
    /// [`Column::compact_runs`]); every other column is a cheap chunk-sharing
    /// clone. Row positions — and therefore every adaptive index built over
    /// the table — are unaffected.
    ///
    /// # Panics
    /// Panics when `column_index` is out of bounds.
    pub fn compact_column(&self, column_index: usize, runs: &[(usize, usize)]) -> Table {
        let mut columns = self.columns.clone();
        columns[column_index] = columns[column_index].compact_runs(runs);
        Table {
            schema: self.schema.clone(),
            columns,
            row_count: self.row_count,
        }
    }

    /// The table with several columns replaced at once; untouched columns
    /// are cheap chunk-sharing clones. The parallel compaction path merges
    /// each column's fragment runs on a worker and then swaps all the
    /// results in with a single call, so the table is published once per
    /// maintenance tick instead of once per column.
    ///
    /// # Panics
    /// Panics when an index is out of bounds or a replacement changes the
    /// column's length or type (compaction is layout-only by contract).
    pub fn replace_columns(&self, replacements: Vec<(usize, Column)>) -> Table {
        let mut columns = self.columns.clone();
        for (index, column) in replacements {
            assert_eq!(
                column.len(),
                self.row_count,
                "replacement column must keep the row count"
            );
            assert_eq!(
                column.data_type(),
                columns[index].data_type(),
                "replacement column must keep the type"
            );
            columns[index] = column;
        }
        Table {
            schema: self.schema.clone(),
            columns,
            row_count: self.row_count,
        }
    }

    /// The same rows re-chunked so every column seals chunks of `capacity`
    /// rows. A no-op clone (sharing all sealed chunks) when the capacity
    /// already matches.
    pub fn with_segment_capacity(&self, capacity: usize) -> Table {
        Table {
            schema: self.schema.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| c.with_segment_capacity(capacity))
                .collect(),
            row_count: self.row_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_column_table() -> Table {
        let mut t = Table::new(Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]));
        t.append_row(&[Value::Int64(1), Value::Utf8("one".into())])
            .unwrap();
        t.append_row(&[Value::Int64(2), Value::Utf8("two".into())])
            .unwrap();
        t.append_row(&[Value::Int64(3), Value::Utf8("three".into())])
            .unwrap();
        t
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Float64),
        ]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("z"), None);
        assert_eq!(s.field("a").unwrap().data_type(), DataType::Int64);
        assert_eq!(s.fields()[1].name(), "b");
    }

    #[test]
    fn append_and_read_rows() {
        let t = two_column_table();
        assert_eq!(t.row_count(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.column("a").unwrap().len(), 3);
        assert_eq!(
            t.column("name").unwrap().value_at(1).unwrap(),
            Value::Utf8("two".into())
        );
        assert!(t.column("missing").is_err());
        assert!(t.column_at(0).is_some());
        assert!(t.column_at(9).is_none());
        assert!(t.byte_size() > 0);
    }

    #[test]
    fn append_arity_and_type_errors() {
        let mut t = two_column_table();
        let err = t.append_row(&[Value::Int64(4)]).unwrap_err();
        assert!(matches!(err, ColumnStoreError::ArityMismatch { .. }));
        let err = t
            .append_row(&[Value::Utf8("x".into()), Value::Utf8("y".into())])
            .unwrap_err();
        assert!(matches!(err, ColumnStoreError::TypeMismatch { .. }));
    }

    #[test]
    fn append_rows_bulk() {
        let mut t = two_column_table();
        t.append_rows(&[
            vec![Value::Int64(4), Value::Utf8("four".into())],
            vec![Value::Int64(5), Value::Utf8("five".into())],
        ])
        .unwrap();
        assert_eq!(t.row_count(), 5);
    }

    #[test]
    fn rejected_append_leaves_no_partial_row() {
        let mut t = two_column_table();
        // int value is valid for column 0, string column gets an int: the
        // row must be rejected before column 0 grows
        let err = t
            .append_row(&[Value::Int64(4), Value::Int64(5)])
            .unwrap_err();
        assert!(matches!(err, ColumnStoreError::TypeMismatch { .. }));
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.column("a").unwrap().len(), 3, "no ragged columns");
        assert_eq!(t.column("name").unwrap().len(), 3);
    }

    #[test]
    fn replace_columns_swaps_in_bulk_and_shares_the_rest() {
        let t = two_column_table();
        let merged = t.column("a").unwrap().compact_runs(&[]);
        let replaced = t.replace_columns(vec![(0, merged)]);
        assert_eq!(replaced.row_count(), t.row_count());
        for row in 0..t.row_count() {
            for col in 0..2 {
                assert_eq!(
                    replaced.column_at(col).unwrap().value_at(row).unwrap(),
                    t.column_at(col).unwrap().value_at(row).unwrap()
                );
            }
        }
        // an empty replacement list is a plain clone
        assert_eq!(t.replace_columns(vec![]).row_count(), 3);
    }

    #[test]
    #[should_panic(expected = "row count")]
    fn replace_columns_rejects_length_drift() {
        let t = two_column_table();
        t.replace_columns(vec![(0, Column::from_i64(vec![1]))]);
    }

    #[test]
    fn segment_capacity_is_plumbed_through() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int64)]);
        let mut t = Table::new_with_segment_capacity(schema, 4);
        assert_eq!(t.segment_capacity(), 4);
        for i in 0..10 {
            t.append_row(&[Value::Int64(i)]).unwrap();
        }
        assert_eq!(
            t.column("a")
                .unwrap()
                .as_i64()
                .unwrap()
                .sealed_chunk_count(),
            2
        );
        let rechunked = t.with_segment_capacity(16);
        assert_eq!(rechunked.segment_capacity(), 16);
        assert_eq!(rechunked.row_count(), 10);
        assert_eq!(
            rechunked.column("a").unwrap().value_at(9).unwrap(),
            Value::Int64(9)
        );
        // a column-less table reports the default
        assert_eq!(
            Table::new(Schema::default()).segment_capacity(),
            DEFAULT_SEGMENT_CAPACITY
        );
    }

    #[test]
    fn from_columns_checks_lengths() {
        let ok = Table::from_columns(vec![
            ("a", Column::from_i64(vec![1, 2, 3])),
            ("b", Column::from_f64(vec![0.1, 0.2, 0.3])),
        ])
        .unwrap();
        assert_eq!(ok.row_count(), 3);
        assert_eq!(ok.schema().arity(), 2);

        let err = Table::from_columns(vec![
            ("a", Column::from_i64(vec![1, 2, 3])),
            ("b", Column::from_i64(vec![1])),
        ])
        .unwrap_err();
        assert!(matches!(err, ColumnStoreError::LengthMismatch { .. }));

        let empty = Table::from_columns(vec![]).unwrap();
        assert!(empty.is_empty());
    }
}
