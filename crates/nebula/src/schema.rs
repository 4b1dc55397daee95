//! Stream schemas: named, typed field lists shared across buffers.

use crate::value::DataType;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A named, typed field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name (unique within a schema).
    pub name: String,
    /// Field type.
    pub dtype: DataType,
}

impl Field {
    /// Builds a field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: name.into(),
            dtype,
        }
    }
}

/// An immutable stream schema. Shared via [`SchemaRef`]; field lookup by
/// name is O(1).
#[derive(Debug, Clone)]
pub struct Schema {
    fields: Vec<Field>,
    index: HashMap<String, usize>,
}

/// Shared schema handle.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Builds a schema from fields. Duplicate names keep the first index
    /// (later duplicates are unreachable by name, matching SQL shadowing).
    pub fn new(fields: Vec<Field>) -> SchemaRef {
        let mut index = HashMap::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            index.entry(f.name.clone()).or_insert(i);
        }
        Arc::new(Schema { fields, index })
    }

    /// Convenience builder from `(name, type)` pairs.
    pub fn of(pairs: &[(&str, DataType)]) -> SchemaRef {
        Schema::new(pairs.iter().map(|(n, t)| Field::new(*n, *t)).collect())
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True iff the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of `name`, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// Field by position.
    pub fn field_at(&self, idx: usize) -> Option<&Field> {
        self.fields.get(idx)
    }

    /// True iff `other` has the same names and types in the same order.
    pub fn same_layout(&self, other: &Schema) -> bool {
        self.fields == other.fields
    }

    /// A new schema with `extra` fields appended.
    pub fn extend(&self, extra: Vec<Field>) -> SchemaRef {
        let mut fields = self.fields.clone();
        fields.extend(extra);
        Schema::new(fields)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", field.name, field.dtype)?;
        }
        write!(f, ")")
    }
}

/// The fields of a schema that something downstream reads, by position.
///
/// The backward liveness pass of [`crate::query::compile`] derives one
/// per source (the plan's `reads`); the executors add the watermark's
/// time column and hand it to [`crate::source::Source::poll_columnar`],
/// which builds a field outside it as [`crate::buffer::Column::Absent`].
/// A position past the width is read: what the set does not describe
/// stays on the safe side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadSet(Vec<bool>);

impl ReadSet {
    /// Every field of a `width`-field schema.
    pub fn all(width: usize) -> Self {
        ReadSet(vec![true; width])
    }

    /// No field of a `width`-field schema.
    pub fn none(width: usize) -> Self {
        ReadSet(vec![false; width])
    }

    /// The fields at `cols` of a `width`-field schema.
    pub fn of(width: usize, cols: impl IntoIterator<Item = usize>) -> Self {
        let mut set = ReadSet::none(width);
        for c in cols {
            set.insert(c);
        }
        set
    }

    /// True iff field `col` is read.
    pub fn contains(&self, col: usize) -> bool {
        self.0.get(col).copied().unwrap_or(true)
    }

    /// Marks field `col` read (a position past the width already is).
    pub fn insert(&mut self, col: usize) {
        if let Some(r) = self.0.get_mut(col) {
            *r = true;
        }
    }

    /// Marks every field read.
    pub fn insert_all(&mut self) {
        self.0.fill(true);
    }

    /// The positions of the read fields, in schema order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.0.len()).filter(|&c| self.0[c])
    }

    /// The names of the read fields of `schema`, comma-separated — how
    /// `explain` prints a source's read set.
    pub fn names(&self, schema: &Schema) -> String {
        let names: Vec<&str> = self
            .iter()
            .filter_map(|c| schema.field_at(c).map(|f| f.name.as_str()))
            .collect();
        names.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> SchemaRef {
        Schema::of(&[
            ("ts", DataType::Timestamp),
            ("train_id", DataType::Int),
            ("pos", DataType::Point),
            ("speed", DataType::Float),
        ])
    }

    #[test]
    fn lookup_by_name_and_index() {
        let s = schema();
        assert_eq!(s.len(), 4);
        assert_eq!(s.index_of("pos"), Some(2));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.field("speed").unwrap().dtype, DataType::Float);
        assert_eq!(s.field_at(0).unwrap().name, "ts");
        assert!(s.field_at(10).is_none());
    }

    #[test]
    fn duplicate_names_keep_first() {
        let s = Schema::of(&[("a", DataType::Int), ("a", DataType::Float)]);
        assert_eq!(s.index_of("a"), Some(0));
    }

    #[test]
    fn extend_appends() {
        let s = schema();
        let e = s.extend(vec![Field::new("alert", DataType::Text)]);
        assert_eq!(e.len(), 5);
        assert_eq!(e.index_of("alert"), Some(4));
        assert!(!e.same_layout(&s));
        assert!(s.same_layout(&schema()));
    }

    #[test]
    fn read_set_marks_positions() {
        let s = schema();
        let mut reads = ReadSet::of(4, [3, 0, 9]);
        assert_eq!(reads.iter().collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(reads.names(&s), "ts, speed");
        assert!(reads.contains(7), "past the width reads as read");
        reads.insert_all();
        assert_eq!(reads, ReadSet::all(4));
        assert_eq!(ReadSet::none(4).names(&s), "");
    }

    #[test]
    fn display() {
        let s = Schema::of(&[("a", DataType::Int), ("b", DataType::Text)]);
        assert_eq!(s.to_string(), "(a: INT, b: TEXT)");
    }
}
