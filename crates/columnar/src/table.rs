//! Columnar tables: a schema of named u32 columns, built row-wise, stored
//! column-wise with adaptive encodings.

use crate::encoding::{decode_u32s, encode_u32s, DecodeError};
use crate::varint;
use std::sync::Arc;

/// Magic bytes of the serialised table format.
const MAGIC: &[u8; 4] = b"DPC1";

/// Named columns, all u32 (ids, dictionary codes, packed IPv4 addresses,
/// day numbers — everything the measurement stores fits u32).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    names: Arc<Vec<String>>,
}

impl Schema {
    /// Builds a schema from column names.
    pub fn new(names: &[&str]) -> Self {
        Self {
            names: Arc::new(names.iter().map(|s| s.to_string()).collect()),
        }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.names.len()
    }

    /// Column index by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Column names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

/// Row-wise builder for a [`Table`].
#[derive(Debug, Clone)]
pub struct TableBuilder {
    schema: Schema,
    columns: Vec<Vec<u32>>,
}

impl TableBuilder {
    /// An empty builder for `schema`.
    pub fn new(schema: Schema) -> Self {
        let columns = (0..schema.width()).map(|_| Vec::new()).collect();
        Self { schema, columns }
    }

    /// Appends one row; `values.len()` must equal the schema width.
    pub fn push_row(&mut self, values: &[u32]) {
        assert_eq!(values.len(), self.schema.width(), "row width mismatch");
        for (col, &v) in self.columns.iter_mut().zip(values) {
            col.push(v);
        }
    }

    /// Rows so far.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Column `i`'s values so far, for rewriting in place (a missing
    /// column is `None`).
    pub fn column_mut(&mut self, i: usize) -> Option<&mut [u32]> {
        self.columns.get_mut(i).map(Vec::as_mut_slice)
    }

    /// Appends every row of `other`, which must share this builder's
    /// schema, after the rows already pushed.
    pub fn append(&mut self, other: TableBuilder) {
        assert_eq!(other.schema.names(), self.schema.names(), "schema mismatch");
        for (col, more) in self.columns.iter_mut().zip(&other.columns) {
            col.extend_from_slice(more);
        }
    }

    /// Makes room for exactly `rows` more rows, so a builder whose final
    /// size is known grows its columns once.
    pub fn reserve_exact(&mut self, rows: usize) {
        for col in &mut self.columns {
            col.reserve_exact(rows);
        }
    }

    /// Finishes into an immutable table.
    pub fn finish(self) -> Table {
        Table {
            schema: self.schema,
            columns: self.columns,
        }
    }
}

/// An immutable, decodable columnar table.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<Vec<u32>>,
}

impl Table {
    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Column by index; a missing column reads as empty.
    pub fn column(&self, i: usize) -> &[u32] {
        self.columns.get(i).map_or(&[], Vec::as_slice)
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Option<&[u32]> {
        self.schema.index_of(name).map(|i| self.column(i))
    }

    /// Serialises: magic, column count, per column name + encoded data.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.rows_to_bytes(0, self.rows())
    }

    /// Serialises rows `start..end` (clamped to the table) without
    /// copying them first: the bytes of `slice_rows(start, end).to_bytes()`.
    /// Row-range sharding encodes each shard's sub-page this way.
    pub fn rows_to_bytes(&self, start: usize, end: usize) -> Vec<u8> {
        let rows = self.rows();
        let start = start.min(rows);
        let end = end.clamp(start, rows);
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        varint::put_u64(&mut out, self.schema.width() as u64);
        for (name, col) in self.schema.names().iter().zip(&self.columns) {
            varint::put_u64(&mut out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
            let enc = encode_u32s(col.get(start..end).unwrap_or(&[]));
            varint::put_u64(&mut out, enc.len() as u64);
            out.extend_from_slice(&enc);
        }
        out
    }

    /// Parses the serialisation produced by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(buf: &[u8]) -> Result<Self, TableError> {
        Self::decode(buf, None)
    }

    /// Parses only the columns named in `projection` (in the order given),
    /// skipping the payload bytes of every other column. This is what makes
    /// narrow scans over wide archives cheap: the cost is proportional to
    /// the projected columns, not the table width.
    pub fn from_bytes_projected(buf: &[u8], projection: &[&str]) -> Result<Self, TableError> {
        Self::decode(buf, Some(projection))
    }

    fn decode(buf: &[u8], projection: Option<&[&str]>) -> Result<Self, TableError> {
        if buf.get(..4) != Some(MAGIC.as_slice()) {
            return Err(TableError::BadMagic);
        }
        let mut pos = 4usize;
        // Every declared length in the header is untrusted: check it fits
        // `usize` and that the resulting end offset doesn't wrap before
        // slicing. `as usize` would silently truncate a corrupt 64-bit
        // length on 32-bit targets and wrap offsets near the address-space
        // limit everywhere.
        let width = varint::get_u64(buf, &mut pos)
            .and_then(|w| usize::try_from(w).ok())
            .ok_or(TableError::Truncated)?;
        if width > 1024 {
            return Err(TableError::Truncated);
        }
        // Header walk: record every column's name and payload range without
        // decoding anything yet.
        let mut names: Vec<&str> = Vec::with_capacity(width);
        let mut payloads: Vec<(usize, usize)> = Vec::with_capacity(width);
        for _ in 0..width {
            let nlen = varint::get_u64(buf, &mut pos)
                .and_then(|l| usize::try_from(l).ok())
                .ok_or(TableError::Truncated)?;
            let nend = pos.checked_add(nlen).ok_or(TableError::Truncated)?;
            let nbytes = buf.get(pos..nend).ok_or(TableError::Truncated)?;
            pos = nend;
            let name = std::str::from_utf8(nbytes).map_err(|_| TableError::BadName)?;
            names.push(name);
            let clen = varint::get_u64(buf, &mut pos)
                .and_then(|l| usize::try_from(l).ok())
                .ok_or(TableError::Truncated)?;
            let cend = pos.checked_add(clen).ok_or(TableError::Truncated)?;
            buf.get(pos..cend).ok_or(TableError::Truncated)?;
            payloads.push((pos, clen));
            pos = cend;
        }
        // Which columns to materialise, in output order.
        let selected: Vec<usize> = match projection {
            None => (0..width).collect(),
            Some(cols) => cols
                .iter()
                .map(|want| {
                    names
                        .iter()
                        .position(|n| n == want)
                        .ok_or(TableError::UnknownColumn)
                })
                .collect::<Result<_, _>>()?,
        };
        let mut out_names = Vec::with_capacity(selected.len());
        let mut columns = Vec::with_capacity(selected.len());
        let mut rows: Option<usize> = None;
        for &i in &selected {
            let (Some(&(start, len)), Some(&name)) = (payloads.get(i), names.get(i)) else {
                return Err(TableError::Truncated);
            };
            let end = start.checked_add(len).ok_or(TableError::Truncated)?;
            let bytes = buf.get(start..end).ok_or(TableError::Truncated)?;
            let col = decode_u32s(bytes).map_err(TableError::Column)?;
            match rows {
                None => rows = Some(col.len()),
                Some(r) if r != col.len() => return Err(TableError::RaggedColumns),
                _ => {}
            }
            out_names.push(name);
            columns.push(col);
        }
        Ok(Self {
            schema: Schema::new(&out_names),
            columns,
        })
    }

    /// A copy of rows `start..end` (clamped to the table): the table whose
    /// encoding [`rows_to_bytes`](Self::rows_to_bytes) writes without the
    /// copy.
    pub fn slice_rows(&self, start: usize, end: usize) -> Table {
        let rows = self.rows();
        let start = start.min(rows);
        let end = end.clamp(start, rows);
        Table {
            schema: self.schema.clone(),
            columns: self
                .columns
                .iter()
                .map(|col| col.get(start..end).unwrap_or(&[]).to_vec())
                .collect(),
        }
    }

    /// Vertically stacks `parts` (same schema required) into one table,
    /// preserving row order: part 0's rows first, then part 1's, and so
    /// on. `None` if the schemas disagree or `parts` is empty. This is
    /// the read-side inverse of [`slice_rows`](Self::slice_rows): a page
    /// split into shard sub-pages reassembles byte-for-byte.
    pub fn vstack(parts: &[&Table]) -> Option<Table> {
        let first = parts.first()?;
        let mut columns: Vec<Vec<u32>> = first.columns.clone();
        for part in parts.get(1..)? {
            if part.schema.names() != first.schema.names() {
                return None;
            }
            for (col, more) in columns.iter_mut().zip(&part.columns) {
                col.extend_from_slice(more);
            }
        }
        Some(Table {
            schema: first.schema.clone(),
            columns,
        })
    }

    /// Serialised size in bytes (what "stored size" means in Table 1).
    pub fn encoded_len(&self) -> usize {
        self.to_bytes().len()
    }

    /// Uncompressed size: 4 bytes per cell.
    pub fn raw_len(&self) -> usize {
        4 * self.rows() * self.schema.width()
    }
}

/// Table decode failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// Wrong magic bytes.
    BadMagic,
    /// The buffer ended early.
    Truncated,
    /// A column name was not UTF-8.
    BadName,
    /// Column lengths disagree.
    RaggedColumns,
    /// A projected column name does not exist in the table.
    UnknownColumn,
    /// A column payload failed to decode.
    Column(DecodeError),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a DPC1 table"),
            Self::Truncated => write!(f, "table truncated"),
            Self::BadName => write!(f, "non-UTF-8 column name"),
            Self::RaggedColumns => write!(f, "column lengths disagree"),
            Self::UnknownColumn => write!(f, "projected column not in table"),
            Self::Column(e) => write!(f, "column decode: {e}"),
        }
    }
}

impl std::error::Error for TableError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut b = TableBuilder::new(Schema::new(&["day", "id", "ip"]));
        for i in 0..500u32 {
            b.push_row(&[17, i, 0x0A00_0000 + i % 7]);
        }
        b.finish()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let bytes = t.to_bytes();
        let back = Table::from_bytes(&bytes).unwrap();
        assert_eq!(back.rows(), 500);
        assert_eq!(back.schema().names(), t.schema().names());
        for i in 0..3 {
            assert_eq!(back.column(i), t.column(i));
        }
    }

    #[test]
    fn appended_builders_equal_one_built_row_by_row() {
        let schema = Schema::new(&["day", "id", "ip"]);
        let mut parts = [
            TableBuilder::new(schema.clone()),
            TableBuilder::new(schema.clone()),
        ];
        for i in 0..500u32 {
            if let Some(part) = parts.get_mut(usize::from(i >= 200)) {
                part.push_row(&[17, i, 0x0A00_0000 + i % 7]);
            }
        }
        let [first, mut second] = parts;
        if let Some(ids) = second.column_mut(1) {
            ids.iter_mut().for_each(|id| *id += 1000);
        }
        assert!(second.column_mut(3).is_none());
        let mut joined = TableBuilder::new(schema);
        joined.append(first);
        joined.append(second);
        let joined = joined.finish();
        let mut want = sample().column(1).to_vec();
        want.iter_mut().skip(200).for_each(|id| *id += 1000);
        assert_eq!(joined.rows(), 500);
        assert_eq!(joined.column(0), sample().column(0));
        assert_eq!(joined.column(1), want.as_slice());
        assert_eq!(joined.column(2), sample().column(2));
    }

    #[test]
    fn compresses_well() {
        let t = sample();
        // day column constant, id consecutive, ip 7 distinct values.
        assert!(
            t.encoded_len() < t.raw_len() / 3,
            "encoded {} raw {}",
            t.encoded_len(),
            t.raw_len()
        );
    }

    #[test]
    fn column_by_name() {
        let t = sample();
        assert_eq!(t.column_by_name("day").unwrap()[0], 17);
        assert!(t.column_by_name("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        let mut b = TableBuilder::new(Schema::new(&["a", "b"]));
        b.push_row(&[1]);
    }

    #[test]
    fn corrupt_bytes_rejected() {
        assert!(matches!(
            Table::from_bytes(b"nope"),
            Err(TableError::BadMagic)
        ));
        let t = sample();
        let mut bytes = t.to_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(Table::from_bytes(&bytes).is_err());
    }

    #[test]
    fn projected_decode_materialises_requested_columns_only() {
        let t = sample();
        let bytes = t.to_bytes();
        let p = Table::from_bytes_projected(&bytes, &["ip", "day"]).unwrap();
        assert_eq!(p.schema().names(), &["ip".to_string(), "day".to_string()]);
        assert_eq!(p.rows(), 500);
        assert_eq!(
            p.column_by_name("ip").unwrap(),
            t.column_by_name("ip").unwrap()
        );
        assert_eq!(p.column_by_name("day").unwrap()[0], 17);
        assert!(p.column_by_name("id").is_none());
        assert!(matches!(
            Table::from_bytes_projected(&bytes, &["nope"]),
            Err(TableError::UnknownColumn)
        ));
    }

    #[test]
    fn projected_decode_skips_corrupt_unselected_payloads() {
        // Corrupt the *last* column's payload; projecting only the first
        // must still succeed (its bytes are skipped, not decoded), while a
        // full decode fails.
        let t = sample();
        let mut bytes = t.to_bytes();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        let p = Table::from_bytes_projected(&bytes, &["day"]).unwrap();
        assert_eq!(p.column(0), t.column_by_name("day").unwrap());
    }

    #[test]
    fn empty_table_roundtrips() {
        let t = TableBuilder::new(Schema::new(&["x"])).finish();
        let back = Table::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back.rows(), 0);
    }

    /// Corrupt name/payload lengths around u32::MAX (and the u64 range a
    /// hostile varint can declare) must fail cleanly: no truncating casts,
    /// no wrapped `pos + len` slice bounds.
    #[test]
    fn u32_max_adjacent_header_lengths_rejected() {
        let lens = [
            u64::from(u32::MAX) - 1,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
            u64::MAX - 4,
            u64::MAX,
        ];
        for n in lens {
            // Huge declared name length.
            let mut buf = MAGIC.to_vec();
            varint::put_u64(&mut buf, 1); // width
            varint::put_u64(&mut buf, n); // name length
            buf.push(b'x');
            assert!(Table::from_bytes(&buf).is_err(), "nlen={n}");

            // Huge declared column-payload length.
            let mut buf = MAGIC.to_vec();
            varint::put_u64(&mut buf, 1);
            varint::put_u64(&mut buf, 1);
            buf.push(b'x');
            varint::put_u64(&mut buf, n); // payload length
            assert!(Table::from_bytes(&buf).is_err(), "clen={n}");

            // Huge declared width.
            let mut buf = MAGIC.to_vec();
            varint::put_u64(&mut buf, n);
            assert!(Table::from_bytes(&buf).is_err(), "width={n}");
        }
    }
}
