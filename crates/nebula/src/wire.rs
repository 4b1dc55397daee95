//! The cluster wire format: length-prefixed frames carrying columnar
//! batches and control messages across node boundaries.
//!
//! NebulaStream workers exchange serialized TupleBuffers plus control
//! messages over the network; this module is the analogue for the
//! [`crate::cluster`] runtime. A [`Frame`] is either a batch of rows —
//! on the wire always the column-major image of a [`TupleBuffer`] — or
//! a control message: a watermark advance, end-of-stream, a checkpoint
//! barrier (crash recovery), or a telemetry snapshot.
//!
//! ## Encoding
//!
//! Frames are length-prefixed: a little-endian `u32` body length, one
//! frame-type byte, then the body. Data frames are *schema-typed*: both
//! channel endpoints know the channel's schema (fixed when the placed
//! plan is deployed), so no value carries a type tag. A data body is a
//! `u32` row count `n`, then one block per schema field, in field order:
//!
//! - a validity flag byte: `0` when no row is null, `1` followed by an
//!   `n`-bit bitmap (least significant bit first, `1` = valid, padding
//!   bits zero) when some row is;
//! - the payload, by the field's type:
//!   - `BOOL`: `n` bytes, `0` or `1`;
//!   - `INT` and `TIMESTAMP`: `n` little-endian `i64`;
//!   - `FLOAT`: `n` little-endian IEEE-754 bit patterns;
//!   - `POINT`: the `n` x coordinates, then the `n` y coordinates;
//!   - `TEXT`: `n` little-endian `u32` end offsets into a UTF-8 arena
//!     (row 0 starts at 0), then the arena;
//!   - `OPAQUE`: per non-null row, a `u16` tag length, the tag, a `u32`
//!     payload length and the payload (see below);
//!   - `NULL`: nothing; every row must be null.
//!
//! A field the sender did not build ([`Column::Absent`]: nothing behind
//! the link reads it) is one block of its own in place of the above:
//! the flag byte `0xFF`, the field type's one-byte tag and the `u32` row
//! count, which must equal the batch's; no payload follows. So a link
//! ships only the columns its downstream stages read.
//!
//! A null row keeps its fixed-width slot, zeroed, and an empty text
//! slice, so each batch has exactly one encoding and [`decode_frame`]
//! builds every fixed-width column with one bounds-checked copy. Measured
//! bytes stay close to [`crate::record::Record::est_bytes`]: non-null
//! payloads match it exactly, and the overhead is per frame — the 9-byte
//! header and one flag byte per field — plus, in a column with nulls,
//! its bitmap and the difference between a null's full slot on the wire
//! and the 1 byte `est_bytes` counts for it.
//!
//! Two value/schema flexibilities mirror the engine's accessor rules
//! ([`Value::as_int`] / [`Value::as_timestamp`] accept either variant):
//! an `INT` column accepts a `Timestamp` value and a `TIMESTAMP` column
//! accepts an `Int` value; decoding normalizes to the schema's variant.
//! Any other variant mismatch is a [`NebulaError::Wire`] error.
//!
//! ## Opaque payloads
//!
//! Plugin values ([`Value::Opaque`], e.g. MEOS temporal sequences) are
//! encoded through a [`WireRegistry`] of [`OpaqueWireCodec`]s keyed by
//! the value's type tag — the wire half of the plugin seam. A payload
//! whose tag has no registered codec fails encoding with a clear error
//! instead of being silently dropped.
//!
//! ## Robustness
//!
//! Decoding never panics on malformed input: every read is
//! bounds-checked, a row count is checked against the bytes left before
//! any column is allocated, validity flags and bitmaps, `BOOL` bytes,
//! null slots, text offsets and UTF-8 are validated, and trailing bytes
//! are rejected — corrupted frames surface as [`NebulaError::Wire`]
//! errors (see the `prop_wire` property suite).

use crate::buffer::{transpose, BufferMeta, Column, TupleBuffer};
use crate::error::{NebulaError, Result};
use crate::record::Record;
use crate::schema::{ReadSet, Schema};
use crate::value::{DataType, EventTime, OpaqueValue, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A unit of transmission between cluster sites.
#[derive(Debug, Clone)]
pub enum Frame {
    /// A batch of rows, as an encode input only: it encodes to exactly
    /// the bytes of its [`TupleBuffer::from_records`] transposition, and
    /// decodes as [`Frame::Columnar`]. It goes once `fleetbench` builds
    /// its frames columnar.
    Data(Vec<Record>),
    /// A columnar batch (the channel schema gives its layout); every
    /// data frame decodes to one.
    Columnar(TupleBuffer),
    /// Control: no record with event time `< wm` will arrive anymore.
    Watermark(EventTime),
    /// Control: the upstream stage has flushed its state and finished.
    Eos,
    /// Control: checkpoint barrier — everything before this marker
    /// belongs to checkpoint epoch `.0`. Stages snapshot their operator
    /// state when the barrier passes; the cloud aligns barriers across
    /// pipes before snapshotting (Chandy–Lamport style consistent cut).
    Barrier(u64),
    /// Out-of-band telemetry: a periodic per-node snapshot shipped to
    /// the cloud for fan-in next to the query results. Later stages
    /// relay it unchanged; it never affects data or progress.
    Telemetry(crate::telemetry::NodeSnapshot),
}

const FRAME_DATA: u8 = 0;
const FRAME_WATERMARK: u8 = 1;
const FRAME_EOS: u8 = 2;
// Tag 3 is retired (the old pause-and-migrate marker): it decodes as an
// unknown frame type, and later tags keep their numbers.
const FRAME_BARRIER: u8 = 4;
const FRAME_TELEMETRY: u8 = 5;

/// Serializes one plugin type for wire transport — the codec counterpart
/// of [`OpaqueValue`]. Implementations live with the plugin that owns
/// the type (e.g. `nebulameos` provides codecs for MEOS temporals).
pub trait OpaqueWireCodec: Send + Sync {
    /// The [`OpaqueValue::type_tag`] this codec handles.
    fn tag(&self) -> &'static str;
    /// Appends the payload encoding of `value` to `out`.
    fn encode(&self, value: &dyn OpaqueValue, out: &mut Vec<u8>) -> Result<()>;
    /// Rebuilds the value from its payload encoding.
    fn decode(&self, bytes: &[u8]) -> Result<Arc<dyn OpaqueValue>>;
}

/// Codec lookup by opaque type tag; cheap to clone (codecs are shared).
#[derive(Default, Clone)]
pub struct WireRegistry {
    codecs: HashMap<&'static str, Arc<dyn OpaqueWireCodec>>,
}

impl WireRegistry {
    /// An empty registry (sufficient for primitive-only schemas).
    pub fn new() -> Self {
        WireRegistry::default()
    }

    /// Registers a codec, replacing any previous codec for its tag.
    pub fn register(&mut self, codec: Arc<dyn OpaqueWireCodec>) {
        self.codecs.insert(codec.tag(), codec);
    }

    /// The tags with registered codecs, sorted (capability reporting).
    pub fn tags(&self) -> Vec<&str> {
        let mut tags: Vec<&str> = self.codecs.keys().copied().collect();
        tags.sort_unstable();
        tags
    }

    /// The codec for `tag`, or a wire error naming the missing tag.
    fn get(&self, tag: &str) -> Result<&Arc<dyn OpaqueWireCodec>> {
        self.codecs.get(tag).ok_or_else(|| {
            NebulaError::Wire(format!("no wire codec registered for opaque type '{tag}'"))
        })
    }
}

impl std::fmt::Debug for WireRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut tags: Vec<&str> = self.codecs.keys().copied().collect();
        tags.sort_unstable();
        write!(f, "WireRegistry{tags:?}")
    }
}

fn corrupt(msg: impl Into<String>) -> NebulaError {
    NebulaError::Wire(msg.into())
}

/// Encodes a frame for a channel whose records follow `schema`.
pub fn encode_frame(frame: &Frame, schema: &Schema, registry: &WireRegistry) -> Result<Vec<u8>> {
    // The body is written after a placeholder for its length, which is
    // patched in at the end.
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&[0; 4]);
    match frame {
        Frame::Data(records) => {
            check_widths(records, schema)?;
            let (rows, columns) = transpose(schema, records, &ReadSet::all(schema.len()));
            encode_batch(rows, &columns, schema, registry, &mut out)?;
        }
        Frame::Columnar(tb) => encode_batch(tb.len(), tb.columns(), schema, registry, &mut out)?,
        Frame::Watermark(wm) => {
            out.push(FRAME_WATERMARK);
            out.extend_from_slice(&wm.to_le_bytes());
        }
        Frame::Eos => out.push(FRAME_EOS),
        Frame::Barrier(epoch) => {
            out.push(FRAME_BARRIER);
            out.extend_from_slice(&epoch.to_le_bytes());
        }
        Frame::Telemetry(snap) => {
            out.push(FRAME_TELEMETRY);
            out.extend_from_slice(&snap.origin.to_le_bytes());
            out.extend_from_slice(&snap.seq.to_le_bytes());
            out.extend_from_slice(&snap.at_us.to_le_bytes());
            out.extend_from_slice(&snap.records_in.to_le_bytes());
            out.extend_from_slice(&snap.records_out.to_le_bytes());
            out.extend_from_slice(&snap.queue_depth.to_le_bytes());
            out.extend_from_slice(&snap.frontier_lag_us.to_le_bytes());
            match snap.frontier {
                Some(f) => {
                    out.push(1);
                    out.extend_from_slice(&f.to_le_bytes());
                }
                None => out.push(0),
            }
            out.extend_from_slice(&(snap.node.len() as u32).to_le_bytes());
            out.extend_from_slice(snap.node.as_bytes());
        }
    }
    let body = u32::try_from(out.len() - 4)
        .map_err(|_| NebulaError::Wire(format!("frame body of {} bytes", out.len() - 4)))?;
    out[..4].copy_from_slice(&body.to_le_bytes());
    Ok(out)
}

/// Rows bound for a channel must have its schema's width: the column
/// blocks have no slot for an extra field, and a missing one is no null.
pub(crate) fn check_widths(records: &[Record], schema: &Schema) -> Result<()> {
    match records.iter().find(|r| r.len() != schema.len()) {
        Some(rec) => Err(NebulaError::Wire(format!(
            "record has {} fields, channel schema {}",
            rec.len(),
            schema.len()
        ))),
        None => Ok(()),
    }
}

/// Appends a data body: the frame type, the row count, then each
/// field's column block.
fn encode_batch(
    n: usize,
    columns: &[Column],
    schema: &Schema,
    registry: &WireRegistry,
    out: &mut Vec<u8>,
) -> Result<()> {
    if columns.len() != schema.len() {
        return Err(NebulaError::Wire(format!(
            "batch has {} columns, channel schema {}",
            columns.len(),
            schema.len()
        )));
    }
    if n > 0 && schema.is_empty() {
        return Err(NebulaError::Wire(
            "rows of a schema without fields have no wire form".into(),
        ));
    }
    let rows = u32::try_from(n).map_err(|_| NebulaError::Wire(format!("{n} rows in one frame")))?;
    let fixed: usize = (schema.fields().iter().zip(columns))
        .map(|(f, col)| match col {
            Column::Absent(_) => 6,
            _ => 1 + n * min_row_bits(f.dtype) as usize / 8,
        })
        .sum();
    out.reserve(1 + 4 + fixed);
    out.push(FRAME_DATA);
    out.extend_from_slice(&rows.to_le_bytes());
    for (field, col) in schema.fields().iter().zip(columns) {
        if col.len() != n {
            return Err(NebulaError::Wire(format!(
                "column '{}' has {} rows, batch {n}",
                field.name,
                col.len()
            )));
        }
        encode_column(field.dtype, col, registry, out)
            .map_err(|e| NebulaError::Wire(format!("column '{}': {e}", field.name)))?;
    }
    Ok(())
}

/// The fewest bits one row of a `dtype` column takes on the wire: its
/// fixed-width slot, or the validity bit of a type whose null rows
/// carry no payload.
fn min_row_bits(dtype: DataType) -> u64 {
    match dtype {
        DataType::Bool => 8,
        DataType::Int | DataType::Timestamp | DataType::Float => 64,
        DataType::Point => 128,
        DataType::Text => 32,
        DataType::Opaque | DataType::Null => 1,
    }
}

/// Appends one field's block. A column laid out as its field type (an
/// `Int` or `Timestamp` column under either integer type) encodes
/// straight from its typed storage; any other layout, such as the boxed
/// fallback, is first re-laid value by value into `dtype`'s own layout,
/// so that arm recurses at most once.
fn encode_column(
    dtype: DataType,
    col: &Column,
    registry: &WireRegistry,
    out: &mut Vec<u8>,
) -> Result<()> {
    match (dtype, col) {
        (dtype, Column::Absent(n)) => {
            let rows = u32::try_from(*n).map_err(|_| corrupt(format!("{n} rows in one frame")))?;
            out.push(ABSENT);
            out.push(type_tag(dtype));
            out.extend_from_slice(&rows.to_le_bytes());
        }
        (DataType::Bool, Column::Bool { data, validity }) => {
            put_validity(validity.as_deref(), out);
            put_fixed(data, validity.as_deref(), out, |&b| [b as u8]);
        }
        (
            DataType::Int | DataType::Timestamp,
            Column::Int { data, validity } | Column::Timestamp { data, validity },
        ) => {
            put_validity(validity.as_deref(), out);
            put_fixed(data, validity.as_deref(), out, |i| i.to_le_bytes());
        }
        (DataType::Float, Column::Float { data, validity }) => {
            put_validity(validity.as_deref(), out);
            put_fixed(data, validity.as_deref(), out, |f| {
                f.to_bits().to_le_bytes()
            });
        }
        (DataType::Point, Column::Point { xs, ys, validity }) => {
            put_validity(validity.as_deref(), out);
            put_fixed(xs, validity.as_deref(), out, |x| x.to_bits().to_le_bytes());
            put_fixed(ys, validity.as_deref(), out, |y| y.to_bits().to_le_bytes());
        }
        (
            DataType::Text,
            Column::Text {
                arena,
                offsets,
                validity,
            },
        ) => {
            put_validity(validity.as_deref(), out);
            put_text(arena, offsets, validity.as_deref(), out)?;
        }
        (DataType::Opaque, Column::Opaque(values)) => {
            let validity: Vec<bool> = values.iter().map(Option::is_some).collect();
            put_validity(Some(&validity), out);
            for o in values.iter().flatten() {
                put_opaque(o.as_ref(), registry, out)?;
            }
        }
        (DataType::Null, col) => {
            if let Some(row) = (0..col.len()).find(|&row| !col.is_null(row)) {
                return Err(mismatch(dtype, &col.value_at(row)));
            }
            put_validity(Some(&vec![false; col.len()]), out);
        }
        (dtype, col) => {
            let mut typed = Column::with_type(dtype, col.len());
            for row in 0..col.len() {
                typed.push(&wire_value(dtype, col.value_at(row))?);
            }
            return encode_column(dtype, &typed, registry, out);
        }
    }
    Ok(())
}

/// The block flag of a field the sender did not build
/// ([`Column::Absent`]): its type tag and row count follow, no payload.
const ABSENT: u8 = 0xFF;

/// A field type's one-byte tag, which an absent block repeats.
fn type_tag(dtype: DataType) -> u8 {
    match dtype {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Timestamp => 3,
        DataType::Point => 4,
        DataType::Text => 5,
        DataType::Opaque => 6,
        DataType::Null => 7,
    }
}

/// `v` as the variant a `dtype` column stores, or a mismatch error.
fn wire_value(dtype: DataType, v: Value) -> Result<Value> {
    Ok(match (dtype, v) {
        (_, Value::Null) => Value::Null,
        (DataType::Int, Value::Int(i) | Value::Timestamp(i)) => Value::Int(i),
        (DataType::Timestamp, Value::Int(i) | Value::Timestamp(i)) => Value::Timestamp(i),
        (DataType::Bool, v @ Value::Bool(_))
        | (DataType::Float, v @ Value::Float(_))
        | (DataType::Text, v @ Value::Text(_))
        | (DataType::Point, v @ Value::Point { .. })
        | (DataType::Opaque, v @ Value::Opaque(_)) => v,
        (dtype, v) => return Err(mismatch(dtype, &v)),
    })
}

fn mismatch(dtype: DataType, v: &Value) -> NebulaError {
    NebulaError::Wire(format!(
        "{dtype} column cannot carry value '{v}' ({})",
        v.data_type()
    ))
}

/// The validity flag, plus the bitmap when some row is null.
fn put_validity(validity: Option<&[bool]>, out: &mut Vec<u8>) {
    match validity {
        Some(mask) if mask.iter().any(|&ok| !ok) => {
            out.push(1);
            out.extend(mask.chunks(8).map(|bits| {
                bits.iter()
                    .enumerate()
                    .fold(0u8, |byte, (k, &ok)| byte | (u8::from(ok) << k))
            }));
        }
        _ => out.push(0),
    }
}

/// Appends `W` bytes per row, zeroing the slots of null rows.
fn put_fixed<T, const W: usize>(
    data: &[T],
    validity: Option<&[bool]>,
    out: &mut Vec<u8>,
    bytes: impl Fn(&T) -> [u8; W],
) {
    let start = out.len();
    out.resize(start + data.len() * W, 0);
    let slots = out[start..].chunks_exact_mut(W);
    match validity {
        None => slots
            .zip(data)
            .for_each(|(slot, v)| slot.copy_from_slice(&bytes(v))),
        Some(mask) => {
            for ((slot, v), &ok) in slots.zip(data).zip(mask) {
                if ok {
                    slot.copy_from_slice(&bytes(v));
                }
            }
        }
    }
}

/// A text column's end offsets, then its arena (null rows empty).
fn put_text(
    arena: &[u8],
    offsets: &[u32],
    validity: Option<&[bool]>,
    out: &mut Vec<u8>,
) -> Result<()> {
    let rows = offsets.len().saturating_sub(1);
    let slice = |row: usize| -> Result<&[u8]> {
        if validity.is_some_and(|m| !m.get(row).copied().unwrap_or(true)) {
            return Ok(&[]);
        }
        offsets
            .get(row..row + 2)
            .and_then(|w| arena.get(w[0] as usize..w[1] as usize))
            .ok_or_else(|| NebulaError::Wire(format!("text row {row} outside its arena")))
    };
    let mut end = 0usize;
    for row in 0..rows {
        end += slice(row)?.len();
        let end = u32::try_from(end)
            .map_err(|_| NebulaError::Wire(format!("text arena over {} bytes", u32::MAX)))?;
        out.extend_from_slice(&end.to_le_bytes());
    }
    out.reserve(end);
    for row in 0..rows {
        out.extend_from_slice(slice(row)?);
    }
    Ok(())
}

/// One opaque payload: tag, then length-prefixed codec bytes.
fn put_opaque(o: &dyn OpaqueValue, registry: &WireRegistry, out: &mut Vec<u8>) -> Result<()> {
    let codec = registry.get(o.type_tag())?;
    let tag = codec.tag().as_bytes();
    out.extend_from_slice(&(tag.len() as u16).to_le_bytes());
    out.extend_from_slice(tag);
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    codec.encode(o, out)?;
    let payload_len = u32::try_from(out.len() - len_at - 4)
        .map_err(|_| NebulaError::Wire("opaque payload over 4 GiB".into()))?;
    out[len_at..len_at + 4].copy_from_slice(&payload_len.to_le_bytes());
    Ok(())
}

/// Bounds-checked reader over an encoded frame.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "truncated frame: need {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut bytes = [0; N];
        bytes.copy_from_slice(self.take(N)?);
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn i64(&mut self) -> Result<i64> {
        self.array().map(i64::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A length field that must fit in the remaining buffer (rejects
    /// absurd lengths before any allocation).
    fn checked_len(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(corrupt(format!(
                "declared length {n} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

/// Decodes a frame produced by [`encode_frame`] for the same schema; a
/// data frame always decodes as [`Frame::Columnar`]. Corrupted input
/// returns [`NebulaError::Wire`]; it never panics.
pub fn decode_frame(bytes: &[u8], schema: &Schema, registry: &WireRegistry) -> Result<Frame> {
    let mut c = Cursor::new(bytes);
    let len = c.u32()? as usize;
    if len != c.remaining() {
        return Err(corrupt(format!(
            "frame length {len} does not match body length {}",
            c.remaining()
        )));
    }
    let frame = match c.u8()? {
        FRAME_DATA => Frame::Columnar(decode_batch(&mut c, schema, registry)?),
        FRAME_WATERMARK => Frame::Watermark(c.i64()?),
        FRAME_EOS => Frame::Eos,
        FRAME_BARRIER => Frame::Barrier(c.u64()?),
        FRAME_TELEMETRY => {
            let origin = c.u64()?;
            let seq = c.u64()?;
            let at_us = c.u64()?;
            let records_in = c.u64()?;
            let records_out = c.u64()?;
            let queue_depth = c.u64()?;
            let frontier_lag_us = c.u64()?;
            let frontier = match c.u8()? {
                0 => None,
                1 => Some(c.i64()?),
                b => return Err(corrupt(format!("invalid frontier presence byte {b}"))),
            };
            let node_len = c.checked_len()?;
            let node = std::str::from_utf8(c.take(node_len)?)
                .map_err(|_| corrupt("node name is not valid UTF-8"))?
                .to_string();
            Frame::Telemetry(crate::telemetry::NodeSnapshot {
                origin,
                node,
                seq,
                at_us,
                records_in,
                records_out,
                queue_depth,
                frontier,
                frontier_lag_us,
            })
        }
        t => return Err(corrupt(format!("unknown frame type {t}"))),
    };
    if c.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after frame body",
            c.remaining()
        )));
    }
    Ok(frame)
}

/// Decodes a data body into a [`TupleBuffer`] over `schema`.
fn decode_batch(
    c: &mut Cursor<'_>,
    schema: &Schema,
    registry: &WireRegistry,
) -> Result<TupleBuffer> {
    let n = c.u32()? as usize;
    if n > 0 && schema.is_empty() {
        return Err(corrupt(format!("row count {n} impossible without fields")));
    }
    let columns = schema
        .fields()
        .iter()
        .map(|f| {
            decode_column(c, f.dtype, n, registry)
                .map_err(|e| corrupt(format!("column '{}': {e}", f.name)))
        })
        .collect::<Result<Vec<Column>>>()?;
    Ok(TupleBuffer::new(
        Arc::new(schema.clone()),
        columns,
        BufferMeta::default(),
    ))
}

/// Decodes one field's block of `n` rows.
fn decode_column(
    c: &mut Cursor<'_>,
    dtype: DataType,
    n: usize,
    registry: &WireRegistry,
) -> Result<Column> {
    if c.buf.get(c.pos) == Some(&ABSENT) {
        c.pos += 1;
        let (tag, rows) = (c.u8()?, c.u32()? as usize);
        if tag != type_tag(dtype) {
            return Err(corrupt(format!(
                "absent block tagged {tag}, field is {dtype}"
            )));
        }
        if rows != n {
            return Err(corrupt(format!("absent block of {rows} rows, batch {n}")));
        }
        return Ok(Column::Absent(n));
    }
    // Every row occupies at least `min_row_bits` of what is left; refuse
    // a count that cannot fit before allocating anything for it.
    if n as u64 * min_row_bits(dtype) > c.remaining() as u64 * 8 {
        return Err(corrupt(format!(
            "row count {n} impossible in {} bytes",
            c.remaining()
        )));
    }
    let validity = take_validity(c, n)?;
    let valid = |row: usize| validity.as_ref().is_none_or(|m| m[row]);
    Ok(match dtype {
        DataType::Bool => {
            let bytes = take_slots(c, n, 1, validity.as_deref())?;
            if let Some(b) = bytes.iter().find(|&&b| b > 1) {
                return Err(corrupt(format!("invalid bool byte {b}")));
            }
            Column::Bool {
                data: bytes.iter().map(|&b| b == 1).collect(),
                validity,
            }
        }
        DataType::Int => Column::Int {
            data: le_values(
                take_slots(c, n, 8, validity.as_deref())?,
                i64::from_le_bytes,
            ),
            validity,
        },
        DataType::Timestamp => Column::Timestamp {
            data: le_values(
                take_slots(c, n, 8, validity.as_deref())?,
                i64::from_le_bytes,
            ),
            validity,
        },
        DataType::Float => Column::Float {
            data: le_values(
                take_slots(c, n, 8, validity.as_deref())?,
                f64::from_le_bytes,
            ),
            validity,
        },
        DataType::Point => {
            let xs = le_values(
                take_slots(c, n, 8, validity.as_deref())?,
                f64::from_le_bytes,
            );
            let ys = le_values(
                take_slots(c, n, 8, validity.as_deref())?,
                f64::from_le_bytes,
            );
            Column::Point { xs, ys, validity }
        }
        DataType::Text => {
            // Row 0 starts at 0; the frame carries every row's end.
            let mut offsets = Vec::with_capacity(n + 1);
            offsets.push(0);
            offsets.extend(le_values(c.take(n.saturating_mul(4))?, u32::from_le_bytes));
            for (row, w) in offsets.windows(2).enumerate() {
                if w[1] < w[0] {
                    return Err(corrupt(format!("text offsets decrease at row {row}")));
                }
                if w[1] != w[0] && !valid(row) {
                    return Err(corrupt(format!("null row {row} carries text")));
                }
            }
            let len = offsets.last().map_or(0, |&end| end as usize);
            if len > c.remaining() {
                return Err(corrupt(format!(
                    "text offset {len} out of range: {} bytes left",
                    c.remaining()
                )));
            }
            let arena = std::str::from_utf8(c.take(len)?)
                .map_err(|_| corrupt("text arena is not valid UTF-8"))?;
            if let Some(end) = offsets
                .iter()
                .find(|&&e| !arena.is_char_boundary(e as usize))
            {
                return Err(corrupt(format!("text offset {end} splits a character")));
            }
            Column::Text {
                arena: arena.as_bytes().to_vec(),
                offsets,
                validity,
            }
        }
        DataType::Opaque => {
            let mut values = Vec::new();
            for row in 0..n {
                values.push(if valid(row) {
                    let tag_len = c.u16()? as usize;
                    let tag = std::str::from_utf8(c.take(tag_len)?)
                        .map_err(|_| corrupt("opaque tag is not valid UTF-8"))?;
                    let payload_len = c.checked_len()?;
                    let payload = c.take(payload_len)?;
                    Some(registry.get(tag)?.decode(payload)?)
                } else {
                    None
                });
            }
            Column::Opaque(values)
        }
        DataType::Null => {
            if (0..n).any(valid) {
                return Err(corrupt("NULL-typed column marks a row non-null"));
            }
            Column::Values(vec![Value::Null; n])
        }
    })
}

/// Reads a validity flag and, when set, the bitmap behind it. A bitmap
/// must mark some row null and leave its padding bits clear, so each
/// batch has one encoding.
fn take_validity(c: &mut Cursor<'_>, n: usize) -> Result<Option<Vec<bool>>> {
    match c.u8()? {
        0 => Ok(None),
        1 => {
            let bitmap = c.take(n.div_ceil(8))?;
            let padding = bitmap.last().map_or(0, |&b| b >> (n % 8));
            if !n.is_multiple_of(8) && padding != 0 {
                return Err(corrupt("validity bitmap sets padding bits"));
            }
            let mask: Vec<bool> = bitmap
                .iter()
                .flat_map(|&b| (0..8).map(move |k| b >> k & 1 == 1))
                .take(n)
                .collect();
            if mask.iter().all(|&ok| ok) {
                return Err(corrupt("validity bitmap marks no row null"));
            }
            Ok(Some(mask))
        }
        flag => Err(corrupt(format!("invalid validity flag {flag}"))),
    }
}

/// The next `n` slots of `width` bytes; a null row's slot must be zero.
fn take_slots<'a>(
    c: &mut Cursor<'a>,
    n: usize,
    width: usize,
    validity: Option<&[bool]>,
) -> Result<&'a [u8]> {
    let bytes = c.take(n.saturating_mul(width))?;
    if let Some(mask) = validity {
        let dirty = bytes
            .chunks_exact(width)
            .zip(mask)
            .position(|(slot, &ok)| !ok && slot.iter().any(|&b| b != 0));
        if let Some(row) = dirty {
            return Err(corrupt(format!("null row {row} carries a value")));
        }
    }
    Ok(bytes)
}

/// Little-endian values of `W` bytes each — the one copy a fixed-width
/// column takes from the frame.
fn le_values<T, const W: usize>(bytes: &[u8], from: fn([u8; W]) -> T) -> Vec<T> {
    bytes
        .chunks_exact(W)
        .map(|chunk| {
            let mut le = [0; W];
            le.copy_from_slice(chunk);
            from(le)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Resilient link envelope
// ---------------------------------------------------------------------------
//
// Chaos-hardened cluster links wrap every transmission in an *envelope*
// carrying a per-link sequence number and a CRC32 checksum:
//
// ```text
// [kind u8][seq u64 le][crc u32 le][payload ...]
// ```
//
// `crc` covers the kind byte, the sequence number, and the payload, so
// corruption anywhere in the envelope is detected. The envelope is
// opt-in: legacy (non-chaos) cluster runs ship bare frames and their
// byte accounting is unchanged.

/// Envelope kind: a data-bearing frame (payload = encoded [`Frame`]).
pub const ENV_PAYLOAD: u8 = 0;
/// Envelope kind: cumulative acknowledgement (`seq` = highest delivered).
pub const ENV_ACK: u8 = 1;
/// Envelope kind: negative ack (`seq` = first missing sequence number).
pub const ENV_NACK: u8 = 2;
/// Envelope kind: liveness heartbeat (`seq` = sender's next sequence).
pub const ENV_HEARTBEAT: u8 = 3;

/// Fixed envelope overhead in bytes (kind + seq + crc).
pub const ENVELOPE_OVERHEAD: usize = 1 + 8 + 4;

/// CRC32 (IEEE 802.3, reflected) slicing-by-8 lookup tables, built at
/// compile time. `CRC32_TABLES[0]` is the classic one-byte table;
/// `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, which lets [`crc32_update`] fold eight input bytes per step.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Folds `bytes` into a running (pre-inverted) CRC32 state, eight bytes
/// per step with a bytewise tail.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC32 checksum (IEEE polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// CRC32 over the envelope head (`kind`, `seq`) followed by `payload`.
fn crc32_parts(kind: u8, seq: u64, payload: &[u8]) -> u32 {
    let mut head = [0u8; 9];
    head[0] = kind;
    head[1..9].copy_from_slice(&seq.to_le_bytes());
    !crc32_update(crc32_update(!0, &head), payload)
}

/// A decoded resilient-link envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// One of [`ENV_PAYLOAD`], [`ENV_ACK`], [`ENV_NACK`], [`ENV_HEARTBEAT`].
    pub kind: u8,
    /// Per-link sequence number (meaning depends on `kind`).
    pub seq: u64,
    /// Encoded frame bytes for [`ENV_PAYLOAD`]; empty for control kinds.
    pub payload: Vec<u8>,
}

/// Wraps `payload` in a checksummed, sequence-numbered envelope.
pub fn encode_envelope(kind: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_OVERHEAD + payload.len());
    out.push(kind);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&crc32_parts(kind, seq, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes and verifies an envelope; a checksum mismatch (bit corruption
/// anywhere in the transmission) is a [`NebulaError::Wire`] error.
pub fn decode_envelope(bytes: &[u8]) -> Result<Envelope> {
    if bytes.len() < ENVELOPE_OVERHEAD {
        return Err(corrupt(format!(
            "envelope too short: {} bytes, need {ENVELOPE_OVERHEAD}",
            bytes.len()
        )));
    }
    let mut c = Cursor::new(bytes);
    let kind = c.u8()?;
    let seq = c.u64()?;
    let declared = c.u32()?;
    let payload = c.take(c.remaining())?;
    let actual = crc32_parts(kind, seq, payload);
    if declared != actual {
        return Err(corrupt(format!(
            "envelope checksum mismatch: declared {declared:#010x}, computed {actual:#010x}"
        )));
    }
    if kind > ENV_HEARTBEAT {
        return Err(corrupt(format!("unknown envelope kind {kind}")));
    }
    Ok(Envelope {
        kind,
        seq,
        payload: payload.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> crate::schema::SchemaRef {
        Schema::of(&[
            ("ts", DataType::Timestamp),
            ("id", DataType::Int),
            ("v", DataType::Float),
            ("name", DataType::Text),
            ("ok", DataType::Bool),
            ("pos", DataType::Point),
        ])
    }

    fn rec() -> Record {
        Record::new(vec![
            Value::Timestamp(1_000_000),
            Value::Int(-7),
            Value::Float(2.5),
            Value::text("α train"),
            Value::Bool(true),
            Value::Point { x: 4.35, y: 50.85 },
        ])
    }

    /// The rows of a decoded data frame.
    fn rows(frame: Frame) -> Vec<Record> {
        match frame {
            Frame::Columnar(tb) => tb.to_record_buffer().into_records(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn data_round_trip() {
        let reg = WireRegistry::new();
        let s = schema();
        let nulls = Record::new(vec![Value::Null; 6]);
        let frame = Frame::Data(vec![rec(), nulls.clone()]);
        let bytes = encode_frame(&frame, &s, &reg).unwrap();
        let recs = rows(decode_frame(&bytes, &s, &reg).unwrap());
        assert_eq!(recs, [rec(), nulls]);
    }

    #[test]
    fn row_batches_encode_as_their_transposition() {
        // One layout on the wire: rows encode to exactly the bytes of
        // their `from_records` buffer, and a decoded buffer re-encodes
        // to the bytes it came from.
        let reg = WireRegistry::new();
        let s = schema();
        let mut recs: Vec<Record> = (0..20).map(|_| rec()).collect();
        recs[3] = Record::new(vec![Value::Null; 6]);
        let mut holed = rec().into_values();
        holed[3] = Value::Null;
        recs[7] = Record::new(holed);
        let rows = encode_frame(&Frame::Data(recs.clone()), &s, &reg).unwrap();
        let tb = TupleBuffer::from_records(s.clone(), &recs, BufferMeta::default());
        let cols = encode_frame(&Frame::Columnar(tb), &s, &reg).unwrap();
        assert_eq!(rows, cols);
        let back = decode_frame(&rows, &s, &reg).unwrap();
        assert_eq!(encode_frame(&back, &s, &reg).unwrap(), rows);
    }

    #[test]
    fn control_round_trips() {
        let reg = WireRegistry::new();
        let s = schema();
        for frame in [Frame::Watermark(-5), Frame::Eos, Frame::Barrier(7)] {
            let bytes = encode_frame(&frame, &s, &reg).unwrap();
            let back = decode_frame(&bytes, &s, &reg).unwrap();
            match (&frame, &back) {
                (Frame::Watermark(a), Frame::Watermark(b)) => assert_eq!(a, b),
                (Frame::Eos, Frame::Eos) => {}
                (Frame::Barrier(a), Frame::Barrier(b)) => assert_eq!(a, b),
                other => panic!("{other:?}"),
            }
        }
        // The retired tag 3 is an unknown frame type, not a frame.
        let err = decode_frame(&[1, 0, 0, 0, 3], &s, &reg).unwrap_err();
        assert!(matches!(err, NebulaError::Wire(_)), "{err}");
    }

    #[test]
    fn telemetry_frame_round_trips() {
        let reg = WireRegistry::new();
        let s = schema();
        for frontier in [None, Some(12_345_678i64), Some(-1)] {
            let snap = crate::telemetry::NodeSnapshot {
                origin: 3,
                node: "edge-α".to_string(),
                seq: 17,
                at_us: 250_000,
                records_in: 1_000,
                records_out: 900,
                queue_depth: 4,
                frontier,
                frontier_lag_us: 777,
            };
            let bytes = encode_frame(&Frame::Telemetry(snap.clone()), &s, &reg).unwrap();
            match decode_frame(&bytes, &s, &reg).unwrap() {
                Frame::Telemetry(back) => assert_eq!(back, snap),
                other => panic!("{other:?}"),
            }
            // Truncations never panic.
            for cut in 0..bytes.len() {
                let _ = decode_frame(&bytes[..cut], &s, &reg);
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slicing_matches_bytewise_at_every_length_and_split() {
        // The one-byte-per-step definition the sliced tables must equal.
        let bytewise = |bytes: &[u8]| {
            let mut crc = !0u32;
            for &b in bytes {
                crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
            }
            !crc
        };
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
        // Head-then-payload (9 + n bytes, so the payload starts
        // unaligned to the 8-byte stride) equals one pass over both.
        for len in 0..data.len() - 9 {
            let seq = u64::from_le_bytes(data[1..9].try_into().unwrap());
            assert_eq!(
                crc32_parts(data[0], seq, &data[9..9 + len]),
                bytewise(&data[..9 + len]),
                "payload len {len}"
            );
        }
    }

    #[test]
    fn envelope_round_trips_and_rejects_corruption() {
        let payload = b"hello frames".to_vec();
        let bytes = encode_envelope(ENV_PAYLOAD, 42, &payload);
        let env = decode_envelope(&bytes).unwrap();
        assert_eq!(env.kind, ENV_PAYLOAD);
        assert_eq!(env.seq, 42);
        assert_eq!(env.payload, payload);
        // Every single-bit flip anywhere in the envelope is detected.
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(decode_envelope(&bad).is_err(), "flip at byte {i} bit {bit}");
            }
        }
        // Truncations never panic.
        for cut in 0..bytes.len() {
            let _ = decode_envelope(&bytes[..cut]);
        }
    }

    #[test]
    fn control_envelopes_round_trip() {
        for kind in [ENV_ACK, ENV_NACK, ENV_HEARTBEAT] {
            let bytes = encode_envelope(kind, 9, &[]);
            let env = decode_envelope(&bytes).unwrap();
            assert_eq!((env.kind, env.seq), (kind, 9));
            assert!(env.payload.is_empty());
        }
    }

    #[test]
    fn wire_bytes_track_est_bytes() {
        // Without nulls, measured bytes are `est_bytes` plus a
        // per-frame overhead that does not grow with the row count.
        let reg = WireRegistry::new();
        let s = schema();
        for n in [1, 10, 100] {
            let recs: Vec<Record> = (0..n).map(|_| rec()).collect();
            let est: usize = recs.iter().map(Record::est_bytes).sum();
            let bytes = encode_frame(&Frame::Data(recs), &s, &reg).unwrap();
            let overhead = 4 + 1 + 4 + s.len(); // frame len+type+count, validity flags
            assert_eq!(bytes.len(), est + overhead);
        }
    }

    #[test]
    fn integer_family_normalizes_to_schema_type() {
        let reg = WireRegistry::new();
        let s = Schema::of(&[("ts", DataType::Timestamp), ("n", DataType::Int)]);
        let frame = Frame::Data(vec![Record::new(vec![
            Value::Int(42),       // int in a timestamp column
            Value::Timestamp(99), // timestamp in an int column
        ])]);
        let bytes = encode_frame(&frame, &s, &reg).unwrap();
        let recs = rows(decode_frame(&bytes, &s, &reg).unwrap());
        assert_eq!(recs[0].get(0), Some(&Value::Timestamp(42)));
        assert_eq!(recs[0].get(1), Some(&Value::Int(99)));
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let reg = WireRegistry::new();
        let s = Schema::of(&[("v", DataType::Float)]);
        let frame = Frame::Data(vec![Record::new(vec![Value::text("nope")])]);
        let err = encode_frame(&frame, &s, &reg).unwrap_err();
        assert!(matches!(err, NebulaError::Wire(_)), "{err}");
    }

    #[test]
    fn missing_opaque_codec_is_an_error() {
        #[derive(Debug)]
        struct Blob;
        impl OpaqueValue for Blob {
            fn type_tag(&self) -> &'static str {
                "test.blob"
            }
            fn est_bytes(&self) -> usize {
                0
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn opaque_eq(&self, _other: &dyn OpaqueValue) -> bool {
                true
            }
        }
        let reg = WireRegistry::new();
        let s = Schema::of(&[("o", DataType::Opaque)]);
        let frame = Frame::Data(vec![Record::new(vec![Value::Opaque(Arc::new(Blob))])]);
        let err = encode_frame(&frame, &s, &reg).unwrap_err();
        assert!(err.to_string().contains("test.blob"), "{err}");
    }

    #[test]
    fn corrupted_frames_error_not_panic() {
        let reg = WireRegistry::new();
        let s = schema();
        let good = encode_frame(&Frame::Data(vec![rec()]), &s, &reg).unwrap();
        // Truncations at every length.
        for cut in 0..good.len() {
            let _ = decode_frame(&good[..cut], &s, &reg);
        }
        // Unknown frame type.
        let mut bad = good.clone();
        bad[4] = 200;
        assert!(decode_frame(&bad, &s, &reg).is_err());
        // Length lie.
        let mut bad = good.clone();
        bad[0] = bad[0].wrapping_add(1);
        assert!(decode_frame(&bad, &s, &reg).is_err());
        // Absurd record count must not allocate or panic.
        let mut bad = good;
        bad[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_frame(&bad, &s, &reg).is_err());
    }
}
