//! Property-based tests for the cluster wire codec: encode/decode
//! round-trips over arbitrary records, every column type with null runs,
//! and control frames; byte accounting against the analytic estimator;
//! absent columns (fields outside a read set) as tag-and-length blocks;
//! and the no-panic guarantee on corrupted frames, with each malformed
//! column case rejected as `NebulaError::Wire`.

use nebula::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// The column pool: one of each wire-encodable primitive type, doubled
/// so records mix null and non-null per type.
fn schema() -> SchemaRef {
    Schema::of(&[
        ("ts", DataType::Timestamp),
        ("id", DataType::Int),
        ("v", DataType::Float),
        ("name", DataType::Text),
        ("ok", DataType::Bool),
        ("pos", DataType::Point),
        ("ts2", DataType::Timestamp),
        ("id2", DataType::Int),
        ("v2", DataType::Float),
        ("name2", DataType::Text),
    ])
}

/// Arbitrary records over the column pool: each field draws its typed
/// value (multi-byte UTF-8 text, full-range ints/floats) or null with
/// ~1/5 probability.
fn record_strategy() -> impl Strategy<Value = Record> {
    let s = schema();
    let cols: Vec<DataType> = s.fields().iter().map(|f| f.dtype).collect();
    proptest::collection::vec(
        (0u8..5, i64::MIN..i64::MAX, -1e12f64..1e12, 0usize..12),
        cols.len(),
    )
    .prop_map(move |draws| {
        let values = cols
            .iter()
            .zip(draws)
            .map(|(dtype, (null_die, i, f, len))| {
                if null_die == 0 {
                    return Value::Null;
                }
                match dtype {
                    DataType::Timestamp => Value::Timestamp(i),
                    DataType::Int => Value::Int(i),
                    DataType::Float => Value::Float(if f.is_nan() { 0.25 } else { f }),
                    DataType::Text => {
                        let s: String = "αβ7 train-£".chars().cycle().take(len).collect();
                        Value::text(s)
                    }
                    DataType::Bool => Value::Bool(i % 2 == 0),
                    DataType::Point => Value::Point {
                        x: i as f64 * 0.5,
                        y: if f.is_finite() { f } else { 1.0 },
                    },
                    _ => Value::Null,
                }
            })
            .collect();
        Record::new(values)
    })
}

fn batch_strategy() -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(record_strategy(), 0..20)
}

/// NaN-tolerant value comparison (NaN floats round-trip bit-exactly but
/// compare unequal under `PartialEq`).
fn values_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Point { x: ax, y: ay }, Value::Point { x: bx, y: by }) => {
            ax.to_bits() == bx.to_bits() && ay.to_bits() == by.to_bits()
        }
        _ => a == b,
    }
}

/// The rows of a decoded data frame (data frames decode columnar).
fn decoded_rows(frame: Frame) -> Vec<Record> {
    match frame {
        Frame::Columnar(tb) => tb.to_record_buffer().into_records(),
        other => panic!("decoded {other:?}"),
    }
}

/// Wire bytes one value takes in a column of `dtype`: its estimate when
/// non-null; its full slot (an empty text slice) when null.
fn wire_value_bytes(dtype: DataType, v: &Value) -> usize {
    if !v.is_null() {
        return v.est_bytes();
    }
    match dtype {
        DataType::Bool => 1,
        DataType::Int | DataType::Timestamp | DataType::Float => 8,
        DataType::Point => 16,
        DataType::Text => 4,
        DataType::Opaque | DataType::Null => 0,
    }
}

/// A toy plugin payload, so opaque columns round-trip in these tests.
#[derive(Debug, PartialEq)]
struct Blob(Vec<u8>);

impl OpaqueValue for Blob {
    fn type_tag(&self) -> &'static str {
        "test.blob"
    }
    fn est_bytes(&self) -> usize {
        self.0.len()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn opaque_eq(&self, other: &dyn OpaqueValue) -> bool {
        other
            .as_any()
            .downcast_ref::<Blob>()
            .is_some_and(|b| b.0 == self.0)
    }
}

struct BlobCodec;

impl OpaqueWireCodec for BlobCodec {
    fn tag(&self) -> &'static str {
        "test.blob"
    }
    fn encode(&self, value: &dyn OpaqueValue, out: &mut Vec<u8>) -> Result<()> {
        let blob = value
            .as_any()
            .downcast_ref::<Blob>()
            .ok_or_else(|| NebulaError::Wire("not a blob".into()))?;
        out.extend_from_slice(&blob.0);
        Ok(())
    }
    fn decode(&self, bytes: &[u8]) -> Result<Arc<dyn OpaqueValue>> {
        if bytes.first() == Some(&0xFF) {
            return Err(NebulaError::Wire("poisoned blob".into()));
        }
        Ok(Arc::new(Blob(bytes.to_vec())))
    }
}

fn blob_registry() -> WireRegistry {
    let mut reg = WireRegistry::new();
    reg.register(Arc::new(BlobCodec));
    reg
}

/// One column of every wire type, `NULL` included.
fn all_types_schema() -> SchemaRef {
    Schema::of(&[
        ("b", DataType::Bool),
        ("i", DataType::Int),
        ("t", DataType::Timestamp),
        ("f", DataType::Float),
        ("p", DataType::Point),
        ("s", DataType::Text),
        ("o", DataType::Opaque),
        ("z", DataType::Null),
    ])
}

/// Rows over [`all_types_schema`] where each column is null on the rows
/// its run mask marks: runs of nulls and of values of arbitrary length.
fn null_run_strategy() -> impl Strategy<Value = Vec<Record>> {
    (
        1usize..40,
        proptest::collection::vec((1usize..9, 0u8..2), 7),
        i64::MIN..i64::MAX,
    )
        .prop_map(|(n, runs, seed)| {
            // Column c is null on the rows of its alternating runs that
            // start null when the run's flag says so.
            let null_at = |c: usize, row: usize| {
                let (len, starts_null) = runs[c];
                (row / len).is_multiple_of(2) == (starts_null == 1)
            };
            (0..n)
                .map(|row| {
                    let k = seed.wrapping_add(row as i64 * 7919);
                    let typed = [
                        Value::Bool(k % 2 == 0),
                        Value::Int(k),
                        Value::Timestamp(k.wrapping_mul(3)),
                        Value::Float(k as f64 / 7.0),
                        Value::Point {
                            x: k as f64,
                            y: -(row as f64),
                        },
                        Value::text("ü".repeat(row % 4)),
                        Value::Opaque(Arc::new(Blob(vec![row as u8; row % 3]))),
                    ];
                    let mut values: Vec<Value> = typed
                        .into_iter()
                        .enumerate()
                        .map(|(c, v)| if null_at(c, row) { Value::Null } else { v })
                        .collect();
                    values.push(Value::Null);
                    Record::new(values)
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn data_frames_round_trip(records in batch_strategy()) {
        let reg = WireRegistry::new();
        let s = schema();
        let bytes = encode_frame(&Frame::Data(records.clone()), &s, &reg).expect("encode");
        let got = decoded_rows(decode_frame(&bytes, &s, &reg).expect("decode"));
        prop_assert_eq!(got.len(), records.len());
        for (a, b) in records.iter().zip(&got) {
            prop_assert_eq!(a.len(), b.len());
            for (va, vb) in a.values().iter().zip(b.values()) {
                prop_assert!(values_eq(va, vb), "{} != {}", va, vb);
            }
        }
    }

    #[test]
    fn every_column_type_round_trips_with_null_runs(records in null_run_strategy()) {
        // Rows and their buffer encode to the same bytes, decode back to
        // the same rows, and the decoded buffer re-encodes identically.
        let reg = blob_registry();
        let s = all_types_schema();
        let bytes = encode_frame(&Frame::Data(records.clone()), &s, &reg).expect("encode");
        let tb = TupleBuffer::from_records(s.clone(), &records, BufferMeta::default());
        prop_assert_eq!(&encode_frame(&Frame::Columnar(tb), &s, &reg).expect("encode"), &bytes);
        let back = decode_frame(&bytes, &s, &reg).expect("decode");
        prop_assert_eq!(&encode_frame(&back, &s, &reg).expect("re-encode"), &bytes);
        prop_assert_eq!(decoded_rows(back), records);
    }

    #[test]
    fn control_frames_round_trip(wm in i64::MIN..i64::MAX) {
        let reg = WireRegistry::new();
        let s = schema();
        for frame in [Frame::Watermark(wm), Frame::Eos] {
            let bytes = encode_frame(&frame, &s, &reg).expect("encode");
            let back = decode_frame(&bytes, &s, &reg).expect("decode");
            match (&frame, &back) {
                (Frame::Watermark(a), Frame::Watermark(b)) => prop_assert_eq!(a, b),
                (Frame::Eos, Frame::Eos) => {}
                other => prop_assert!(false, "{:?}", other),
            }
        }
    }

    #[test]
    fn retired_frame_tag_is_a_wire_error(body in proptest::collection::vec(0u8..255, 0..24)) {
        // Type byte 3 (the retired pause-and-migrate marker) decodes to
        // `NebulaError::Wire` whatever follows it: never a panic, never
        // a frame.
        let mut bytes = ((body.len() + 1) as u32).to_le_bytes().to_vec();
        bytes.push(3);
        bytes.extend_from_slice(&body);
        let got = decode_frame(&bytes, &schema(), &WireRegistry::new());
        prop_assert!(matches!(got, Err(NebulaError::Wire(_))), "decoded {:?}", got);
    }

    #[test]
    fn wire_bytes_stay_near_the_estimator(records in batch_strategy()) {
        // The reconciliation contract behind `network_cost`: non-null
        // values cost exactly their `est_bytes`; a null costs its full
        // slot instead of the estimate's 1 byte; the rest is per frame
        // (9 bytes of header, one validity flag per field) plus one
        // bitmap per column that has a null.
        let reg = WireRegistry::new();
        let s = schema();
        let n = records.len();
        let mut expected = 9;
        for (c, field) in s.fields().iter().enumerate() {
            let column: Vec<&Value> = records.iter().map(|r| &r.values()[c]).collect();
            expected += 1;
            if column.iter().any(|v| v.is_null()) {
                expected += n.div_ceil(8);
            }
            expected += column.iter().map(|v| wire_value_bytes(field.dtype, v)).sum::<usize>();
        }
        let bytes = encode_frame(&Frame::Data(records), &s, &reg).expect("encode");
        prop_assert_eq!(bytes.len(), expected);
    }

    #[test]
    fn envelope_rejects_any_corruption(
        payload in proptest::collection::vec(0u8..255, 0..256),
        seq in 0u64..u64::MAX,
        pos in 0usize..4096,
        xor in 1u8..255,
        cut in 0usize..4096,
    ) {
        // The resilient link's integrity floor: CRC32 over kind + seq +
        // payload detects every single-byte corruption (burst errors up
        // to 32 bits are guaranteed caught), and truncation at any
        // length short of the full envelope never decodes.
        let env = encode_envelope(0, seq, &payload);
        let back = decode_envelope(&env).expect("clean envelope decodes");
        prop_assert_eq!(back.seq, seq);
        prop_assert_eq!(&back.payload, &payload);

        let mut bad = env.clone();
        let pos = pos % bad.len();
        bad[pos] ^= xor;
        prop_assert!(
            decode_envelope(&bad).is_err(),
            "flipped byte {} must fail the checksum", pos
        );

        let cut = cut % env.len();
        prop_assert!(
            decode_envelope(&env[..cut]).is_err(),
            "truncated envelope ({} of {} bytes) must not decode", cut, env.len()
        );
    }

    #[test]
    fn sequence_reassembly_is_dedup_idempotent(
        payloads in proptest::collection::vec(proptest::collection::vec(0u8..255, 0..32), 1..24),
        dup_picks in proptest::collection::vec(0usize..24, 0..24),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        // The exactly-once delivery contract the receiver builds on:
        // envelopes carry unique sequence numbers, so an arrival stream
        // with arbitrary duplication and reordering reassembles (keyed
        // by seq, first write wins) into exactly the original payload
        // sequence — reprocessing a duplicate is a no-op.
        let envelopes: Vec<Vec<u8>> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| encode_envelope(0, i as u64, p))
            .collect();
        let mut deliveries: Vec<Vec<u8>> = envelopes.clone();
        for pick in dup_picks {
            deliveries.push(envelopes[pick % envelopes.len()].clone());
        }
        // Deterministic shuffle.
        let mut state = shuffle_seed | 1;
        for i in (1..deliveries.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            deliveries.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut slots: std::collections::BTreeMap<u64, Vec<u8>> = std::collections::BTreeMap::new();
        let mut duplicates = 0usize;
        for raw in &deliveries {
            let env = decode_envelope(raw).expect("uncorrupted envelope");
            if let Some(prev) = slots.get(&env.seq) {
                prop_assert_eq!(prev, &env.payload, "duplicate must carry identical bytes");
                duplicates += 1;
            } else {
                slots.insert(env.seq, env.payload);
            }
        }
        prop_assert_eq!(duplicates, deliveries.len() - payloads.len());
        let reassembled: Vec<Vec<u8>> = slots.into_values().collect();
        prop_assert_eq!(reassembled, payloads);
    }

    #[test]
    fn absent_columns_round_trip_as_tag_and_length(
        records in batch_strategy(),
        mask in 0u16..1024,
        flips in proptest::collection::vec((0usize..4096, 1u8..255), 1..8),
    ) {
        // Only the read fields carry bytes; each absent one is a 6-byte
        // block that decodes back to an absent column of the batch's
        // length, and the read fields decode as they would in full.
        let reg = WireRegistry::new();
        let s = schema();
        let reads = ReadSet::of(s.len(), (0..s.len()).filter(|c| mask >> c & 1 == 1));
        let narrow = TupleBuffer::transpose(s.clone(), &records, &reads);
        let bytes = encode_frame(&Frame::Columnar(narrow), &s, &reg).expect("encode");
        let Frame::Columnar(back) = decode_frame(&bytes, &s, &reg).expect("decode") else {
            panic!("a data frame decodes columnar");
        };
        prop_assert_eq!(back.len(), records.len());
        for (c, col) in back.columns().iter().enumerate() {
            prop_assert_eq!(col.is_absent(), !reads.contains(c), "column {}", c);
            prop_assert_eq!(col.len(), records.len());
        }
        for (row, rec) in records.iter().enumerate() {
            for (c, v) in rec.values().iter().enumerate() {
                let want = if reads.contains(c) { v.clone() } else { Value::Null };
                let got = back.value_at(row, c).expect("in range");
                prop_assert!(values_eq(&got, &want), "row {} column {}: {} != {}", row, c, got, want);
            }
        }
        let full = encode_frame(&Frame::Data(records.clone()), &s, &reg).expect("encode");
        let dead: usize = (0..s.len()).filter(|&c| !reads.contains(c)).count();
        let dead_payload: usize = (0..s.len())
            .filter(|&c| !reads.contains(c))
            .map(|c| {
                let dtype = s.fields()[c].dtype;
                let nulls = records.iter().any(|r| r.values()[c].is_null());
                let bitmap = if nulls { records.len().div_ceil(8) } else { 0 };
                let values: usize = records.iter().map(|r| wire_value_bytes(dtype, &r.values()[c])).sum();
                1 + bitmap + values
            })
            .sum();
        prop_assert_eq!(bytes.len(), full.len() - dead_payload + 6 * dead);
        // Corrupted narrow frames error instead of panicking too.
        let mut bad = bytes;
        for (pos, xor) in flips {
            let pos = pos % bad.len();
            bad[pos] ^= xor;
        }
        let _ = decode_frame(&bad, &s, &reg);
    }

    #[test]
    fn corrupted_frames_error_instead_of_panicking(
        records in batch_strategy(),
        flips in proptest::collection::vec((0usize..4096, 1u8..255), 1..8),
        cut in 0usize..4096,
    ) {
        let reg = WireRegistry::new();
        let s = schema();
        let good = encode_frame(&Frame::Data(records), &s, &reg).expect("encode");
        // Truncation at an arbitrary length: Ok only for the full frame.
        let cut = cut % (good.len() + 1);
        let truncated = decode_frame(&good[..cut], &s, &reg);
        if cut < good.len() {
            prop_assert!(truncated.is_err(), "truncated frame must not decode");
        }
        // Byte flips: decode must return (any) result without panicking,
        // and an intact length prefix with a mangled body must never be
        // accepted as a *different-length* record batch.
        let mut bad = good;
        for (pos, xor) in flips {
            let pos = pos % bad.len();
            bad[pos] ^= xor;
        }
        let _ = decode_frame(&bad, &s, &reg);
    }
}

#[test]
fn opaque_round_trip_through_registered_codec() {
    // The plugin seam end-to-end with a toy codec: an opaque payload
    // survives the frame, and a corrupted payload errors.
    let reg = blob_registry();
    let s = Schema::of(&[("o", DataType::Opaque)]);
    let v = Value::Opaque(Arc::new(Blob(vec![1, 2, 3, 4])));
    let bytes = encode_frame(&Frame::Data(vec![Record::new(vec![v.clone()])]), &s, &reg).unwrap();
    let recs = decoded_rows(decode_frame(&bytes, &s, &reg).unwrap());
    assert_eq!(recs[0].get(0), Some(&v));
    // A codec-level decode error propagates as a wire error.
    let poisoned = Value::Opaque(Arc::new(Blob(vec![0xFF, 9])));
    let bytes = encode_frame(&Frame::Data(vec![Record::new(vec![poisoned])]), &s, &reg).unwrap();
    assert!(decode_frame(&bytes, &s, &reg).is_err());
}

/// A data frame over a one-field schema with the given body after the
/// row count.
fn data_frame(rows: u32, columns: &[u8]) -> Vec<u8> {
    let mut body = vec![0u8];
    body.extend_from_slice(&rows.to_le_bytes());
    body.extend_from_slice(columns);
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    frame
}

/// Decodes `bytes` over a one-field schema of `dtype`, expecting a
/// `NebulaError::Wire` whose message mentions `needle`.
fn assert_wire_error(case: &str, dtype: DataType, bytes: &[u8], needle: &str) {
    let s = Schema::of(&[("c", dtype)]);
    match decode_frame(bytes, &s, &WireRegistry::new()) {
        Err(NebulaError::Wire(msg)) => {
            assert!(msg.contains(needle), "{case}: '{msg}' lacks '{needle}'")
        }
        other => panic!("{case}: decoded {other:?}"),
    }
}

#[test]
fn malformed_columns_are_wire_errors() {
    let le = |v: u32| v.to_le_bytes();
    let cat = |parts: &[&[u8]]| parts.concat();
    // The well-formed shapes the cases below break.
    let s = Schema::of(&[("c", DataType::Text)]);
    let good = data_frame(2, &cat(&[&[0], &le(1), &le(3), b"a\xC3\xBC"]));
    let recs = decoded_rows(decode_frame(&good, &s, &WireRegistry::new()).unwrap());
    assert_eq!(recs[1].get(0), Some(&Value::text("ü")));

    // A row count the remaining bytes cannot hold is refused up front.
    assert_wire_error(
        "row count",
        DataType::Int,
        &data_frame(u32::MAX, &[0]),
        "impossible",
    );
    assert_wire_error(
        "row count",
        DataType::Opaque,
        &data_frame(1 << 20, &[1, 0]),
        "impossible",
    );
    // Truncated columns.
    assert_wire_error(
        "truncated",
        DataType::Int,
        &data_frame(2, &cat(&[&[0], &[7; 15]])),
        "truncated",
    );
    assert_wire_error(
        "truncated",
        DataType::Float,
        &data_frame(1, &[0]),
        "impossible",
    );
    assert_wire_error(
        "truncated",
        DataType::Text,
        &data_frame(1, &cat(&[&[0], &le(4), b"ab"])),
        "out of range",
    );
    // Validity: an unknown flag, set padding bits, a bitmap with no null.
    assert_wire_error(
        "flag",
        DataType::Int,
        &data_frame(1, &cat(&[&[2], &[0; 8]])),
        "validity flag",
    );
    assert_wire_error(
        "padding",
        DataType::Bool,
        &data_frame(2, &[1, 0b0000_0101, 1, 0]),
        "padding",
    );
    assert_wire_error(
        "no null",
        DataType::Bool,
        &data_frame(2, &[1, 0b11, 1, 0]),
        "no row null",
    );
    // A null row's slot must be zero; a NULL column must be all null.
    assert_wire_error(
        "null slot",
        DataType::Int,
        &data_frame(1, &cat(&[&[1, 0], &[9; 8]])),
        "null row 0",
    );
    assert_wire_error(
        "null type",
        DataType::Null,
        &data_frame(1, &[0]),
        "non-null",
    );
    // Bool bytes are 0 or 1.
    assert_wire_error("bool", DataType::Bool, &data_frame(1, &[0, 2]), "bool byte");
    // Text offsets: decreasing, past the arena, inside a character,
    // text on a null row, invalid UTF-8.
    assert_wire_error(
        "monotone",
        DataType::Text,
        &data_frame(2, &cat(&[&[0], &le(2), &le(1), b"ab"])),
        "decrease",
    );
    assert_wire_error(
        "range",
        DataType::Text,
        &data_frame(1, &cat(&[&[0], &le(9), b"ab"])),
        "out of range",
    );
    assert_wire_error(
        "boundary",
        DataType::Text,
        &data_frame(2, &cat(&[&[0], &le(2), &le(3), b"a\xC3\xBC"])),
        "splits",
    );
    assert_wire_error(
        "null text",
        DataType::Text,
        &data_frame(2, &cat(&[&[1, 0b10], &le(1), &le(1), b"a"])),
        "null row 0",
    );
    assert_wire_error(
        "utf8",
        DataType::Text,
        &data_frame(1, &cat(&[&[0], &le(2), b"\xC3\x28"])),
        "UTF-8",
    );
    // An absent block: its tag must be the field's, its length the
    // batch's, and nothing may follow it but the next field's block.
    let absent = |tag: u8, rows: u32| cat(&[&[0xFF, tag], &le(rows)]);
    let s = Schema::of(&[("c", DataType::Int)]);
    let ok = decode_frame(&data_frame(3, &absent(1, 3)), &s, &WireRegistry::new()).unwrap();
    assert!(matches!(ok, Frame::Columnar(tb) if tb.len() == 3 && tb.columns()[0].is_absent()));
    assert_wire_error(
        "absent length",
        DataType::Int,
        &data_frame(3, &absent(1, 2)),
        "2 rows",
    );
    assert_wire_error(
        "absent tag",
        DataType::Int,
        &data_frame(3, &absent(2, 3)),
        "tagged 2",
    );
    assert_wire_error(
        "absent payload",
        DataType::Int,
        &data_frame(1, &cat(&[&absent(1, 1), &[7; 8]])),
        "trailing",
    );
    assert_wire_error(
        "absent truncated",
        DataType::Int,
        &data_frame(1, &[0xFF, 1, 1]),
        "truncated",
    );
    // Trailing bytes after the last column.
    let mut trailing = good[4..].to_vec();
    trailing.push(0);
    let mut framed = (trailing.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&trailing);
    assert_wire_error("trailing", DataType::Text, &framed, "trailing");
}
