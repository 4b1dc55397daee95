//! Property-based tests for the cluster wire codec: encode/decode
//! round-trips over arbitrary value trees, records and control frames,
//! byte accounting against the analytic estimator, and the no-panic
//! guarantee on corrupted frames.

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn data_frames_round_trip(records in batch_strategy()) {
        let reg = WireRegistry::new();
        let s = schema();
        let bytes = encode_frame(&Frame::Data(records.clone()), &s, &reg).expect("encode");
        match decode_frame(&bytes, &s, &reg).expect("decode") {
            Frame::Data(got) => {
                prop_assert_eq!(got.len(), records.len());
                for (a, b) in records.iter().zip(&got) {
                    prop_assert_eq!(a.len(), b.len());
                    for (va, vb) in a.values().iter().zip(b.values()) {
                        prop_assert!(values_eq(va, vb), "{} != {}", va, vb);
                    }
                }
            }
            other => prop_assert!(false, "decoded {:?}", other),
        }
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
        // The reconciliation contract behind `network_cost`: encoded
        // bytes exceed `est_bytes` only by framing (9 per frame) plus
        // field-count + bitmap (3 per record here), and fall below it
        // only where nulls pay 1 byte in the estimate but 0 on the wire.
        let reg = WireRegistry::new();
        let s = schema();
        let est: usize = records.iter().map(Record::est_bytes).sum();
        let nulls: usize = records
            .iter()
            .flat_map(|r| r.values())
            .filter(|v| v.is_null())
            .count();
        let text_estimate_floor = est.saturating_sub(nulls);
        let bytes = encode_frame(&Frame::Data(records.clone()), &s, &reg).expect("encode");
        let overhead = 9 + records.len() * (1 + s.len().div_ceil(8));
        prop_assert_eq!(bytes.len(), text_estimate_floor + overhead);
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

    let mut reg = WireRegistry::new();
    reg.register(Arc::new(BlobCodec));
    let s = Schema::of(&[("o", DataType::Opaque)]);
    let v = Value::Opaque(Arc::new(Blob(vec![1, 2, 3, 4])));
    let bytes = encode_frame(&Frame::Data(vec![Record::new(vec![v.clone()])]), &s, &reg).unwrap();
    match decode_frame(&bytes, &s, &reg).unwrap() {
        Frame::Data(recs) => assert_eq!(recs[0].get(0), Some(&v)),
        other => panic!("{other:?}"),
    }
    // A codec-level decode error propagates as a wire error.
    let poisoned = Value::Opaque(Arc::new(Blob(vec![0xFF, 9])));
    let bytes = encode_frame(&Frame::Data(vec![Record::new(vec![poisoned])]), &s, &reg).unwrap();
    assert!(decode_frame(&bytes, &s, &reg).is_err());
}
