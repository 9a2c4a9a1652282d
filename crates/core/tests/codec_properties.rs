//! Property-based tests of the connector codec: arbitrary tuples
//! survive the broker boundary bit-exactly.

use std::sync::Arc;

use proptest::prelude::*;
use strata::codec::{decode, encode, ConnectorMessage};
use strata::{AmTuple, Metadata, Payload, Value};
use strata_amsim::OtImage;
use strata_spe::Timestamp;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        // Totally ordered floats only (NaN breaks PartialEq round-trip checks).
        (-1.0e12f64..1.0e12).prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        "[ -~]{0,24}".prop_map(|s| Value::Str(Arc::from(s.as_str()))),
        proptest::collection::vec(any::<u8>(), 0..32)
            .prop_map(|b| Value::Bytes(Arc::from(b.as_slice()))),
        (1u32..12, 1u32..12).prop_map(|(w, h)| {
            Value::Image(Arc::new(OtImage::from_fn(w, h, |x, y| {
                (x * 7 + y * 13) as u8
            })))
        }),
        proptest::collection::vec(
            (
                any::<u32>(),
                any::<u32>(),
                any::<u32>(),
                any::<u32>(),
                any::<u32>()
            ),
            0..5
        )
        .prop_map(|r| Value::Rects(Arc::new(r))),
        proptest::collection::vec((-1.0e6f64..1.0e6, -1.0e6f64..1.0e6), 0..8)
            .prop_map(|p| Value::Points(Arc::new(p))),
    ]
}

fn tuple_strategy() -> impl Strategy<Value = AmTuple> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        proptest::option::of(any::<u32>().prop_map(|s| s % (u32::MAX - 1))),
        proptest::option::of(any::<u32>().prop_map(|p| p % (u32::MAX - 1))),
        any::<u64>(),
        proptest::collection::btree_map("[a-z_]{1,12}", value_strategy(), 0..6),
    )
        .prop_map(|(ts, job, layer, specimen, portion, ingest, entries)| {
            let mut payload = Payload::new();
            for (k, v) in entries {
                payload.set(k, v);
            }
            AmTuple::from_parts(
                Metadata {
                    timestamp: Timestamp::from_millis(ts),
                    job,
                    layer,
                    specimen,
                    portion,
                    ingest_ns: ingest,
                },
                payload,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tuples_round_trip(tuple in tuple_strategy()) {
        let encoded = encode(&ConnectorMessage::Tuple(tuple.clone()));
        let decoded = decode(&encoded).unwrap();
        prop_assert_eq!(decoded, ConnectorMessage::Tuple(tuple));
    }

    #[test]
    fn watermarks_round_trip(ts in any::<u64>()) {
        let msg = ConnectorMessage::Watermark(Timestamp::from_millis(ts));
        prop_assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    /// Decoding arbitrary bytes returns, `Ok` or `Err`: it never panics
    /// or aborts. Most inputs start with a tuple header and a value
    /// tag, so the bytes after it act as a corrupt value length.
    #[test]
    fn arbitrary_bytes_decode_without_aborting(
        value_tag in proptest::option::of(0u8..8),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut data = Vec::new();
        if let Some(tag) = value_tag {
            data.push(0); // a tuple
            data.extend_from_slice(&[0; 32]); // its metadata
            data.extend_from_slice(&1u16.to_le_bytes()); // one entry
            data.extend_from_slice(&1u16.to_le_bytes()); // key length
            data.push(b'k');
            data.push(tag);
        }
        data.extend_from_slice(&bytes);
        let _ = decode(&data);
    }

    /// Any truncation of a valid encoding is rejected, never
    /// mis-decoded (no panics, no silent corruption).
    #[test]
    fn truncations_error_cleanly(tuple in tuple_strategy(), frac in 0.0f64..1.0) {
        let encoded = encode(&ConnectorMessage::Tuple(tuple));
        let cut = ((encoded.len() as f64) * frac) as usize;
        if cut < encoded.len() {
            prop_assert!(decode(&encoded[..cut]).is_err());
        }
    }
}
