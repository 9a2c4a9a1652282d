//! Binary codec carrying tuples (and stream-control markers) through
//! the pub/sub connectors.
//!
//! The paper's prototype moves raw OT images (8 Mb each) through
//! Kafka between modules; this codec plays the same role for the
//! in-process broker. Everything is little-endian and
//! length-prefixed, written and read through the `put_*` functions and
//! the `Reader` of `strata_chaos::frame` (reached via
//! [`strata_pubsub::wire`]); images serialize as raw pixel buffers.

use std::sync::Arc;

use strata_amsim::OtImage;
use strata_pubsub::wire::{
    put_f64, put_str16, put_str32, put_u16, put_u32, put_u64, put_u8, Reader,
};
use strata_spe::Timestamp;

use crate::error::{Error, Result};
use crate::tuple::{AmTuple, Metadata, Payload, Value};

const NONE_U32: u32 = u32::MAX;

/// A message crossing a connector topic: a data tuple, an event-time
/// watermark, or the end-of-stream marker. Watermarks must travel
/// through the same ordered channel as the data they describe.
#[derive(Debug, Clone, PartialEq)]
pub enum ConnectorMessage {
    /// A data tuple.
    Tuple(AmTuple),
    /// Event time on this stream has reached the carried timestamp.
    Watermark(Timestamp),
    /// The upstream module finished; no further messages follow.
    End,
}

fn encode_value(buf: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Int(v) => {
            put_u8(buf, 0);
            put_u64(buf, *v as u64);
        }
        Value::Float(v) => {
            put_u8(buf, 1);
            put_f64(buf, *v);
        }
        Value::Bool(v) => {
            put_u8(buf, 2);
            put_u8(buf, u8::from(*v));
        }
        Value::Str(v) => {
            put_u8(buf, 3);
            put_str32(buf, v);
        }
        Value::Bytes(v) => {
            put_u8(buf, 4);
            put_u32(buf, v.len() as u32);
            buf.extend_from_slice(v);
        }
        Value::Image(v) => {
            put_u8(buf, 5);
            put_u32(buf, v.width());
            put_u32(buf, v.height());
            buf.extend_from_slice(v.pixels());
        }
        Value::Rects(v) => {
            put_u8(buf, 6);
            put_u32(buf, v.len() as u32);
            for &(id, x, y, rw, rh) in v.iter() {
                for field in [id, x, y, rw, rh] {
                    put_u32(buf, field);
                }
            }
        }
        Value::Points(v) => {
            put_u8(buf, 7);
            put_u32(buf, v.len() as u32);
            for &(x, y) in v.iter() {
                put_f64(buf, x);
                put_f64(buf, y);
            }
        }
    }
}

/// Decodes one value. A length read from the message bounds a
/// preallocation only up to what the unread bytes can hold, so a
/// corrupt length fails as truncation instead of exhausting memory.
fn decode_value(r: &mut Reader<'_>) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Int(r.u64()? as i64),
        1 => Value::Float(r.f64()?),
        2 => Value::Bool(r.u8()? != 0),
        3 => Value::Str(Arc::from(r.str32()?)),
        4 => {
            let len = r.u32()? as usize;
            Value::Bytes(Arc::from(r.bytes(len)?))
        }
        5 => {
            let w = r.u32()?;
            let h = r.u32()?;
            let pixels = r.bytes(w as usize * h as usize)?;
            Value::Image(Arc::new(OtImage::from_pixels(w, h, pixels.to_vec())))
        }
        6 => {
            let len = r.u32()? as usize;
            let mut rects = Vec::with_capacity(len.min(r.rest().len() / 20));
            for _ in 0..len {
                rects.push((r.u32()?, r.u32()?, r.u32()?, r.u32()?, r.u32()?));
            }
            Value::Rects(Arc::new(rects))
        }
        7 => {
            let len = r.u32()? as usize;
            let mut points = Vec::with_capacity(len.min(r.rest().len() / 16));
            for _ in 0..len {
                points.push((r.f64()?, r.f64()?));
            }
            Value::Points(Arc::new(points))
        }
        other => return Err(Error::Codec(format!("unknown value tag {other}"))),
    })
}

/// Serializes a connector message.
pub fn encode(message: &ConnectorMessage) -> Vec<u8> {
    let mut buf = Vec::new();
    match message {
        ConnectorMessage::Watermark(ts) => {
            put_u8(&mut buf, 1);
            put_u64(&mut buf, ts.as_millis());
        }
        ConnectorMessage::End => put_u8(&mut buf, 2),
        ConnectorMessage::Tuple(tuple) => {
            put_u8(&mut buf, 0);
            let m = tuple.metadata();
            put_u64(&mut buf, m.timestamp.as_millis());
            put_u32(&mut buf, m.job);
            put_u32(&mut buf, m.layer);
            put_u32(&mut buf, m.specimen.unwrap_or(NONE_U32));
            put_u32(&mut buf, m.portion.unwrap_or(NONE_U32));
            put_u64(&mut buf, m.ingest_ns);
            put_u16(&mut buf, tuple.payload().len() as u16);
            for (key, value) in tuple.payload().iter() {
                put_str16(&mut buf, key);
                encode_value(&mut buf, value);
            }
        }
    }
    buf
}

/// Deserializes a connector message.
///
/// # Errors
///
/// [`Error::Codec`] on truncation, unknown tags, or invalid UTF-8.
pub fn decode(data: &[u8]) -> Result<ConnectorMessage> {
    let mut r = Reader::new(data);
    match r.u8()? {
        1 => Ok(ConnectorMessage::Watermark(Timestamp::from_millis(
            r.u64()?,
        ))),
        2 => Ok(ConnectorMessage::End),
        0 => {
            let timestamp = Timestamp::from_millis(r.u64()?);
            let job = r.u32()?;
            let layer = r.u32()?;
            let specimen = match r.u32()? {
                NONE_U32 => None,
                v => Some(v),
            };
            let portion = match r.u32()? {
                NONE_U32 => None,
                v => Some(v),
            };
            let ingest_ns = r.u64()?;
            let count = r.u16()?;
            // Room for `count` entries, bounded by what the unread
            // bytes can hold (an entry takes at least 4: key length,
            // tag, one value byte). `encode` writes keys in order, so
            // each `set` appends.
            let mut payload = Payload::with_capacity(usize::from(count).min(r.rest().len() / 4));
            for _ in 0..count {
                let key = Arc::<str>::from(r.str16()?);
                let value = decode_value(&mut r)?;
                payload.set(key, value);
            }
            Ok(ConnectorMessage::Tuple(AmTuple::from_parts(
                Metadata {
                    timestamp,
                    job,
                    layer,
                    specimen,
                    portion,
                    ingest_ns,
                },
                payload,
            )))
        }
        other => Err(Error::Codec(format!("unknown message tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tuple() -> AmTuple {
        let mut t = AmTuple::new(Timestamp::from_millis(1234), 7, 42)
            .with_specimen(3)
            .with_portion(99);
        t.payload_mut()
            .set_int("count", -5)
            .set_float("mean", 133.25)
            .set_bool("hot", true)
            .set_str("kind", "very_warm")
            .set("blob", Value::Bytes(Arc::from(&b"\x00\x01\x02"[..])))
            .set_image(
                "image",
                Arc::new(OtImage::from_fn(4, 3, |x, y| (x * y) as u8)),
            )
            .set_rects("layout", Arc::new(vec![(0, 1, 2, 3, 4), (1, 5, 6, 7, 8)]))
            .set_points("events", Arc::new(vec![(1.5, -2.5), (0.0, 3.125)]));
        t
    }

    #[test]
    fn tuples_round_trip() {
        let t = sample_tuple();
        let decoded = decode(&encode(&ConnectorMessage::Tuple(t.clone()))).unwrap();
        assert_eq!(decoded, ConnectorMessage::Tuple(t));
    }

    #[test]
    fn control_messages_round_trip() {
        for msg in [
            ConnectorMessage::Watermark(Timestamp::from_millis(987)),
            ConnectorMessage::End,
        ] {
            assert_eq!(decode(&encode(&msg)).unwrap(), msg);
        }
    }

    #[test]
    fn unset_specimen_and_portion_survive() {
        let t = AmTuple::new(Timestamp::from_millis(1), 0, 0);
        let ConnectorMessage::Tuple(decoded) =
            decode(&encode(&ConnectorMessage::Tuple(t))).unwrap()
        else {
            panic!("expected tuple");
        };
        assert_eq!(decoded.metadata().specimen, None);
        assert_eq!(decoded.metadata().portion, None);
    }

    #[test]
    fn truncation_is_detected() {
        let data = encode(&ConnectorMessage::Tuple(sample_tuple()));
        for cut in [1usize, data.len() / 2, data.len() - 1] {
            assert!(
                matches!(decode(&data[..cut]), Err(Error::Codec(_))),
                "cut at {cut}"
            );
        }
    }

    /// A 43-byte tuple record whose one `Rects` value claims
    /// `u32::MAX` elements: decoding must fail as truncated, not try
    /// to preallocate 80 GiB and abort the process.
    #[test]
    fn huge_element_counts_fail_as_truncation() {
        for tag in [6u8, 7] {
            let mut record = vec![0u8];
            record.extend_from_slice(&[0; 8 + 4 + 4]);
            record.extend_from_slice(&NONE_U32.to_le_bytes());
            record.extend_from_slice(&NONE_U32.to_le_bytes());
            record.extend_from_slice(&[0; 8]);
            record.extend_from_slice(&1u16.to_le_bytes());
            record.extend_from_slice(&1u16.to_le_bytes());
            record.push(b'r');
            record.push(tag);
            record.extend_from_slice(&u32::MAX.to_le_bytes());
            assert_eq!(record.len(), 43);
            assert!(matches!(decode(&record), Err(Error::Codec(_))), "tag {tag}");
        }
    }

    /// `encode` writes keys sorted and unique, but `decode` also takes
    /// a message that repeats a key or lists keys out of order: the
    /// payload comes out sorted, the later value wins, and it
    /// re-encodes canonically.
    #[test]
    fn unordered_and_repeated_keys_decode_to_a_sorted_payload() {
        let message = |entries: &[(&str, i64)]| {
            let mut buf = vec![0u8];
            put_u64(&mut buf, 5);
            for field in [1, 2, NONE_U32, NONE_U32] {
                put_u32(&mut buf, field);
            }
            put_u64(&mut buf, 9);
            put_u16(&mut buf, entries.len() as u16);
            for &(key, v) in entries {
                put_str16(&mut buf, key);
                encode_value(&mut buf, &Value::Int(v));
            }
            buf
        };
        let unordered = message(&[("mean", 1), ("cell_mm", 2), ("mean", 3), ("frac", 4)]);
        let canonical = message(&[("cell_mm", 2), ("frac", 4), ("mean", 3)]);

        let ConnectorMessage::Tuple(decoded) = decode(&unordered).unwrap() else {
            panic!("expected tuple");
        };
        let mut expected = Payload::new();
        expected
            .set_int("cell_mm", 2)
            .set_int("frac", 4)
            .set_int("mean", 3);
        assert_eq!(decoded.payload(), &expected);
        assert_eq!(encode(&ConnectorMessage::Tuple(decoded)), canonical);
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(matches!(decode(&[9]), Err(Error::Codec(_))));
        assert!(matches!(decode(&[]), Err(Error::Codec(_))));
    }

    /// The exact bytes this codec has always written for
    /// [`golden_messages`]: a tuple carrying every `Value` tag, a
    /// watermark and the end marker, back to back. Decoding and
    /// re-encoding them must be bit identical, which pins every tag
    /// and field layout.
    const GOLDEN_MESSAGES: &[u8] = &[
        0x00, 0x7b, 0xf4, 0xa9, 0x2b, 0x80, 0x01, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x11, 0x00,
        0x00, 0x00, 0x2a, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xb1, 0x68, 0xde, 0x3a, 0x00,
        0x00, 0x00, 0x00, 0x08, 0x00, 0x04, 0x00, 0x62, 0x6c, 0x6f, 0x62, 0x04, 0x03, 0x00, 0x00,
        0x00, 0x00, 0x01, 0x02, 0x05, 0x00, 0x63, 0x6f, 0x75, 0x6e, 0x74, 0x00, 0xfb, 0xff, 0xff,
        0xff, 0xff, 0xff, 0xff, 0xff, 0x06, 0x00, 0x65, 0x76, 0x65, 0x6e, 0x74, 0x73, 0x07, 0x02,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x04, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x09, 0x40, 0x03, 0x00, 0x68, 0x6f, 0x74, 0x02, 0x01, 0x05, 0x00, 0x69,
        0x6d, 0x61, 0x67, 0x65, 0x05, 0x04, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x10,
        0x20, 0x30, 0x01, 0x11, 0x21, 0x31, 0x02, 0x12, 0x22, 0x32, 0x04, 0x00, 0x6b, 0x69, 0x6e,
        0x64, 0x03, 0x09, 0x00, 0x00, 0x00, 0x76, 0x65, 0x72, 0x79, 0x5f, 0x77, 0x61, 0x72, 0x6d,
        0x06, 0x00, 0x6c, 0x61, 0x79, 0x6f, 0x75, 0x74, 0x06, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x04,
        0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,
        0x07, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x04, 0x00, 0x6d, 0x65, 0x61, 0x6e, 0x01,
        0x00, 0x00, 0x00, 0x00, 0x00, 0xa8, 0x60, 0x40, 0x01, 0xf4, 0xf5, 0xa9, 0x2b, 0x80, 0x01,
        0x00, 0x00, 0x02,
    ];

    fn golden_messages() -> [ConnectorMessage; 3] {
        let mut payload = Payload::new();
        payload
            .set_int("count", -5)
            .set_float("mean", 133.25)
            .set_bool("hot", true)
            .set_str("kind", "very_warm")
            .set("blob", Value::Bytes(Arc::from(&b"\x00\x01\x02"[..])))
            .set_image(
                "image",
                Arc::new(OtImage::from_fn(4, 3, |x, y| (x * 16 + y) as u8)),
            )
            .set_rects("layout", Arc::new(vec![(0, 1, 2, 3, 4), (1, 5, 6, 7, 8)]))
            .set_points("events", Arc::new(vec![(1.5, -2.5), (0.0, 3.125)]));
        let metadata = Metadata {
            timestamp: Timestamp::from_millis(1_650_000_000_123),
            job: 7,
            layer: 17,
            specimen: Some(42),
            portion: None,
            ingest_ns: 987_654_321,
        };
        [
            ConnectorMessage::Tuple(AmTuple::from_parts(metadata, payload)),
            ConnectorMessage::Watermark(Timestamp::from_millis(1_650_000_000_500)),
            ConnectorMessage::End,
        ]
    }

    #[test]
    fn golden_messages_decode_and_reencode_bit_identically() {
        let mut rest = GOLDEN_MESSAGES;
        let mut reencoded = Vec::new();
        for (expected, len) in golden_messages().into_iter().zip([233, 9, 1]) {
            let decoded = decode(&rest[..len]).unwrap();
            assert_eq!(decoded, expected);
            reencoded.extend(encode(&decoded));
            rest = &rest[len..];
        }
        assert!(rest.is_empty());
        assert_eq!(reencoded, GOLDEN_MESSAGES);
    }
}
