//! Binary codec carrying tuples (and stream-control markers) through
//! the pub/sub connectors.
//!
//! The paper's prototype moves raw OT images (8 Mb each) through
//! Kafka between modules; this codec plays the same role for the
//! in-process broker. Everything is little-endian and
//! length-prefixed; images serialize as raw pixel buffers.

use std::sync::Arc;

use strata_amsim::OtImage;
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

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.data.len() - self.pos < n {
            return Err(Error::Codec(format!(
                "truncated message: wanted {n} bytes at {}, have {}",
                self.pos,
                self.data.len() - self.pos
            )));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Bytes left to read. A length read from the message bounds a
    /// preallocation only up to what these bytes can hold, so a corrupt
    /// length fails as truncation instead of exhausting memory.
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
}

fn encode_value(w: &mut Writer, value: &Value) {
    match value {
        Value::Int(v) => {
            w.u8(0);
            w.u64(*v as u64);
        }
        Value::Float(v) => {
            w.u8(1);
            w.f64(*v);
        }
        Value::Bool(v) => {
            w.u8(2);
            w.u8(u8::from(*v));
        }
        Value::Str(v) => {
            w.u8(3);
            w.u32(v.len() as u32);
            w.bytes(v.as_bytes());
        }
        Value::Bytes(v) => {
            w.u8(4);
            w.u32(v.len() as u32);
            w.bytes(v);
        }
        Value::Image(v) => {
            w.u8(5);
            w.u32(v.width());
            w.u32(v.height());
            w.bytes(v.pixels());
        }
        Value::Rects(v) => {
            w.u8(6);
            w.u32(v.len() as u32);
            for &(id, x, y, rw, rh) in v.iter() {
                w.u32(id);
                w.u32(x);
                w.u32(y);
                w.u32(rw);
                w.u32(rh);
            }
        }
        Value::Points(v) => {
            w.u8(7);
            w.u32(v.len() as u32);
            for &(x, y) in v.iter() {
                w.f64(x);
                w.f64(y);
            }
        }
    }
}

fn decode_value(r: &mut Reader<'_>) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Int(r.u64()? as i64),
        1 => Value::Float(r.f64()?),
        2 => Value::Bool(r.u8()? != 0),
        3 => {
            let len = r.u32()? as usize;
            let s = std::str::from_utf8(r.take(len)?)
                .map_err(|_| Error::Codec("string value is not utf-8".into()))?;
            Value::Str(Arc::from(s))
        }
        4 => {
            let len = r.u32()? as usize;
            Value::Bytes(Arc::from(r.take(len)?))
        }
        5 => {
            let w = r.u32()?;
            let h = r.u32()?;
            let pixels = r.take(w as usize * h as usize)?;
            Value::Image(Arc::new(OtImage::from_pixels(w, h, pixels.to_vec())))
        }
        6 => {
            let len = r.u32()? as usize;
            let mut rects = Vec::with_capacity(len.min(r.remaining() / 20));
            for _ in 0..len {
                rects.push((r.u32()?, r.u32()?, r.u32()?, r.u32()?, r.u32()?));
            }
            Value::Rects(Arc::new(rects))
        }
        7 => {
            let len = r.u32()? as usize;
            let mut points = Vec::with_capacity(len.min(r.remaining() / 16));
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
    let mut w = Writer::new();
    match message {
        ConnectorMessage::Watermark(ts) => {
            w.u8(1);
            w.u64(ts.as_millis());
        }
        ConnectorMessage::End => w.u8(2),
        ConnectorMessage::Tuple(tuple) => {
            w.u8(0);
            let m = tuple.metadata();
            w.u64(m.timestamp.as_millis());
            w.u32(m.job);
            w.u32(m.layer);
            w.u32(m.specimen.unwrap_or(NONE_U32));
            w.u32(m.portion.unwrap_or(NONE_U32));
            w.u64(m.ingest_ns);
            w.u16(tuple.payload().len() as u16);
            for (key, value) in tuple.payload().iter() {
                w.u16(key.len() as u16);
                w.bytes(key.as_bytes());
                encode_value(&mut w, value);
            }
        }
    }
    w.buf
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
            let mut payload = Payload::new();
            for _ in 0..count {
                let key_len = r.u16()? as usize;
                let key = std::str::from_utf8(r.take(key_len)?)
                    .map_err(|_| Error::Codec("payload key is not utf-8".into()))?
                    .to_string();
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

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(matches!(decode(&[9]), Err(Error::Codec(_))));
        assert!(matches!(decode(&[]), Err(Error::Codec(_))));
    }
}
