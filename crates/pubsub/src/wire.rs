//! On-disk framing for file-backed partition logs.
//!
//! A segment file is a sequence of [`strata_chaos::frame`] envelopes,
//! each holding one record:
//!
//! ```text
//! body := offset u64 · timestamp u64
//!       · key_len u32 (u32::MAX = none) · key bytes
//!       · value_len u32 · value bytes
//!       · header_count u16 · (name_len u16 · name · value_len u32 · value)*
//! ```
//!
//! The envelope's CRC-32 covers the body only; a frame failing the
//! checksum or the framing invariants is reported as
//! [`FrameError::Corrupt`], one that runs out of bytes as
//! [`FrameError::Incomplete`]. Fields are written with the `put_*`
//! functions of [`strata_chaos::frame`] and read back with its
//! [`Reader`]; this module re-exports them, with [`FrameError`], for
//! the crates above `strata-pubsub` (the tuple codec, `strata-net`).

use bytes::Bytes;

use strata_chaos::frame;
pub use strata_chaos::frame::{
    put_f64, put_str16, put_str32, put_u16, put_u32, put_u64, put_u8, FrameError, Reader,
};

use crate::record::{Record, StoredRecord};

/// Marker for "no key" in the key-length field.
const NO_KEY: u32 = u32::MAX;

/// Encodes one stored record into a framed byte buffer (appended to
/// `buf`). Returns the number of bytes written.
pub fn encode_frame(stored: &StoredRecord, buf: &mut Vec<u8>) -> usize {
    frame::encode(buf, |buf| {
        put_u64(buf, stored.offset);
        put_u64(buf, stored.record.timestamp_millis);
        match &stored.record.key {
            Some(key) => {
                put_u32(buf, key.len() as u32);
                buf.extend_from_slice(key);
            }
            None => put_u32(buf, NO_KEY),
        }
        put_u32(buf, stored.record.value.len() as u32);
        buf.extend_from_slice(&stored.record.value);
        put_u16(buf, stored.record.headers.len() as u16);
        for (name, value) in &stored.record.headers {
            put_str16(buf, name);
            put_u32(buf, value.len() as u32);
            buf.extend_from_slice(value);
        }
    })
}

/// The number of bytes [`encode_frame`] writes for `stored`, without
/// encoding it.
pub fn frame_len(stored: &StoredRecord) -> usize {
    let record = &stored.record;
    let headers: usize = record
        .headers
        .iter()
        .map(|(name, value)| 2 + name.len() + 4 + value.len())
        .sum();
    let key = record.key.as_ref().map_or(0, |key| key.len());
    // envelope · offset · timestamp · key_len · key · value_len · value
    // · header_count · headers
    frame::OVERHEAD + 8 + 8 + 4 + key + 4 + record.value.len() + 2 + headers
}

/// Decodes one frame from the front of `data`.
///
/// Returns the record and the total number of bytes the frame
/// occupied, so callers can advance through a segment.
///
/// # Errors
///
/// [`FrameError::Incomplete`] when `data` ends inside the frame;
/// [`FrameError::Corrupt`] on a checksum mismatch, a malformed body, or
/// invalid UTF-8 in a header name.
pub fn decode_frame(data: &[u8]) -> Result<(StoredRecord, usize), FrameError> {
    let (body, used) = frame::split(data)?;
    let mut r = Reader::new(body);
    let offset = r.u64()?;
    let timestamp_millis = r.u64()?;
    let key_len = r.u32()?;
    let key = if key_len == NO_KEY {
        None
    } else {
        Some(Bytes::copy_from_slice(r.bytes(key_len as usize)?))
    };
    let value_len = r.u32()? as usize;
    let value = Bytes::copy_from_slice(r.bytes(value_len)?);
    let header_count = r.u16()?;
    let mut headers = Vec::with_capacity(header_count as usize);
    for _ in 0..header_count {
        let name = r.str16()?.to_string();
        let hval_len = r.u32()? as usize;
        let hval = Bytes::copy_from_slice(r.bytes(hval_len)?);
        headers.push((name, hval));
    }
    r.finish()?;
    Ok((
        StoredRecord {
            offset,
            record: Record {
                key,
                value,
                timestamp_millis,
                headers,
            },
        },
        used,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(offset: u64) -> StoredRecord {
        StoredRecord {
            offset,
            record: Record::new(Some("job-7"), vec![1u8, 2, 3])
                .with_timestamp(123)
                .with_header("layer", vec![9u8]),
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        let written = encode_frame(&sample(42), &mut buf);
        assert_eq!(written, buf.len());
        let (decoded, consumed) = decode_frame(&buf).unwrap();
        assert_eq!(consumed, written);
        assert_eq!(decoded, sample(42));
    }

    #[test]
    fn frame_len_predicts_the_encoded_size() {
        let keyless = StoredRecord {
            offset: 3,
            record: Record::new(None::<Bytes>, "payload"),
        };
        for stored in [sample(42), keyless] {
            let mut buf = Vec::new();
            assert_eq!(frame_len(&stored), encode_frame(&stored, &mut buf));
        }
    }

    #[test]
    fn keyless_frames_round_trip() {
        let stored = StoredRecord {
            offset: 0,
            record: Record::new(None::<Bytes>, "payload"),
        };
        let mut buf = Vec::new();
        encode_frame(&stored, &mut buf);
        let (decoded, _) = decode_frame(&buf).unwrap();
        assert!(decoded.record.key.is_none());
    }

    #[test]
    fn consecutive_frames_decode_in_sequence() {
        let mut buf = Vec::new();
        encode_frame(&sample(1), &mut buf);
        encode_frame(&sample(2), &mut buf);
        let (first, used) = decode_frame(&buf).unwrap();
        let (second, _) = decode_frame(&buf[used..]).unwrap();
        assert_eq!(first.offset, 1);
        assert_eq!(second.offset, 2);
    }

    #[test]
    fn bit_flips_are_detected() {
        let mut buf = Vec::new();
        encode_frame(&sample(1), &mut buf);
        let mid = buf.len() / 2;
        buf[mid] ^= 0x01;
        assert!(matches!(decode_frame(&buf), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        encode_frame(&sample(1), &mut buf);
        buf.truncate(buf.len() - 3);
        assert_eq!(decode_frame(&buf), Err(FrameError::Incomplete));
    }

    /// The exact bytes this segment format has always written for
    /// [`golden_record`]. Decoding and re-encoding them must be bit
    /// identical, which pins the frame layout and its CRC-32.
    const GOLDEN_FRAME: &[u8] = &[
        0x72, 0x00, 0x00, 0x00, 0x92, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x7b, 0xf4, 0xa9,
        0x2b, 0x80, 0x01, 0x00, 0x00, 0x0e, 0x00, 0x00, 0x00, 0x6a, 0x6f, 0x62, 0x2d, 0x37, 0x2f,
        0x6c, 0x61, 0x79, 0x65, 0x72, 0x2d, 0x31, 0x37, 0x35, 0x00, 0x00, 0x00, 0x00, 0x25, 0x4a,
        0x6f, 0x94, 0xb9, 0xde, 0x03, 0x28, 0x4d, 0x72, 0x97, 0xbc, 0xe1, 0x06, 0x2b, 0x50, 0x75,
        0x9a, 0xbf, 0xe4, 0x09, 0x2e, 0x53, 0x78, 0x9d, 0xc2, 0xe7, 0x0c, 0x31, 0x56, 0x7b, 0xa0,
        0xc5, 0xea, 0x0f, 0x34, 0x59, 0x7e, 0xa3, 0xc8, 0xed, 0x12, 0x37, 0x5c, 0x81, 0xa6, 0xcb,
        0xf0, 0x15, 0x3a, 0x5f, 0x84, 0x01, 0x00, 0x07, 0x00, 0x6d, 0x61, 0x63, 0x68, 0x69, 0x6e,
        0x65, 0x08, 0x00, 0x00, 0x00, 0x65, 0x6f, 0x73, 0x2d, 0x6d, 0x32, 0x39, 0x30, 0x57, 0x2e,
        0xd2, 0xfa,
    ];

    fn golden_record() -> StoredRecord {
        StoredRecord {
            offset: 4242,
            record: Record::new(
                Some("job-7/layer-17"),
                (0..53u32).map(|i| (i * 37) as u8).collect::<Vec<u8>>(),
            )
            .with_timestamp(1_650_000_000_123)
            .with_header("machine", "eos-m290"),
        }
    }

    #[test]
    fn golden_frame_decodes_and_reencodes_bit_identically() {
        let (decoded, consumed) = decode_frame(GOLDEN_FRAME).unwrap();
        assert_eq!(consumed, GOLDEN_FRAME.len());
        assert_eq!(decoded, golden_record());
        let mut buf = Vec::new();
        encode_frame(&decoded, &mut buf);
        assert_eq!(buf, GOLDEN_FRAME);
    }
}
