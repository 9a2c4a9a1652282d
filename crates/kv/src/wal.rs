//! The write-ahead log's frame layout: the [`EntryCodec`] of the
//! store's [`LogMap`](strata_chaos::frame::LogMap).
//!
//! Frames (little-endian), each ending in a CRC-32 over every earlier
//! byte of the frame:
//!
//! ```text
//! put     1 · key_len u32 · key · value_len u32 · value · crc32 u32
//! delete  0 · key_len u32 · key                         · crc32 u32
//! batch   2 · count u32 · count × (a put or delete without its crc)
//!                                                       · crc32 u32
//! ```
//!
//! A batch is one frame, so a crash keeps all of it or none. Fields
//! are written with the `put_*` functions of [`strata_chaos::frame`]
//! and the CRC by [`frame::seal`]. Replay reads each length with
//! [`frame::u32_at`], because a frame that ends early is a torn tail
//! ([`FrameError::Incomplete`]), not damage.

use strata_chaos::frame::{self, put_u32, put_u8, EntryCodec, FrameError};

const TAG_DELETE: u8 = 0;
const TAG_PUT: u8 = 1;
const TAG_BATCH: u8 = 2;

type Op = (Vec<u8>, Option<Vec<u8>>);

/// The WAL's frames, from and to `(key, Some(value))` puts and
/// `(key, None)` deletes.
#[derive(Debug)]
pub(crate) struct Wal;

impl EntryCodec for Wal {
    type Key = Vec<u8>;
    type Value = Vec<u8>;

    fn encode(buf: &mut Vec<u8>, ops: &[(&Vec<u8>, Option<&Vec<u8>>)]) {
        let start = buf.len();
        if let [(key, value)] = ops {
            put_op(buf, key, *value);
        } else {
            put_u8(buf, TAG_BATCH);
            put_u32(buf, ops.len() as u32);
            for (key, value) in ops {
                put_op(buf, key, *value);
            }
        }
        frame::seal(buf, start);
    }

    fn decode(data: &[u8], ops: &mut Vec<Op>) -> Result<usize, FrameError> {
        let end = if data[0] == TAG_BATCH {
            let mut pos = 5;
            for _ in 0..frame::u32_at(data, 1)? {
                let (op, next) = op_at(data, pos)?;
                ops.push(op);
                pos = next;
            }
            pos
        } else {
            let (op, end) = op_at(data, 0)?;
            ops.push(op);
            end
        };
        frame::verify(&data[..end], frame::u32_at(data, end)?)?;
        Ok(end + 4)
    }

    fn len(key: &Vec<u8>, value: &Vec<u8>) -> usize {
        1 + 4 + key.len() + 4 + value.len() + 4
    }
}

fn put_op(buf: &mut Vec<u8>, key: &[u8], value: Option<&Vec<u8>>) {
    put_u8(buf, if value.is_some() { TAG_PUT } else { TAG_DELETE });
    put_u32(buf, key.len() as u32);
    buf.extend_from_slice(key);
    if let Some(value) = value {
        put_u32(buf, value.len() as u32);
        buf.extend_from_slice(value);
    }
}

/// The put or delete at `pos` (crc not included) and where it ends.
fn op_at(data: &[u8], pos: usize) -> Result<(Op, usize), FrameError> {
    let tag = *data.get(pos).ok_or(FrameError::Incomplete)?;
    let key = bytes_at(data, pos + 5, frame::u32_at(data, pos + 1)?)?;
    let end = pos + 5 + key.len();
    match tag {
        TAG_DELETE => Ok(((key.to_vec(), None), end)),
        TAG_PUT => {
            let value = bytes_at(data, end + 4, frame::u32_at(data, end)?)?;
            Ok(((key.to_vec(), Some(value.to_vec())), end + 4 + value.len()))
        }
        other => Err(FrameError::Corrupt(format!("wal: unknown tag {other}"))),
    }
}

/// The `len` bytes at `at`, or [`FrameError::Incomplete`] when `data`
/// ends first.
fn bytes_at(data: &[u8], at: usize, len: u32) -> Result<&[u8], FrameError> {
    data.get(at..at + len as usize)
        .ok_or(FrameError::Incomplete)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(mut data: &[u8]) -> Result<Vec<Op>, FrameError> {
        let mut ops = Vec::new();
        while !data.is_empty() {
            data = &data[Wal::decode(data, &mut ops)?..];
        }
        Ok(ops)
    }

    fn put(key: &[u8], value: &[u8]) -> Op {
        (key.to_vec(), Some(value.to_vec()))
    }

    fn encode(ops: &[Op]) -> Vec<u8> {
        let refs: Vec<_> = ops.iter().map(|(k, v)| (k, v.as_ref())).collect();
        let mut buf = Vec::new();
        Wal::encode(&mut buf, &refs);
        buf
    }

    #[test]
    fn a_batch_is_one_frame_that_decodes_whole_or_not_at_all() {
        let ops = vec![put(b"a", b"1"), (b"b".to_vec(), None), put(b"c", b"333")];
        let frame = encode(&ops);
        assert_eq!(frame[0], TAG_BATCH);
        assert_eq!(decode_all(&frame), Ok(ops));
        for cut in 0..frame.len() {
            let mut partial = Vec::new();
            assert_eq!(
                Wal::decode(&frame[..cut.max(1)], &mut partial),
                Err(FrameError::Incomplete),
                "cut {cut}"
            );
        }
        let mut flipped = frame;
        *flipped.last_mut().unwrap() ^= 0x01;
        assert!(matches!(decode_all(&flipped), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn len_is_the_length_of_a_single_put_frame() {
        let op = put(b"threshold/low", b"1200");
        assert_eq!(
            encode(std::slice::from_ref(&op)).len(),
            Wal::len(&op.0, op.1.as_ref().unwrap())
        );
    }

    /// The exact bytes this WAL format has always written for a fixed
    /// put and delete. Decoding them and encoding the decoded
    /// operations again must reproduce them bit for bit, which pins
    /// the frame layout and its CRC-32.
    const GOLDEN_WAL: &[u8] = &[
        0x01, 0x0d, 0x00, 0x00, 0x00, 0x73, 0x70, 0x65, 0x63, 0x69, 0x6d, 0x65, 0x6e, 0x2f, 0x30,
        0x30, 0x34, 0x32, 0x27, 0x00, 0x00, 0x00, 0x6c, 0x61, 0x79, 0x65, 0x72, 0x20, 0x31, 0x37,
        0x3a, 0x20, 0x33, 0x39, 0x20, 0x63, 0x65, 0x6c, 0x6c, 0x73, 0x20, 0x68, 0x6f, 0x74, 0x2c,
        0x20, 0x30, 0x2e, 0x30, 0x31, 0x32, 0x35, 0x20, 0x6d, 0x6d, 0x20, 0x70, 0x69, 0x74, 0x63,
        0x68, 0xf8, 0x4c, 0xea, 0x34, 0x00, 0x0d, 0x00, 0x00, 0x00, 0x73, 0x70, 0x65, 0x63, 0x69,
        0x6d, 0x65, 0x6e, 0x2f, 0x30, 0x30, 0x34, 0x31, 0x3c, 0xa1, 0xf9, 0x60,
    ];

    #[test]
    fn golden_frames_decode_and_reencode_bit_identically() {
        let ops = decode_all(GOLDEN_WAL).unwrap();
        assert_eq!(
            ops,
            vec![
                put(b"specimen/0042", b"layer 17: 39 cells hot, 0.0125 mm pitch"),
                (b"specimen/0041".to_vec(), None),
            ]
        );
        let reencoded: Vec<u8> = ops
            .iter()
            .flat_map(|op| encode(std::slice::from_ref(op)))
            .collect();
        assert_eq!(reencoded, GOLDEN_WAL);
    }
}
