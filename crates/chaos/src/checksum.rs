//! The workspace's one CRC-32, the checksum behind every framed byte.
//!
//! A torn or short write from [`ChaosFile`](crate::ChaosFile) — or a
//! real crash — leaves a frame whose bytes no longer match its stored
//! checksum; that mismatch is how the readers find the valid prefix.
//! The kv WAL and SSTable blocks, the pub/sub segment and offset
//! frames and the `strata-net` frame codec all call [`crc32`], so one
//! algorithm covers a record's bytes at rest and in flight.

/// Reflected IEEE 802.3 polynomial (zlib, PNG, Ethernet).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table. `TABLES[k][b]` is
/// the CRC contribution of byte `b` followed by `k` zero bytes, so
/// eight lookups fold eight input bytes into the register at once.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
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
}

/// Computes the IEEE CRC-32 checksum of `data` (the same value as
/// zlib's `crc32`).
///
/// Slicing-by-8: each step folds eight bytes through eight 1 KiB
/// tables, and the tail of fewer than eight bytes goes byte by byte.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes"));
        let lo = crc ^ word as u32;
        let hi = (word >> 32) as u32;
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time CRC-32, straight from the definition.
    fn reference(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Deterministic, non-repeating test bytes.
    fn buffer(len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9u32;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(reference(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_is_order_sensitive() {
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
    }

    #[test]
    fn every_length_at_every_alignment_matches_the_reference() {
        let data = buffer(256 + 8);
        for start in 0..8 {
            for len in 0..=256 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), reference(slice), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn one_mebibyte_matches_the_reference() {
        let data = buffer(1 << 20);
        assert_eq!(crc32(&data), reference(&data));
    }
}
