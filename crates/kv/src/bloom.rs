//! Bloom filters for SSTable point lookups.
//!
//! A bloom filter lets a point lookup skip an SSTable without
//! touching its blocks when the key is definitely absent. False
//! positives cost one wasted block read; false negatives never
//! happen. Hashing is double hashing over two independent 64-bit
//! FNV-1a variants, the standard Kirsch–Mitzenmacher construction.

use strata_chaos::frame::{put_u32, put_u64, FrameError, Reader};

/// A fixed-size bloom filter over byte-string keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    num_hashes: u32,
}

fn fnv1a(data: &[u8], seed: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &byte in data {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    // Final avalanche (splitmix64 tail) to decorrelate low bits.
    let mut z = hash;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BloomFilter {
    /// Creates a filter sized for `expected_keys` keys at
    /// `bits_per_key` bits each. The hash count is the optimal
    /// `0.69 · bits_per_key`, clamped to `[1, 30]`.
    pub fn new(expected_keys: usize, bits_per_key: u32) -> Self {
        let num_bits = (expected_keys.max(1) as u64 * bits_per_key.max(1) as u64).max(64);
        let num_hashes = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        BloomFilter {
            bits: vec![0; num_bits.div_ceil(64) as usize],
            num_bits,
            num_hashes,
        }
    }

    /// Inserts `key`.
    pub fn insert(&mut self, key: &[u8]) {
        let h1 = fnv1a(key, 0);
        let h2 = fnv1a(key, 0x9E37_79B9_7F4A_7C15) | 1;
        for i in 0..self.num_hashes as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.num_bits;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// `false` means `key` was definitely never inserted; `true`
    /// means it probably was.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let h1 = fnv1a(key, 0);
        let h2 = fnv1a(key, 0x9E37_79B9_7F4A_7C15) | 1;
        for i in 0..self.num_hashes as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.num_bits;
            if self.bits[(bit / 64) as usize] & (1 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Serializes the filter for an SSTable's bloom block.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.bits.len() * 8);
        put_u64(&mut out, self.num_bits);
        put_u32(&mut out, self.num_hashes);
        for &word in &self.bits {
            put_u64(&mut out, word);
        }
        out
    }

    /// Deserializes a filter written by
    /// [`to_bytes`](BloomFilter::to_bytes).
    ///
    /// # Errors
    ///
    /// [`FrameError::Corrupt`] on truncated or inconsistent data, or a
    /// header [`new`](BloomFilter::new) never writes: no bits, or a
    /// hash count outside `1..=30`.
    pub fn from_bytes(data: &[u8]) -> Result<Self, FrameError> {
        let mut r = Reader::new(data);
        let num_bits = r.u64()?;
        let num_hashes = r.u32()?;
        if num_bits == 0 || !(1..=30).contains(&num_hashes) {
            return Err(FrameError::Corrupt(format!(
                "bloom header: {num_bits} bits, {num_hashes} hashes"
            )));
        }
        let bits = (0..num_bits.div_ceil(64))
            .map(|_| r.u64())
            .collect::<Result<_, _>>()?;
        r.finish()?;
        Ok(BloomFilter {
            bits,
            num_bits,
            num_hashes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bloom = BloomFilter::new(1_000, 10);
        for i in 0..1_000u32 {
            bloom.insert(&i.to_le_bytes());
        }
        for i in 0..1_000u32 {
            assert!(bloom.may_contain(&i.to_le_bytes()), "key {i}");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut bloom = BloomFilter::new(10_000, 10);
        for i in 0..10_000u32 {
            bloom.insert(&i.to_le_bytes());
        }
        let false_positives = (10_000..110_000u32)
            .filter(|i| bloom.may_contain(&i.to_le_bytes()))
            .count();
        // Theoretical rate at 10 bits/key ≈ 1%; allow generous slack.
        let rate = false_positives as f64 / 100_000.0;
        assert!(rate < 0.03, "false positive rate {rate}");
    }

    #[test]
    fn serialization_round_trips() {
        let mut bloom = BloomFilter::new(100, 8);
        for w in [&b"alpha"[..], b"beta", b"gamma"] {
            bloom.insert(w);
        }
        let restored = BloomFilter::from_bytes(&bloom.to_bytes()).unwrap();
        assert_eq!(restored, bloom);
        assert!(restored.may_contain(b"alpha"));
        // "delta" was never inserted; may_contain may still say true
        // (false positive), so only the no-false-negative direction is
        // asserted above.
    }

    #[test]
    fn rejects_corrupt_bytes() {
        assert!(BloomFilter::from_bytes(&[1, 2, 3]).is_err());
        let mut good = BloomFilter::new(10, 8).to_bytes();
        good.pop();
        assert!(BloomFilter::from_bytes(&good).is_err());
    }

    /// A header without bits would make every lookup divide by zero,
    /// and a hash count `new` never writes is damage too.
    #[test]
    fn rejects_impossible_headers() {
        let mut bytes = BloomFilter::new(10, 8).to_bytes();
        bytes[..8].fill(0);
        bytes.truncate(12);
        assert!(BloomFilter::from_bytes(&bytes).is_err(), "num_bits 0");
        for num_hashes in [0u32, 31] {
            let mut bytes = BloomFilter::new(10, 8).to_bytes();
            bytes[8..12].copy_from_slice(&num_hashes.to_le_bytes());
            assert!(BloomFilter::from_bytes(&bytes).is_err(), "{num_hashes}");
        }
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let bloom = BloomFilter::new(100, 10);
        let misses = (0..1000u32)
            .filter(|i| bloom.may_contain(&i.to_le_bytes()))
            .count();
        assert_eq!(misses, 0);
    }
}
