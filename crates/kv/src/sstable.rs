//! SSTables: immutable, sorted, block-structured table files.
//!
//! File layout (little-endian):
//!
//! ```text
//! ┌─────────────┬─────────────┬─────────────┬────────────┐
//! │ data blocks │ index block │ bloom block │ footer     │
//! └─────────────┴─────────────┴─────────────┴────────────┘
//! data block  := entry* · crc32          (≈ block_bytes per block)
//! entry       := key_len u32 · key · tag u8 (1 = value, 0 = tombstone)
//!                · [value_len u32 · value]
//! index block := count u32 · (first_key_len u32 · first_key
//!                · offset u64 · len u32 · entries u32)* · crc32
//! footer      := index_off u64 · index_len u64
//!                · bloom_off u64 · bloom_len u64
//!                · entry_count u64 · magic u64
//! ```
//!
//! Entries must be added in strictly increasing key order; blocks are
//! CRC-protected; point lookups go through the bloom filter, a binary
//! search over the sparse index, and a scan of one block.

use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use strata_chaos::{crc32, ChaosFile};

use crate::bloom::BloomFilter;
use crate::error::{Error, Result};

const MAGIC: u64 = 0x5354_5241_5441_4B56; // "STRATAKV"
const FOOTER_LEN: usize = 48;

/// One sparse-index entry describing a data block.
#[derive(Debug, Clone)]
struct BlockMeta {
    first_key: Vec<u8>,
    offset: u64,
    len: u32,
    entries: u32,
}

/// Streams sorted entries into a new SSTable file.
#[derive(Debug)]
pub struct SsTableWriter {
    path: PathBuf,
    file: ChaosFile,
    block_bytes: usize,
    block: Vec<u8>,
    block_first_key: Option<Vec<u8>>,
    block_entries: u32,
    last_key: Option<Vec<u8>>,
    index: Vec<BlockMeta>,
    bloom: Option<BloomFilter>,
    offset: u64,
    entry_count: u64,
}

impl SsTableWriter {
    /// Creates a writer for a new table at `path`.
    ///
    /// `expected_keys` sizes the bloom filter; `bloom_bits_per_key`
    /// of 0 disables it.
    ///
    /// # Errors
    ///
    /// I/O failures creating the file.
    pub fn create(
        path: impl Into<PathBuf>,
        block_bytes: usize,
        expected_keys: usize,
        bloom_bits_per_key: u32,
    ) -> Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        // Failpoints: `kv.sst.write` / `kv.sst.sync`.
        let file = ChaosFile::new("kv.sst", &path, fs::File::create(&path)?)?;
        Ok(SsTableWriter {
            path,
            file,
            block_bytes: block_bytes.max(64),
            block: Vec::new(),
            block_first_key: None,
            block_entries: 0,
            last_key: None,
            index: Vec::new(),
            bloom: (bloom_bits_per_key > 0)
                .then(|| BloomFilter::new(expected_keys, bloom_bits_per_key)),
            offset: 0,
            entry_count: 0,
        })
    }

    /// Appends one entry; `None` records a tombstone. Keys must be
    /// strictly increasing.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] on out-of-order keys; I/O failures.
    pub fn add(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        if let Some(last) = &self.last_key {
            if key <= last.as_slice() {
                return Err(Error::InvalidConfig(
                    "sstable entries must be added in strictly increasing key order".into(),
                ));
            }
        }
        self.last_key = Some(key.to_vec());
        if self.block_first_key.is_none() {
            self.block_first_key = Some(key.to_vec());
        }
        self.block
            .extend_from_slice(&(key.len() as u32).to_le_bytes());
        self.block.extend_from_slice(key);
        match value {
            Some(value) => {
                self.block.push(1);
                self.block
                    .extend_from_slice(&(value.len() as u32).to_le_bytes());
                self.block.extend_from_slice(value);
            }
            None => self.block.push(0),
        }
        self.block_entries += 1;
        self.entry_count += 1;
        if let Some(bloom) = &mut self.bloom {
            bloom.insert(key);
        }
        if self.block.len() >= self.block_bytes {
            self.finish_block()?;
        }
        Ok(())
    }

    fn finish_block(&mut self) -> Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let crc = crc32(&self.block);
        self.block.extend_from_slice(&crc.to_le_bytes());
        self.file.write_all(&self.block)?;
        self.index.push(BlockMeta {
            first_key: self.block_first_key.take().expect("non-empty block"),
            offset: self.offset,
            len: self.block.len() as u32,
            entries: self.block_entries,
        });
        self.offset += self.block.len() as u64;
        self.block.clear();
        self.block_entries = 0;
        Ok(())
    }

    /// Finishes the table: writes the index, bloom filter and footer,
    /// flushes, and returns a reader over the new file.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn finish(mut self) -> Result<SsTable> {
        self.finish_block()?;
        // Index block.
        let mut index_block = Vec::new();
        index_block.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for meta in &self.index {
            index_block.extend_from_slice(&(meta.first_key.len() as u32).to_le_bytes());
            index_block.extend_from_slice(&meta.first_key);
            index_block.extend_from_slice(&meta.offset.to_le_bytes());
            index_block.extend_from_slice(&meta.len.to_le_bytes());
            index_block.extend_from_slice(&meta.entries.to_le_bytes());
        }
        let crc = crc32(&index_block);
        index_block.extend_from_slice(&crc.to_le_bytes());
        let index_off = self.offset;
        self.file.write_all(&index_block)?;

        // Bloom block.
        let bloom_bytes = self.bloom.as_ref().map(BloomFilter::to_bytes);
        let bloom_off = index_off + index_block.len() as u64;
        let bloom_len = bloom_bytes.as_ref().map_or(0, Vec::len) as u64;
        if let Some(bytes) = &bloom_bytes {
            self.file.write_all(bytes)?;
        }

        // Footer.
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        footer.extend_from_slice(&index_off.to_le_bytes());
        footer.extend_from_slice(&(index_block.len() as u64).to_le_bytes());
        footer.extend_from_slice(&bloom_off.to_le_bytes());
        footer.extend_from_slice(&bloom_len.to_le_bytes());
        footer.extend_from_slice(&self.entry_count.to_le_bytes());
        footer.extend_from_slice(&MAGIC.to_le_bytes());
        self.file.write_all(&footer)?;
        self.file.sync_all()?;
        drop(self.file);
        SsTable::open(&self.path)
    }
}

/// An open, immutable SSTable: in-memory index and bloom filter, data
/// blocks read on demand.
pub struct SsTable {
    path: PathBuf,
    file: Mutex<fs::File>,
    index: Vec<BlockMeta>,
    bloom: Option<BloomFilter>,
    entry_count: u64,
}

impl std::fmt::Debug for SsTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsTable")
            .field("path", &self.path)
            .field("blocks", &self.index.len())
            .field("entries", &self.entry_count)
            .finish()
    }
}

impl SsTable {
    /// Opens the table at `path`, loading its index and bloom filter.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] on bad magic, checksum failures, or framing
    /// errors; I/O failures.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let mut file = fs::File::open(&path)?;
        let file_len = file.metadata()?.len();
        if file_len < FOOTER_LEN as u64 {
            return Err(Error::Corrupt(format!("{path:?}: too short")));
        }
        file.seek(SeekFrom::End(-(FOOTER_LEN as i64)))?;
        let mut footer = [0u8; FOOTER_LEN];
        file.read_exact(&mut footer)?;
        let u64_at = |i: usize| u64::from_le_bytes(footer[i..i + 8].try_into().expect("len 8"));
        if u64_at(40) != MAGIC {
            return Err(Error::Corrupt(format!("{path:?}: bad magic")));
        }
        let (index_off, index_len) = (u64_at(0), u64_at(8));
        let (bloom_off, bloom_len) = (u64_at(16), u64_at(24));
        let entry_count = u64_at(32);

        // Index block.
        file.seek(SeekFrom::Start(index_off))?;
        let mut index_block = vec![0u8; index_len as usize];
        file.read_exact(&mut index_block)?;
        if index_block.len() < 8 {
            return Err(Error::Corrupt(format!("{path:?}: index too short")));
        }
        let (body, crc_bytes) = index_block.split_at(index_block.len() - 4);
        let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("len 4"));
        if stored_crc != crc32(body) {
            return Err(Error::Corrupt(format!("{path:?}: index crc mismatch")));
        }
        let mut index = Vec::new();
        let count = u32::from_le_bytes(body[0..4].try_into().expect("len 4")) as usize;
        let mut pos = 4usize;
        for _ in 0..count {
            let need = |pos: usize, n: usize| -> Result<()> {
                if body.len() < pos + n {
                    Err(Error::Corrupt(format!("{path:?}: truncated index")))
                } else {
                    Ok(())
                }
            };
            need(pos, 4)?;
            let key_len =
                u32::from_le_bytes(body[pos..pos + 4].try_into().expect("len 4")) as usize;
            pos += 4;
            need(pos, key_len + 16)?;
            let first_key = body[pos..pos + key_len].to_vec();
            pos += key_len;
            let offset = u64::from_le_bytes(body[pos..pos + 8].try_into().expect("len 8"));
            pos += 8;
            let len = u32::from_le_bytes(body[pos..pos + 4].try_into().expect("len 4"));
            pos += 4;
            let entries = u32::from_le_bytes(body[pos..pos + 4].try_into().expect("len 4"));
            pos += 4;
            index.push(BlockMeta {
                first_key,
                offset,
                len,
                entries,
            });
        }

        // Bloom block.
        let bloom = if bloom_len > 0 {
            file.seek(SeekFrom::Start(bloom_off))?;
            let mut bloom_bytes = vec![0u8; bloom_len as usize];
            file.read_exact(&mut bloom_bytes)?;
            Some(BloomFilter::from_bytes(&bloom_bytes)?)
        } else {
            None
        };

        Ok(SsTable {
            path,
            file: Mutex::new(file),
            index,
            bloom,
            entry_count,
        })
    }

    /// The file backing this table.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total number of entries (tombstones included).
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// `true` when a bloom filter is present.
    pub fn has_bloom(&self) -> bool {
        self.bloom.is_some()
    }

    fn read_block(&self, meta: &BlockMeta) -> Result<Vec<u8>> {
        let mut data = vec![0u8; meta.len as usize];
        {
            let mut file = self.file.lock();
            file.seek(SeekFrom::Start(meta.offset))?;
            file.read_exact(&mut data)?;
        }
        if data.len() < 4 {
            return Err(Error::Corrupt(format!("{:?}: block too short", self.path)));
        }
        let (body, crc_bytes) = data.split_at(data.len() - 4);
        let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("len 4"));
        if stored_crc != crc32(body) {
            return Err(Error::Corrupt(format!(
                "{:?}: block crc mismatch",
                self.path
            )));
        }
        data.truncate(data.len() - 4);
        Ok(data)
    }

    #[allow(clippy::type_complexity)]
    fn decode_block(block: &[u8], entries: u32) -> Result<Vec<(Vec<u8>, Option<Vec<u8>>)>> {
        let mut out = Vec::with_capacity(entries as usize);
        let mut pos = 0usize;
        let corrupt = || Error::Corrupt("truncated block entry".into());
        while pos < block.len() {
            if block.len() < pos + 4 {
                return Err(corrupt());
            }
            let key_len =
                u32::from_le_bytes(block[pos..pos + 4].try_into().expect("len 4")) as usize;
            pos += 4;
            if block.len() < pos + key_len + 1 {
                return Err(corrupt());
            }
            let key = block[pos..pos + key_len].to_vec();
            pos += key_len;
            let tag = block[pos];
            pos += 1;
            let value = match tag {
                0 => None,
                1 => {
                    if block.len() < pos + 4 {
                        return Err(corrupt());
                    }
                    let value_len =
                        u32::from_le_bytes(block[pos..pos + 4].try_into().expect("len 4")) as usize;
                    pos += 4;
                    if block.len() < pos + value_len {
                        return Err(corrupt());
                    }
                    let value = block[pos..pos + value_len].to_vec();
                    pos += value_len;
                    Some(value)
                }
                other => {
                    return Err(Error::Corrupt(format!("unknown entry tag {other}")));
                }
            };
            out.push((key, value));
        }
        Ok(out)
    }

    /// Index of the block that may contain `key`, if any.
    fn candidate_block(&self, key: &[u8]) -> Option<usize> {
        if self.index.is_empty() || key < self.index[0].first_key.as_slice() {
            return None;
        }
        // Last block whose first key is ≤ key.
        let i = self
            .index
            .partition_point(|meta| meta.first_key.as_slice() <= key);
        Some(i - 1)
    }

    /// Point lookup.
    ///
    /// * `None` — this table knows nothing about `key`.
    /// * `Some(None)` — the key is tombstoned here.
    /// * `Some(Some(v))` — the stored value.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] or I/O failures.
    pub fn get(&self, key: &[u8]) -> Result<Option<Option<Vec<u8>>>> {
        if let Some(bloom) = &self.bloom {
            if !bloom.may_contain(key) {
                return Ok(None);
            }
        }
        let Some(block_idx) = self.candidate_block(key) else {
            return Ok(None);
        };
        let meta = &self.index[block_idx];
        let block = self.read_block(meta)?;
        let entries = Self::decode_block(&block, meta.entries)?;
        match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
            Ok(i) => Ok(Some(entries[i].1.clone())),
            Err(_) => Ok(None),
        }
    }

    /// All entries with keys in `[start, end)` (tombstones included),
    /// in key order. An empty `end` means "to the end of the table".
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] or I/O failures.
    #[allow(clippy::type_complexity)]
    pub fn range(&self, start: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Option<Vec<u8>>)>> {
        let mut out = Vec::new();
        let first_block = self.candidate_block(start).unwrap_or(0);
        for meta in &self.index[first_block..] {
            if !end.is_empty() && meta.first_key.as_slice() >= end {
                break;
            }
            let block = self.read_block(meta)?;
            for (key, value) in Self::decode_block(&block, meta.entries)? {
                if key.as_slice() < start {
                    continue;
                }
                if !end.is_empty() && key.as_slice() >= end {
                    return Ok(out);
                }
                out.push((key, value));
            }
        }
        Ok(out)
    }

    /// All entries in the table (tombstones included), in key order.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] or I/O failures.
    #[allow(clippy::type_complexity)]
    pub fn scan_all(&self) -> Result<Vec<(Vec<u8>, Option<Vec<u8>>)>> {
        self.range(&[], &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("strata-kv-sst-{tag}-{}.sst", std::process::id()))
    }

    fn build_table(tag: &str, n: u32, block_bytes: usize, bloom_bits: u32) -> SsTable {
        let path = temp_path(tag);
        let mut writer = SsTableWriter::create(&path, block_bytes, n as usize, bloom_bits).unwrap();
        for i in 0..n {
            let key = format!("key-{i:06}");
            if i % 10 == 3 {
                writer.add(key.as_bytes(), None).unwrap(); // tombstone
            } else {
                writer
                    .add(key.as_bytes(), Some(format!("value-{i}").as_bytes()))
                    .unwrap();
            }
        }
        writer.finish().unwrap()
    }

    #[test]
    fn point_lookups_hit_values_and_tombstones() {
        let table = build_table("point", 1_000, 256, 10);
        assert_eq!(
            table.get(b"key-000005").unwrap(),
            Some(Some(b"value-5".to_vec()))
        );
        assert_eq!(table.get(b"key-000003").unwrap(), Some(None), "tombstone");
        assert_eq!(table.get(b"key-999999").unwrap(), None);
        assert_eq!(table.get(b"a-before-everything").unwrap(), None);
        assert_eq!(table.entry_count(), 1_000);
        fs::remove_file(table.path()).unwrap();
    }

    #[test]
    fn works_without_bloom_filter() {
        let table = build_table("nobloom", 100, 256, 0);
        assert!(!table.has_bloom());
        assert_eq!(
            table.get(b"key-000001").unwrap(),
            Some(Some(b"value-1".to_vec()))
        );
        assert_eq!(table.get(b"missing").unwrap(), None);
        fs::remove_file(table.path()).unwrap();
    }

    #[test]
    fn range_scans_are_ordered_and_bounded() {
        let table = build_table("range", 500, 128, 10);
        let got = table.range(b"key-000100", b"key-000110").unwrap();
        assert_eq!(got.len(), 10);
        assert_eq!(got[0].0, b"key-000100".to_vec());
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        // Open end.
        let tail = table.range(b"key-000495", b"").unwrap();
        assert_eq!(tail.len(), 5);
        fs::remove_file(table.path()).unwrap();
    }

    #[test]
    fn scan_all_round_trips_every_entry() {
        let table = build_table("scanall", 777, 100, 10);
        let all = table.scan_all().unwrap();
        assert_eq!(all.len(), 777);
        assert_eq!(all.iter().filter(|(_, v)| v.is_none()).count(), 78);
        fs::remove_file(table.path()).unwrap();
    }

    #[test]
    fn rejects_out_of_order_keys() {
        let path = temp_path("order");
        let mut writer = SsTableWriter::create(&path, 256, 10, 10).unwrap();
        writer.add(b"b", Some(b"1")).unwrap();
        assert!(writer.add(b"a", Some(b"2")).is_err());
        assert!(writer.add(b"b", Some(b"2")).is_err(), "duplicates too");
        drop(writer);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn detects_corruption() {
        let table = build_table("corrupt", 100, 128, 10);
        let path = table.path().to_path_buf();
        drop(table);
        let mut data = fs::read(&path).unwrap();
        data[10] ^= 0xFF; // inside the first data block
        fs::write(&path, &data).unwrap();
        let table = SsTable::open(&path).unwrap(); // index/footer intact
        assert!(matches!(table.get(b"key-000001"), Err(Error::Corrupt(_))));
        // Now break the magic.
        let len = data.len();
        data[len - 1] ^= 0xFF;
        fs::write(&path, &data).unwrap();
        assert!(matches!(SsTable::open(&path), Err(Error::Corrupt(_))));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_table_is_valid() {
        let path = temp_path("empty");
        let writer = SsTableWriter::create(&path, 256, 0, 10).unwrap();
        let table = writer.finish().unwrap();
        assert_eq!(table.entry_count(), 0);
        assert_eq!(table.get(b"anything").unwrap(), None);
        assert!(table.scan_all().unwrap().is_empty());
        fs::remove_file(&path).unwrap();
    }
}
