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
//! bloom block := bloom · crc32           (absent without a filter)
//! footer      := index_off u64 · index_len u64
//!                · bloom_off u64 · bloom_len u64
//!                · entry_count u64 · magic u64
//! ```
//!
//! Entries must be added in strictly increasing key order. Every block
//! is a [`frame::seal`]ed `body · crc32`, and every field is written
//! and read through [`strata_chaos::frame`]. The index, bloom block and
//! footer lie back to back at the end of the file, which `open` checks
//! before it reads them. Point lookups go through the bloom filter, a
//! binary search over the sparse index, and a scan of one block.

use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use strata_chaos::frame::{self, put_u32, put_u64, put_u8, FrameError, Reader};
use strata_chaos::ChaosFile;

use crate::bloom::BloomFilter;
use crate::error::{Error, Result};

/// "STRATAK2". Version 2 added the bloom block's CRC, so an older
/// table fails to open as bad magic.
const MAGIC: u64 = 0x5354_5241_5441_4B32;
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
        put_u32(&mut self.block, key.len() as u32);
        self.block.extend_from_slice(key);
        match value {
            Some(value) => {
                put_u8(&mut self.block, 1);
                put_u32(&mut self.block, value.len() as u32);
                self.block.extend_from_slice(value);
            }
            None => put_u8(&mut self.block, 0),
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
        frame::seal(&mut self.block, 0);
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
        let mut tail = Vec::new();
        put_u32(&mut tail, self.index.len() as u32);
        for meta in &self.index {
            put_u32(&mut tail, meta.first_key.len() as u32);
            tail.extend_from_slice(&meta.first_key);
            put_u64(&mut tail, meta.offset);
            put_u32(&mut tail, meta.len);
            put_u32(&mut tail, meta.entries);
        }
        frame::seal(&mut tail, 0);
        let index_len = tail.len();
        if let Some(bloom) = &self.bloom {
            tail.extend_from_slice(&bloom.to_bytes());
            frame::seal(&mut tail, index_len);
        }
        let (index_len, bloom_len) = (index_len as u64, (tail.len() - index_len) as u64);
        put_u64(&mut tail, self.offset);
        put_u64(&mut tail, index_len);
        put_u64(&mut tail, self.offset + index_len);
        put_u64(&mut tail, bloom_len);
        put_u64(&mut tail, self.entry_count);
        put_u64(&mut tail, MAGIC);
        self.file.write_all(&tail)?;
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
        let corrupt = |err: FrameError| Error::Corrupt(format!("{path:?}: {err}"));
        let footer_off = file
            .metadata()?
            .len()
            .checked_sub(FOOTER_LEN as u64)
            .ok_or_else(|| corrupt(FrameError::Corrupt("too short".into())))?;
        file.seek(SeekFrom::Start(footer_off))?;
        let mut footer = [0u8; FOOTER_LEN];
        file.read_exact(&mut footer)?;
        let mut r = Reader::new(&footer);
        let mut field = || r.u64().expect("the footer holds six u64 fields");
        let (index_off, index_len) = (field(), field());
        let (bloom_off, bloom_len) = (field(), field());
        let (entry_count, magic) = (field(), field());
        if magic != MAGIC {
            return Err(corrupt(FrameError::Corrupt("bad magic".into())));
        }
        // The writer lays the index, the bloom block and the footer out
        // back to back; any other layout is a damaged footer, checked
        // before it sizes a read.
        if index_off.checked_add(index_len) != Some(bloom_off)
            || bloom_off.checked_add(bloom_len) != Some(footer_off)
        {
            return Err(corrupt(FrameError::Corrupt("bad block offsets".into())));
        }
        file.seek(SeekFrom::Start(index_off))?;
        let mut tail = vec![0u8; (index_len + bloom_len) as usize];
        file.read_exact(&mut tail)?;
        let (index_block, bloom_block) = tail.split_at(index_len as usize);
        let (index, bloom) = Self::decode_tail(index_block, bloom_block).map_err(corrupt)?;
        Ok(SsTable {
            path,
            file: Mutex::new(file),
            index,
            bloom,
            entry_count,
        })
    }

    /// Decodes the index block and the (possibly absent) bloom block.
    fn decode_tail(
        index_block: &[u8],
        bloom_block: &[u8],
    ) -> std::result::Result<(Vec<BlockMeta>, Option<BloomFilter>), FrameError> {
        let mut r = Reader::new(frame::unseal(index_block)?);
        let mut index = Vec::new();
        for _ in 0..r.u32()? {
            let key_len = r.u32()? as usize;
            index.push(BlockMeta {
                first_key: r.bytes(key_len)?.to_vec(),
                offset: r.u64()?,
                len: r.u32()?,
                entries: r.u32()?,
            });
        }
        r.finish()?;
        let bloom = match bloom_block {
            [] => None,
            block => Some(BloomFilter::from_bytes(frame::unseal(block)?)?),
        };
        Ok((index, bloom))
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

    /// Reads, checks and decodes the entries of one data block.
    #[allow(clippy::type_complexity)]
    fn read_block(&self, meta: &BlockMeta) -> Result<Vec<(Vec<u8>, Option<Vec<u8>>)>> {
        let mut block = vec![0u8; meta.len as usize];
        {
            let mut file = self.file.lock();
            file.seek(SeekFrom::Start(meta.offset))?;
            file.read_exact(&mut block)?;
        }
        let decode = || {
            let mut r = Reader::new(frame::unseal(&block)?);
            let mut entries = Vec::with_capacity(meta.entries as usize);
            while !r.rest().is_empty() {
                let key_len = r.u32()? as usize;
                let key = r.bytes(key_len)?.to_vec();
                let value = match r.u8()? {
                    0 => None,
                    1 => {
                        let value_len = r.u32()? as usize;
                        Some(r.bytes(value_len)?.to_vec())
                    }
                    other => return Err(FrameError::Corrupt(format!("unknown entry tag {other}"))),
                };
                entries.push((key, value));
            }
            Ok(entries)
        };
        decode().map_err(|err| Error::Corrupt(format!("{:?}: {err}", self.path)))
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
        let entries = self.read_block(&self.index[block_idx])?;
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
            for (key, value) in self.read_block(meta)? {
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

    /// Flips every byte of a small multi-block table with a bloom
    /// filter in turn. Each flip must either fail `open`, `get` or
    /// `scan_all` as [`Error::Corrupt`], or leave every key reading back
    /// its original value: never a crash, a lost key or a stale value.
    #[test]
    fn detects_corruption() {
        let table = build_table("corrupt", 30, 64, 10);
        let path = table.path().to_path_buf();
        let original = table.scan_all().unwrap();
        drop(table);
        let clean = fs::read(&path).unwrap();
        let reads_back = |data: &[u8]| -> Result<bool> {
            fs::write(&path, data)?;
            let table = SsTable::open(&path)?;
            let mut same = table.scan_all()? == original;
            for (key, value) in &original {
                same &= table.get(key)? == Some(value.clone());
            }
            Ok(same)
        };
        assert!(reads_back(&clean).unwrap());
        for at in 0..clean.len() {
            let mut data = clean.clone();
            data[at] ^= 0xFF;
            let result = reads_back(&data);
            assert!(
                matches!(result, Ok(true) | Err(Error::Corrupt(_))),
                "flip at {at}: {result:?}"
            );
        }
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

    /// The exact bytes this format has always written for the data
    /// blocks and the index block of [`golden_table`]. Everything
    /// before the bloom block is pinned; the bloom block and the
    /// footer are checked by reading the table back.
    const GOLDEN_PREFIX: &[u8] = &[
        0x08, 0x00, 0x00, 0x00, 0x6c, 0x61, 0x79, 0x65, 0x72, 0x2f, 0x30, 0x30, 0x01, 0x05, 0x00,
        0x00, 0x00, 0x68, 0x6f, 0x74, 0x20, 0x30, 0x08, 0x00, 0x00, 0x00, 0x6c, 0x61, 0x79, 0x65,
        0x72, 0x2f, 0x30, 0x31, 0x01, 0x05, 0x00, 0x00, 0x00, 0x68, 0x6f, 0x74, 0x20, 0x37, 0x08,
        0x00, 0x00, 0x00, 0x6c, 0x61, 0x79, 0x65, 0x72, 0x2f, 0x30, 0x32, 0x00, 0x08, 0x00, 0x00,
        0x00, 0x6c, 0x61, 0x79, 0x65, 0x72, 0x2f, 0x30, 0x33, 0x01, 0x06, 0x00, 0x00, 0x00, 0x68,
        0x6f, 0x74, 0x20, 0x32, 0x31, 0x0e, 0x5e, 0x80, 0xcd, 0x08, 0x00, 0x00, 0x00, 0x6c, 0x61,
        0x79, 0x65, 0x72, 0x2f, 0x30, 0x34, 0x01, 0x06, 0x00, 0x00, 0x00, 0x68, 0x6f, 0x74, 0x20,
        0x32, 0x38, 0x08, 0x00, 0x00, 0x00, 0x6c, 0x61, 0x79, 0x65, 0x72, 0x2f, 0x30, 0x35, 0x01,
        0x06, 0x00, 0x00, 0x00, 0x68, 0x6f, 0x74, 0x20, 0x33, 0x35, 0xeb, 0xdc, 0xdc, 0xd3, 0x02,
        0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x6c, 0x61, 0x79, 0x65, 0x72, 0x2f, 0x30, 0x30,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x54, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
        0x00, 0x08, 0x00, 0x00, 0x00, 0x6c, 0x61, 0x79, 0x65, 0x72, 0x2f, 0x30, 0x34, 0x54, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x32, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0xbf,
        0xf6, 0x33, 0xf4,
    ];

    fn golden_table(tag: &str) -> SsTable {
        let mut writer = SsTableWriter::create(temp_path(tag), 64, 6, 10).unwrap();
        for i in 0..6u32 {
            let key = format!("layer/{i:02}");
            let value = format!("hot {}", i * 7);
            let value = (i != 2).then_some(value.as_bytes());
            writer.add(key.as_bytes(), value).unwrap();
        }
        writer.finish().unwrap()
    }

    #[test]
    fn golden_blocks_are_bit_identical() {
        let table = golden_table("golden");
        let data = fs::read(table.path()).unwrap();
        assert_eq!(&data[..GOLDEN_PREFIX.len()], GOLDEN_PREFIX);
        assert_eq!(
            table.get(b"layer/01").unwrap(),
            Some(Some(b"hot 7".to_vec()))
        );
        assert_eq!(table.get(b"layer/02").unwrap(), Some(None));
        assert_eq!(table.scan_all().unwrap().len(), 6);
        fs::remove_file(table.path()).unwrap();
    }
}
