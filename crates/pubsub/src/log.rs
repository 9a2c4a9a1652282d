//! Partition logs: append-only, offset-addressed record storage.
//!
//! Two implementations back a partition:
//!
//! * [`MemoryLog`] — records held in memory; fast, lost on drop.
//! * [`FileLog`] — records framed into segment files (see
//!   [`wire`]) that roll at a configurable size, with
//!   crash recovery by re-scanning segments on open and retention by
//!   deleting whole segments.

use std::collections::VecDeque;
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use strata_chaos::frame::{self, Appender, FrameError};

use crate::error::{Error, Result};
use crate::record::{Record, StoredRecord};
use crate::wire;

pub use strata_chaos::frame::SyncPolicy;

/// Failpoint prefix for segment I/O (`pubsub.segment.write`,
/// `pubsub.segment.sync`), and the key of its torn-tail count.
const CHAOS_POINT: &str = "pubsub.segment";

/// Which storage backs a topic's partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogKind {
    /// Keep records in memory only.
    Memory,
    /// Persist records into segment files under `dir`
    /// (one subdirectory per partition), rolling segments at
    /// `segment_bytes`.
    File {
        /// Root directory for this topic's partition logs.
        dir: PathBuf,
        /// Maximum byte size of one segment file before rolling.
        segment_bytes: u64,
        /// When appends are `fsync`ed.
        sync: SyncPolicy,
    },
}

/// The storage interface a partition requires.
pub trait PartitionLog: Send {
    /// Appends `record`, returning the offset it was assigned.
    ///
    /// # Errors
    ///
    /// I/O failures for file-backed logs.
    fn append(&mut self, record: Record) -> Result<u64>;

    /// Reads up to `max_records` records starting at `offset`
    /// (inclusive). An `offset` equal to [`end_offset`] yields an
    /// empty vector; an offset below [`start_offset`] or above the end
    /// is an error.
    ///
    /// # Errors
    ///
    /// [`Error::OffsetOutOfRange`], [`Error::Corrupt`], or I/O
    /// failures.
    ///
    /// [`end_offset`]: PartitionLog::end_offset
    /// [`start_offset`]: PartitionLog::start_offset
    fn read_from(&mut self, offset: u64, max_records: usize) -> Result<Vec<StoredRecord>>;

    /// The first offset still stored (moves up under retention).
    fn start_offset(&self) -> u64;

    /// One past the last stored offset.
    fn end_offset(&self) -> u64;

    /// Drops all records with offsets strictly below `offset`
    /// (file-backed logs drop whole segments, so they may retain
    /// slightly more). Returns the new start offset.
    ///
    /// # Errors
    ///
    /// I/O failures when deleting segment files.
    fn truncate_before(&mut self, offset: u64) -> Result<u64>;

    /// Total payload bytes currently stored (approximate for
    /// file-backed logs: framed size on disk).
    fn size_bytes(&self) -> u64;

    /// Number of records currently stored.
    fn len(&self) -> u64 {
        self.end_offset() - self.start_offset()
    }

    /// `true` when no records are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn out_of_range(requested: u64, start: u64, end: u64) -> Error {
    Error::OffsetOutOfRange {
        requested,
        start,
        end,
    }
}

/// A memory-resident partition log.
#[derive(Debug, Default)]
pub struct MemoryLog {
    records: VecDeque<StoredRecord>,
    start: u64,
    bytes: u64,
}

impl MemoryLog {
    /// Creates an empty log starting at offset 0.
    pub fn new() -> Self {
        MemoryLog::default()
    }
}

impl PartitionLog for MemoryLog {
    fn append(&mut self, record: Record) -> Result<u64> {
        let offset = self.end_offset();
        self.bytes += record.payload_size() as u64;
        self.records.push_back(StoredRecord { offset, record });
        Ok(offset)
    }

    fn read_from(&mut self, offset: u64, max_records: usize) -> Result<Vec<StoredRecord>> {
        let end = self.end_offset();
        if offset < self.start || offset > end {
            return Err(out_of_range(offset, self.start, end));
        }
        let skip = (offset - self.start) as usize;
        Ok(self
            .records
            .iter()
            .skip(skip)
            .take(max_records)
            .cloned()
            .collect())
    }

    fn start_offset(&self) -> u64 {
        self.start
    }

    fn end_offset(&self) -> u64 {
        self.start + self.records.len() as u64
    }

    fn truncate_before(&mut self, offset: u64) -> Result<u64> {
        while self.start < offset.min(self.end_offset()) {
            if let Some(dropped) = self.records.pop_front() {
                self.bytes -= dropped.record.payload_size() as u64;
            }
            self.start += 1;
        }
        Ok(self.start)
    }

    fn size_bytes(&self) -> u64 {
        self.bytes
    }
}

/// One segment file of a [`FileLog`]: its base offset, the byte
/// position of every stored frame, and the file size.
#[derive(Debug)]
struct Segment {
    base_offset: u64,
    path: PathBuf,
    /// `positions[i]` is the byte position of offset `base_offset + i`.
    positions: Vec<u64>,
    bytes: u64,
}

impl Segment {
    fn file_name(base_offset: u64) -> String {
        format!("{base_offset:020}.seg")
    }

    fn next_offset(&self) -> u64 {
        self.base_offset + self.positions.len() as u64
    }
}

/// A file-backed partition log with rolling segments.
#[derive(Debug)]
pub struct FileLog {
    dir: PathBuf,
    segment_bytes: u64,
    sync: SyncPolicy,
    segments: Vec<Segment>,
    writer: Option<Appender>,
    scratch: Vec<u8>,
}

impl FileLog {
    /// Opens (or creates) the log stored under `dir`, recovering
    /// existing segments by re-scanning their frames. A torn tail in
    /// the *final* segment (crash mid-append) is truncated away, like
    /// the kv WAL's tail rule (see [`frame::recover`]); corruption
    /// anywhere else is an error.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`Error::Corrupt`] if a recovered segment
    /// fails validation.
    pub fn open(dir: impl Into<PathBuf>, segment_bytes: u64, sync: SyncPolicy) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut segments: Vec<Segment> = Vec::new();
        let mut names: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "seg"))
            .collect();
        names.sort();
        let last = names.len().saturating_sub(1);
        for (i, path) in names.iter().enumerate() {
            let segment = Self::recover_segment(path, i == last)?;
            if let Some(prev) = segments.last() {
                if segment.base_offset != prev.next_offset() {
                    return Err(Error::Corrupt(format!(
                        "segment {:?}: base offset {} does not continue previous segment \
                         (expected {})",
                        segment.path,
                        segment.base_offset,
                        prev.next_offset()
                    )));
                }
            }
            segments.push(segment);
        }
        Ok(FileLog {
            dir,
            segment_bytes: segment_bytes.max(1),
            sync,
            segments,
            writer: None,
            scratch: Vec::new(),
        })
    }

    fn recover_segment(path: &Path, is_final: bool) -> Result<Segment> {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| Error::Corrupt(format!("bad segment name {path:?}")))?;
        let base_offset: u64 = stem
            .parse()
            .map_err(|_| Error::Corrupt(format!("bad segment name {path:?}")))?;
        let mut positions = Vec::new();
        let mut bytes = 0u64;
        // Only the final segment can legitimately end mid-frame (the
        // crash happened while appending to it).
        frame::recover::<Error>(CHAOS_POINT, path, is_final, |data| {
            let (stored, used) = wire::decode_frame(data)?;
            let expected = base_offset + positions.len() as u64;
            if stored.offset != expected {
                return Err(FrameError::Corrupt(format!(
                    "segment {path:?}: offset {} where {expected} expected",
                    stored.offset
                )));
            }
            positions.push(bytes);
            bytes += used as u64;
            Ok(used)
        })?;
        Ok(Segment {
            base_offset,
            path: path.to_path_buf(),
            positions,
            bytes,
        })
    }

    fn roll_segment(&mut self, base_offset: u64) -> Result<()> {
        if let Some(outgoing) = &mut self.writer {
            outgoing.sync_pending()?;
        }
        let path = self.dir.join(Segment::file_name(base_offset));
        self.writer = Some(Appender::open(CHAOS_POINT, &path, self.sync)?);
        self.segments.push(Segment {
            base_offset,
            path,
            positions: Vec::new(),
            bytes: 0,
        });
        Ok(())
    }

    fn active_is_full(&self) -> bool {
        self.segments
            .last()
            .is_none_or(|s| s.bytes >= self.segment_bytes)
    }

    /// Ensures a writable active segment exists: reuses the recovered
    /// final segment while it has room (so recovery does not strand
    /// partially filled segments), rolling a fresh one otherwise.
    fn ensure_writer(&mut self) -> Result<()> {
        if self.active_is_full() {
            return self.roll_segment(self.end_offset());
        }
        if self.writer.is_none() {
            let last = self.segments.last().expect("non-full implies a segment");
            self.writer = Some(Appender::open(CHAOS_POINT, &last.path, self.sync)?);
        }
        Ok(())
    }

    fn segment_for(&self, offset: u64) -> Option<&Segment> {
        match self
            .segments
            .binary_search_by(|s| s.base_offset.cmp(&offset))
        {
            Ok(i) => Some(&self.segments[i]),
            Err(0) => None,
            Err(i) => Some(&self.segments[i - 1]),
        }
    }
}

impl PartitionLog for FileLog {
    fn append(&mut self, record: Record) -> Result<u64> {
        self.ensure_writer()?;
        let offset = self.end_offset();
        let stored = StoredRecord { offset, record };
        self.scratch.clear();
        wire::encode_frame(&stored, &mut self.scratch);
        let writer = self.writer.as_mut().expect("writer ensured above");
        writer.append(&self.scratch)?;
        let segment = self.segments.last_mut().expect("segment ensured above");
        segment.positions.push(segment.bytes);
        segment.bytes += self.scratch.len() as u64;
        Ok(offset)
    }

    fn read_from(&mut self, offset: u64, max_records: usize) -> Result<Vec<StoredRecord>> {
        let (start, end) = (self.start_offset(), self.end_offset());
        if offset < start || offset > end {
            return Err(out_of_range(offset, start, end));
        }
        let mut out = Vec::new();
        let mut cursor = offset;
        while out.len() < max_records && cursor < end {
            let segment = self
                .segment_for(cursor)
                .ok_or_else(|| out_of_range(cursor, start, end))?;
            let within = (cursor - segment.base_offset) as usize;
            let pos = segment.positions[within];
            let mut file = fs::File::open(&segment.path)?;
            file.seek(SeekFrom::Start(pos))?;
            let mut data = Vec::new();
            file.read_to_end(&mut data)?;
            let mut at = 0usize;
            let last_in_segment = segment.next_offset();
            while out.len() < max_records && cursor < last_in_segment {
                let (stored, used) = wire::decode_frame(&data[at..])?;
                debug_assert_eq!(stored.offset, cursor);
                out.push(stored);
                at += used;
                cursor += 1;
            }
        }
        Ok(out)
    }

    fn start_offset(&self) -> u64 {
        self.segments.first().map_or(0, |s| s.base_offset)
    }

    fn end_offset(&self) -> u64 {
        self.segments.last().map_or(0, Segment::next_offset)
    }

    fn truncate_before(&mut self, offset: u64) -> Result<u64> {
        // Drop whole segments that end at or before `offset`, but
        // always keep the active (last) segment.
        while self.segments.len() > 1 {
            let first = &self.segments[0];
            if first.next_offset() <= offset {
                fs::remove_file(&first.path)?;
                self.segments.remove(0);
            } else {
                break;
            }
        }
        Ok(self.start_offset())
    }

    fn size_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(n: u8) -> Record {
        Record::new(Some(vec![n]), vec![n; 16]).with_timestamp(n as u64)
    }

    fn check_log_contract(log: &mut dyn PartitionLog) {
        assert!(log.is_empty());
        for n in 0..10u8 {
            assert_eq!(log.append(record(n)).unwrap(), n as u64);
        }
        assert_eq!(log.len(), 10);
        assert_eq!(log.end_offset(), 10);

        let all = log.read_from(0, usize::MAX).unwrap();
        assert_eq!(all.len(), 10);
        assert_eq!(all[3].offset, 3);
        assert_eq!(all[3].record, record(3));

        let some = log.read_from(7, 2).unwrap();
        assert_eq!(some.len(), 2);
        assert_eq!(some[0].offset, 7);

        assert!(log.read_from(10, 5).unwrap().is_empty());
        assert!(matches!(
            log.read_from(11, 1),
            Err(Error::OffsetOutOfRange { .. })
        ));
    }

    #[test]
    fn memory_log_contract() {
        check_log_contract(&mut MemoryLog::new());
    }

    #[test]
    fn file_log_contract() {
        let dir = std::env::temp_dir().join(format!("strata-pubsub-t1-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        check_log_contract(&mut FileLog::open(&dir, 256, SyncPolicy::Never).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_truncation_moves_start() {
        let mut log = MemoryLog::new();
        for n in 0..10u8 {
            log.append(record(n)).unwrap();
        }
        assert_eq!(log.truncate_before(4).unwrap(), 4);
        assert_eq!(log.start_offset(), 4);
        assert!(matches!(
            log.read_from(3, 1),
            Err(Error::OffsetOutOfRange { .. })
        ));
        assert_eq!(log.read_from(4, 1).unwrap()[0].offset, 4);
        // Truncating past the end empties but never over-runs.
        assert_eq!(log.truncate_before(100).unwrap(), 10);
        assert!(log.is_empty());
    }

    #[test]
    fn file_log_rolls_and_recovers() {
        let dir = std::env::temp_dir().join(format!("strata-pubsub-t2-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            // Tiny segment size forces several segment files.
            let mut log = FileLog::open(&dir, 64, SyncPolicy::Never).unwrap();
            for n in 0..20u8 {
                log.append(record(n)).unwrap();
            }
            assert!(log.segments.len() > 1, "expected multiple segments");
        }
        // Re-open: recovery must rebuild offsets and allow appends.
        let mut log = FileLog::open(&dir, 64, SyncPolicy::Never).unwrap();
        assert_eq!(log.end_offset(), 20);
        assert_eq!(log.append(record(20)).unwrap(), 20);
        let all = log.read_from(0, usize::MAX).unwrap();
        assert_eq!(all.len(), 21);
        assert_eq!(all[20].record, record(20));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_log_truncates_whole_segments() {
        let dir = std::env::temp_dir().join(format!("strata-pubsub-t3-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut log = FileLog::open(&dir, 64, SyncPolicy::Never).unwrap();
        for n in 0..20u8 {
            log.append(record(n)).unwrap();
        }
        let new_start = log.truncate_before(10).unwrap();
        // Whole-segment granularity: the new start is ≤ 10 but > 0.
        assert!(new_start > 0 && new_start <= 10, "start={new_start}");
        assert_eq!(log.end_offset(), 20);
        let survivors = log.read_from(new_start, usize::MAX).unwrap();
        assert_eq!(survivors.first().unwrap().offset, new_start);
        assert_eq!(survivors.last().unwrap().offset, 19);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_log_reports_corruption() {
        let dir = std::env::temp_dir().join(format!("strata-pubsub-t4-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut log = FileLog::open(&dir, 1 << 20, SyncPolicy::Never).unwrap();
            log.append(record(0)).unwrap();
        }
        // Flip a byte in the middle of the single segment.
        let seg = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let mut data = fs::read(&seg).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        fs::write(&seg, data).unwrap();
        assert!(matches!(
            FileLog::open(&dir, 1 << 20, SyncPolicy::Never),
            Err(Error::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash mid-append leaves a half-written frame at the end of
    /// the final segment. Recovery must truncate it away and keep the
    /// log usable — not refuse to open.
    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = std::env::temp_dir().join(format!("strata-pubsub-t5-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut log = FileLog::open(&dir, 1 << 20, SyncPolicy::Never).unwrap();
            for n in 0..3u8 {
                log.append(record(n)).unwrap();
            }
        }
        let seg = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let full = fs::read(&seg).unwrap();
        let frame = full.len() / 3;
        // Chop into the middle of the last frame.
        fs::write(&seg, &full[..full.len() - frame / 2]).unwrap();
        let before = frame::tails_truncated(CHAOS_POINT);

        let mut log = FileLog::open(&dir, 1 << 20, SyncPolicy::Never).unwrap();
        assert_eq!(log.end_offset(), 2, "torn record dropped");
        assert_eq!(frame::tails_truncated(CHAOS_POINT), before + 1);
        assert_eq!(
            fs::metadata(&seg).unwrap().len() as usize,
            2 * frame,
            "file truncated back to the valid prefix"
        );
        // Appends land where the next recovery will find them.
        assert_eq!(log.append(record(9)).unwrap(), 2);
        drop(log);
        let mut log = FileLog::open(&dir, 1 << 20, SyncPolicy::Never).unwrap();
        let all = log.read_from(0, usize::MAX).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[2].record, record(9));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The torn-tail rule only applies to the final segment: a tear
    /// mid-log (an earlier segment) means records that were once
    /// readable are gone, and must surface as corruption.
    #[test]
    fn torn_tail_in_a_non_final_segment_is_an_error() {
        let dir = std::env::temp_dir().join(format!("strata-pubsub-t6-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut log = FileLog::open(&dir, 64, SyncPolicy::Never).unwrap();
            for n in 0..20u8 {
                log.append(record(n)).unwrap();
            }
            assert!(log.segments.len() > 1, "expected multiple segments");
        }
        let mut names: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        names.sort();
        let first = &names[0];
        let data = fs::read(first).unwrap();
        fs::write(first, &data[..data.len() - 3]).unwrap();
        assert!(matches!(
            FileLog::open(&dir, 64, SyncPolicy::Never),
            Err(Error::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
