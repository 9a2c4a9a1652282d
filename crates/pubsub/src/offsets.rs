//! Durable storage for committed consumer-group offsets.
//!
//! The broker's group offsets are plain in-memory state; an
//! [`OffsetStore`] write-through makes them survive a broker restart,
//! the way Kafka's `__consumer_offsets` topic does. The store is a
//! [`LogMap`]: an append-only log of [`strata_chaos::frame`]
//! envelopes, one per commit,
//!
//! ```text
//! body := group_len u16 · group · topic_len u16 · topic
//!       · partition u32 · offset u64
//! ```
//!
//! in which the last frame for a `(group, topic, partition)` wins.
//! Recovery follows the shared tail rule of [`frame::recover`]: a torn
//! final frame is truncated away (and counted under `pubsub.offsets`),
//! corruption before the tail is an error. Superseded commits are
//! compacted away by rewriting and atomically renaming the log.

use std::path::PathBuf;

use strata_chaos::frame::{
    self, put_str16, put_u32, put_u64, EntryCodec, FrameError, LogMap, Reader, SyncPolicy, OVERHEAD,
};

use crate::error::{Error, Result};

/// Failpoint prefix for offset-store I/O (`pubsub.offsets.write`,
/// `pubsub.offsets.sync`), and the key of its torn-tail count.
const CHAOS_POINT: &str = "pubsub.offsets";

type Key = (String, String, u32);

/// The commit frames, from and to `((group, topic, partition),
/// Some(offset))`. Commits are never deleted.
#[derive(Debug)]
struct Commits;

impl EntryCodec for Commits {
    type Key = Key;
    type Value = u64;

    fn encode(buf: &mut Vec<u8>, ops: &[(&Key, Option<&u64>)]) {
        let [((group, topic, partition), Some(offset))] = ops else {
            unreachable!("the offset store logs one commit per frame");
        };
        frame::encode(buf, |buf| {
            put_str16(buf, group);
            put_str16(buf, topic);
            put_u32(buf, *partition);
            put_u64(buf, **offset);
        });
    }

    fn decode(
        data: &[u8],
        ops: &mut Vec<(Key, Option<u64>)>,
    ) -> std::result::Result<usize, FrameError> {
        let (body, used) = frame::split(data)?;
        let mut r = Reader::new(body);
        let group = r.str16()?.to_string();
        let topic = r.str16()?.to_string();
        let partition = r.u32()?;
        let offset = r.u64()?;
        r.finish()?;
        ops.push(((group, topic, partition), Some(offset)));
        Ok(used)
    }

    fn len((group, topic, _): &Key, _: &u64) -> usize {
        OVERHEAD + 2 + group.len() + 2 + topic.len() + 4 + 8
    }
}

/// An append-only, crash-recoverable store of committed offsets.
#[derive(Debug)]
pub struct OffsetStore {
    log: LogMap<Commits>,
}

impl OffsetStore {
    /// An empty store with no log: nothing it holds survives a drop.
    pub(crate) fn in_memory() -> Self {
        OffsetStore {
            log: LogMap::in_memory(),
        }
    }

    /// Opens (or creates) the store at `path`, replaying every commit
    /// frame. A torn final frame is truncated away.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] for mid-log corruption; I/O failures.
    pub fn open(path: impl Into<PathBuf>, policy: SyncPolicy) -> Result<Self> {
        let log = LogMap::open::<Error>(CHAOS_POINT, &path.into(), policy)?;
        Ok(OffsetStore { log })
    }

    /// The stored offset of `(group, topic, partition)`, if any.
    #[must_use]
    pub fn get(&self, group: &str, topic: &str, partition: u32) -> Option<u64> {
        self.log
            .map()
            .get(&(group.to_string(), topic.to_string(), partition))
            .copied()
    }

    /// Every live `((group, topic, partition), offset)` entry, in key
    /// order.
    pub fn entries(&self) -> impl Iterator<Item = (&Key, u64)> {
        self.log.map().iter().map(|(k, &v)| (k, v))
    }

    /// Number of live `(group, topic, partition)` entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.log.map().len()
    }

    /// `true` when no offsets are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.log.map().is_empty()
    }

    /// Appends one commit frame (and syncs per policy), compacting
    /// the log once superseded commits outweigh the live ones.
    ///
    /// # Errors
    ///
    /// I/O failures. The in-memory view is only updated once the
    /// append succeeded.
    pub fn record(&mut self, group: &str, topic: &str, partition: u32, offset: u64) -> Result<()> {
        let key = (group.to_string(), topic.to_string(), partition);
        Ok(self.log.apply(vec![(key, Some(offset))])?)
    }

    /// Rewrites the log with one frame per live entry and atomically
    /// renames it into place (with a directory fsync, so the rename
    /// survives a crash).
    ///
    /// # Errors
    ///
    /// I/O failures; see [`LogMap::compact`] for what stays in place.
    pub fn compact(&mut self) -> Result<()> {
        Ok(self.log.compact()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "strata-pubsub-offsets-{tag}-{}",
            std::process::id()
        ))
    }

    #[test]
    fn offsets_survive_reopen_with_last_write_winning() {
        let path = temp_path("reopen");
        let _ = fs::remove_file(&path);
        {
            let mut store = OffsetStore::open(&path, SyncPolicy::Never).unwrap();
            store.record("g1", "t", 0, 5).unwrap();
            store.record("g1", "t", 1, 9).unwrap();
            store.record("g1", "t", 0, 7).unwrap(); // supersedes 5
            store.record("g2", "t", 0, 1).unwrap();
        }
        let store = OffsetStore::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(store.get("g1", "t", 0), Some(7));
        assert_eq!(store.get("g1", "t", 1), Some(9));
        assert_eq!(store.get("g2", "t", 0), Some(1));
        assert_eq!(store.get("g2", "t", 1), None);
        assert_eq!(store.len(), 3);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_mid_log_corruption_errors() {
        let path = temp_path("tail");
        let _ = fs::remove_file(&path);
        {
            let mut store = OffsetStore::open(&path, SyncPolicy::Never).unwrap();
            store.record("group", "topic", 0, 11).unwrap();
            store.record("group", "topic", 1, 22).unwrap();
        }
        let full = fs::read(&path).unwrap();
        // Tear the final frame: the first commit must survive, and the
        // cut is counted.
        fs::write(&path, &full[..full.len() - 4]).unwrap();
        let before = frame::tails_truncated(CHAOS_POINT);
        let store = OffsetStore::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(store.get("group", "topic", 0), Some(11));
        assert_eq!(store.get("group", "topic", 1), None);
        assert_eq!(frame::tails_truncated(CHAOS_POINT), before + 1);
        drop(store);
        // Corrupt the first frame: that is not a tail, so it errors.
        let mut data = full.clone();
        data[6] ^= 0xFF;
        fs::write(&path, data).unwrap();
        assert!(matches!(
            OffsetStore::open(&path, SyncPolicy::Never),
            Err(Error::Corrupt(_))
        ));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_keeps_only_live_entries() {
        let path = temp_path("compact");
        let _ = fs::remove_file(&path);
        let mut store = OffsetStore::open(&path, SyncPolicy::Never).unwrap();
        for i in 0..100u64 {
            store.record("g", "t", 0, i).unwrap();
        }
        let before = fs::metadata(&path).unwrap().len();
        store.compact().unwrap();
        let after = fs::metadata(&path).unwrap().len();
        assert!(after < before, "compaction shrank the log");
        assert_eq!(store.get("g", "t", 0), Some(99));
        // Still appendable and recoverable after compaction.
        store.record("g", "t", 0, 100).unwrap();
        drop(store);
        let store = OffsetStore::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(store.get("g", "t", 0), Some(100));
        fs::remove_file(&path).unwrap();
    }

    /// The exact bytes this store has always written for two fixed
    /// commits. Replaying them and recording the replayed entries again
    /// must reproduce them bit for bit, which pins the frame layout and
    /// its CRC-32.
    const GOLDEN_OFFSETS: &[u8] = &[
        0x29, 0x00, 0x00, 0x00, 0x0f, 0x00, 0x74, 0x68, 0x65, 0x72, 0x6d, 0x61, 0x6c, 0x2d, 0x6d,
        0x6f, 0x6e, 0x69, 0x74, 0x6f, 0x72, 0x0a, 0x00, 0x73, 0x74, 0x72, 0x61, 0x74, 0x61, 0x2e,
        0x72, 0x61, 0x77, 0x03, 0x00, 0x00, 0x00, 0x50, 0x2d, 0x19, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x39, 0x44, 0xc8, 0x33, 0x23, 0x00, 0x00, 0x00, 0x06, 0x00, 0x65, 0x78, 0x70, 0x65, 0x72,
        0x74, 0x0d, 0x00, 0x73, 0x74, 0x72, 0x61, 0x74, 0x61, 0x2e, 0x65, 0x76, 0x65, 0x6e, 0x74,
        0x73, 0x00, 0x00, 0x00, 0x00, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x88, 0x9d,
        0x88, 0xfd,
    ];

    #[test]
    fn golden_frames_decode_and_reencode_bit_identically() {
        let path = temp_path("golden");
        fs::write(&path, GOLDEN_OFFSETS).unwrap();
        let store = OffsetStore::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(
            store.get("thermal-monitor", "strata.raw", 3),
            Some(1_650_000)
        );
        assert_eq!(store.get("expert", "strata.events", 0), Some(42));
        assert_eq!(store.len(), 2);
        drop(store);
        fs::remove_file(&path).unwrap();
        {
            let mut store = OffsetStore::open(&path, SyncPolicy::Never).unwrap();
            store
                .record("thermal-monitor", "strata.raw", 3, 1_650_000)
                .unwrap();
            store.record("expert", "strata.events", 0, 42).unwrap();
        }
        assert_eq!(fs::read(&path).unwrap(), GOLDEN_OFFSETS);
        fs::remove_file(&path).unwrap();
    }
}
