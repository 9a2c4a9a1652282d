//! The database facade: a logged map behind a read-write lock.

use std::fs;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use strata_chaos::frame::LogMap;

use crate::batch::WriteBatch;
use crate::error::{Error, Result};
use crate::metrics::KvMetrics;
use crate::options::DbOptions;
use crate::wal::Wal;

const WAL_FILE: &str = "wal.log";

/// Failpoint prefix for WAL I/O (`kv.wal.write`, `kv.wal.sync`), and
/// the key of its torn-tail count.
const CHAOS_POINT: &str = "kv.wal";

struct DbInner {
    dir: Option<PathBuf>,
    map: RwLock<LogMap<Wal>>,
    metrics: KvMetrics,
}

/// An embedded key-value store: a sorted map, logged to `wal.log`
/// unless opened in memory.
///
/// `Db` is cheaply cloneable ([`Arc`]-backed) and safe to share
/// across threads: reads take a shared lock, writes an exclusive one.
/// See the [crate documentation](crate) for the storage design.
#[derive(Clone)]
pub struct Db {
    inner: Arc<DbInner>,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("dir", &self.inner.dir)
            .field("entries", &self.inner.map.read().map().len())
            .finish()
    }
}

impl Db {
    /// Opens (or creates) a disk-backed store under `dir`, replaying
    /// its log. A torn final frame (a crash mid-append) is cut away.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for invalid options,
    /// [`Error::Corrupt`] for a damaged log or a directory that still
    /// holds SSTables of the retired LSM layout, or I/O failures.
    pub fn open(dir: impl Into<PathBuf>, options: DbOptions) -> Result<Self> {
        options.validate()?;
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        refuse_sstables(&dir)?;
        let map = LogMap::open::<Error>(CHAOS_POINT, &dir.join(WAL_FILE), options.sync)?;
        Ok(Self::with(Some(dir), map))
    }

    /// Opens a purely in-memory store: no log, contents lost on drop.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for invalid options.
    pub fn open_in_memory(options: DbOptions) -> Result<Self> {
        options.validate()?;
        Ok(Self::with(None, LogMap::in_memory()))
    }

    fn with(dir: Option<PathBuf>, map: LogMap<Wal>) -> Self {
        Db {
            inner: Arc::new(DbInner {
                dir,
                map: RwLock::new(map),
                metrics: KvMetrics::new(),
            }),
        }
    }

    /// Registers this store's latency histograms into `registry` under
    /// the `kv_*` names. Recording stays on the same cells, so the
    /// registry renders current values from then on.
    pub fn register_metrics(&self, registry: &strata_obs::Registry) {
        self.inner.metrics.register_into(registry);
    }

    /// Stores `value` under `key`.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn put(&self, key: impl AsRef<[u8]>, value: impl AsRef<[u8]>) -> Result<()> {
        self.apply(vec![(key.as_ref().to_vec(), Some(value.as_ref().to_vec()))])
    }

    /// Deletes `key`.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn delete(&self, key: impl AsRef<[u8]>) -> Result<()> {
        self.apply(vec![(key.as_ref().to_vec(), None)])
    }

    /// Applies a [`WriteBatch`] atomically: it is logged as one frame.
    ///
    /// # Errors
    ///
    /// I/O failures; on a log error no operation of the batch is
    /// applied.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        self.apply(batch.ops)
    }

    /// Logs and applies `ops`. Deletes share the put latency series.
    fn apply(&self, ops: Vec<(Vec<u8>, Option<Vec<u8>>)>) -> Result<()> {
        let started = Instant::now();
        let result = self.inner.map.write().apply(ops);
        self.inner.metrics.put_ns.record_since(started);
        Ok(result?)
    }

    /// Looks up `key`.
    ///
    /// # Errors
    ///
    /// None today; the `Result` keeps the store's contract.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Result<Option<Vec<u8>>> {
        let started = Instant::now();
        let value = self.inner.map.read().map().get(key.as_ref()).cloned();
        self.inner.metrics.get_ns.record_since(started);
        Ok(value)
    }

    /// All `(key, value)` pairs with keys in `[start, end)`, in key
    /// order. An empty `end` scans to the end of the keyspace.
    ///
    /// # Errors
    ///
    /// None today; the `Result` keeps the store's contract.
    pub fn range(
        &self,
        start: impl AsRef<[u8]>,
        end: impl AsRef<[u8]>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let (start, end) = (start.as_ref(), end.as_ref());
        let end = match end {
            [] => Bound::Unbounded,
            end if end < start => return Ok(Vec::new()),
            end => Bound::Excluded(end),
        };
        let map = self.inner.map.read();
        Ok(map
            .map()
            .range::<[u8], _>((Bound::Included(start), end))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect())
    }

    /// All pairs whose key starts with `prefix`, in key order.
    ///
    /// # Errors
    ///
    /// None today; the `Result` keeps the store's contract.
    pub fn scan_prefix(&self, prefix: impl AsRef<[u8]>) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let prefix = prefix.as_ref();
        let end = prefix_end(prefix);
        self.range(prefix, end.as_deref().unwrap_or(&[]))
    }

    /// `fsync`s the log, so every write so far survives a power loss
    /// whatever the sync policy.
    ///
    /// # Errors
    ///
    /// [`Error::MemoryMode`] for in-memory stores; I/O failures.
    pub fn flush(&self) -> Result<()> {
        let started = self.on_disk()?;
        self.inner.map.write().sync()?;
        self.inner.metrics.flush_ns.record_since(started);
        Ok(())
    }

    /// Rewrites the log to hold just the live entries. Writes compact
    /// it on their own once superseded bytes outweigh live ones.
    ///
    /// # Errors
    ///
    /// [`Error::MemoryMode`] for in-memory stores; I/O failures.
    pub fn compact(&self) -> Result<()> {
        let started = self.on_disk()?;
        self.inner.map.write().compact()?;
        self.inner.metrics.compact_ns.record_since(started);
        Ok(())
    }

    /// The start of an operation that needs a log on disk.
    fn on_disk(&self) -> Result<Instant> {
        match self.inner.dir {
            Some(_) => Ok(Instant::now()),
            None => Err(Error::MemoryMode),
        }
    }
}

/// Fails on SSTables of the retired LSM layout: their data is not in
/// the log, so opening without them would silently lose it.
fn refuse_sstables(dir: &Path) -> Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|ext| ext == "sst") {
            return Err(Error::Corrupt(format!(
                "{path:?} is an SSTable of the retired LSM layout, which this store cannot read"
            )));
        }
    }
    Ok(())
}

/// The smallest byte string greater than every string with `prefix`,
/// or `None` when the prefix is all `0xFF` (scan to the end).
fn prefix_end(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut end = prefix.to_vec();
    while let Some(&last) = end.last() {
        if last == 0xFF {
            end.pop();
        } else {
            *end.last_mut().expect("non-empty") += 1;
            return Some(end);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("strata-kv-db-{tag}-{}", std::process::id()))
    }

    #[test]
    fn memory_mode_put_get_delete() {
        let db = Db::open_in_memory(DbOptions::default()).unwrap();
        db.put("a", "1").unwrap();
        assert_eq!(db.get("a").unwrap(), Some(b"1".to_vec()));
        db.delete("a").unwrap();
        assert_eq!(db.get("a").unwrap(), None);
        assert!(matches!(db.flush(), Err(Error::MemoryMode)));
        assert!(matches!(db.compact(), Err(Error::MemoryMode)));
    }

    #[test]
    fn disk_mode_survives_reopen() {
        let dir = temp_dir("reopen");
        let _ = fs::remove_dir_all(&dir);
        {
            let db = Db::open(&dir, DbOptions::default()).unwrap();
            db.put("persistent", "yes").unwrap();
            db.put("doomed", "soon").unwrap();
            db.delete("doomed").unwrap();
        }
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(db.get("persistent").unwrap(), Some(b"yes".to_vec()));
        assert_eq!(db.get("doomed").unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_keeps_the_latest_versions_and_drops_deletes() {
        let dir = temp_dir("compact");
        let _ = fs::remove_dir_all(&dir);
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        for round in 0..4 {
            for i in 0..20 {
                db.put(format!("key-{i:03}"), format!("round-{round}"))
                    .unwrap();
            }
            db.delete(format!("key-{round:03}")).unwrap();
        }
        db.compact().unwrap();
        // key-000 was deleted in round 0 but rewritten by rounds 1-3.
        assert_eq!(db.get("key-000").unwrap(), Some(b"round-3".to_vec()));
        // key-003 was deleted in round 3, after its round-3 write.
        assert_eq!(db.get("key-003").unwrap(), None);
        drop(db);
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(db.get("key-010").unwrap(), Some(b"round-3".to_vec()));
        assert_eq!(db.get("key-003").unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn range_and_prefix_scans_see_the_latest_writes() {
        let db = Db::open_in_memory(DbOptions::default()).unwrap();
        db.put("job/1/low", "100").unwrap();
        db.put("job/1/high", "900").unwrap();
        db.put("job/2/low", "150").unwrap();
        db.put("job/1/low", "120").unwrap();
        db.delete("job/1/high").unwrap();
        let got = db.scan_prefix("job/1/").unwrap();
        assert_eq!(got, vec![(b"job/1/low".to_vec(), b"120".to_vec())]);
        let all = db.scan_prefix("job/").unwrap();
        assert_eq!(all.len(), 2);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(db.range("job/2", "job/1").unwrap().is_empty());
    }

    #[test]
    fn write_batch_is_atomic_and_ordered() {
        let db = Db::open_in_memory(DbOptions::default()).unwrap();
        let mut batch = WriteBatch::new();
        batch.put("a", "1").put("a", "2").delete("b");
        db.put("b", "exists").unwrap();
        db.write(batch).unwrap();
        assert_eq!(db.get("a").unwrap(), Some(b"2".to_vec()), "last op wins");
        assert_eq!(db.get("b").unwrap(), None);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let db = Db::open_in_memory(DbOptions::default()).unwrap();
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..500 {
                        db.put(format!("t{t}/k{i}"), format!("{i}")).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for t in 0..4 {
            assert_eq!(db.scan_prefix(format!("t{t}/")).unwrap().len(), 500);
        }
    }

    #[test]
    fn metrics_register_and_track_operations() {
        let dir = temp_dir("metrics");
        let _ = fs::remove_dir_all(&dir);
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        let registry = strata_obs::Registry::new();
        db.register_metrics(&registry);
        db.put("k", "v").unwrap();
        let _ = db.get("k").unwrap();
        let _ = db.get("missing").unwrap();
        db.flush().unwrap();
        db.compact().unwrap();
        let text = registry.render();
        assert!(text.contains("kv_put_ns_count 1"), "{text}");
        assert!(text.contains("kv_get_ns_count 2"), "{text}");
        assert!(text.contains("kv_flush_ns_count 1"), "{text}");
        assert!(text.contains("kv_compact_ns_count 1"), "{text}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prefix_end_computation() {
        assert_eq!(prefix_end(b"abc"), Some(b"abd".to_vec()));
        assert_eq!(prefix_end(&[0x61, 0xFF]), Some(vec![0x62]));
        assert_eq!(prefix_end(&[0xFF, 0xFF]), None);
        assert_eq!(prefix_end(b""), None);
    }
}
