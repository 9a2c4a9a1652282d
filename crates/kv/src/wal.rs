//! The write-ahead log: crash durability for the memtable.
//!
//! Every mutation is appended (and flushed) to the WAL before it is
//! applied to the memtable. On open, the WAL is replayed to rebuild
//! the memtable's state. When a memtable is flushed into an SSTable,
//! its WAL is deleted and a fresh one started.
//!
//! Frame format (little-endian):
//!
//! ```text
//! tag u8 (1 = put, 0 = delete) · key_len u32 · key
//!                              · [value_len u32 · value]   (puts only)
//!                              · crc32 u32 over all previous frame bytes
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use strata_chaos::{crc32, fsync_dir, ChaosFile};

use crate::error::{Error, Result};
use crate::options::SyncPolicy;

const TAG_DELETE: u8 = 0;
const TAG_PUT: u8 = 1;

/// Failpoint prefix for WAL I/O (`kv.wal.write`, `kv.wal.sync`).
const CHAOS_POINT: &str = "kv.wal";

/// Count of torn WAL tails truncated by [`Wal::recover`] since
/// process start (recovery observability; see also the pubsub
/// segment counter).
static TAILS_TRUNCATED: AtomicU64 = AtomicU64::new(0);

/// Times a torn WAL tail was truncated during recovery, process-wide.
#[must_use]
pub fn wal_tails_truncated() -> u64 {
    TAILS_TRUNCATED.load(Ordering::Relaxed)
}

/// One recovered WAL operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Set `key` to `value`.
    Put {
        /// The key written.
        key: Vec<u8>,
        /// The value written.
        value: Vec<u8>,
    },
    /// Delete `key`.
    Delete {
        /// The key deleted.
        key: Vec<u8>,
    },
}

/// An append-only write-ahead log file.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: ChaosFile,
    frame: Vec<u8>,
    policy: SyncPolicy,
    /// Operations logged since the last sync (for `EveryN`).
    unsynced: u32,
}

impl Wal {
    /// Creates (or appends to) the WAL at `path`, `fsync`ing per
    /// `policy`. Creating the file also `fsync`s its directory (when
    /// the policy asks for durability at all), so the WAL itself
    /// survives a crash right after open.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn open(path: impl Into<PathBuf>, policy: SyncPolicy) -> Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let created = !path.exists();
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        if created && policy != SyncPolicy::Never {
            if let Some(parent) = path.parent() {
                fsync_dir(parent)?;
            }
        }
        let file = ChaosFile::new(CHAOS_POINT, &path, file)?;
        Ok(Wal {
            path,
            file,
            frame: Vec::new(),
            policy,
            unsynced: 0,
        })
    }

    /// Appends a put and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn log_put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.frame.clear();
        self.frame.push(TAG_PUT);
        self.frame
            .extend_from_slice(&(key.len() as u32).to_le_bytes());
        self.frame.extend_from_slice(key);
        self.frame
            .extend_from_slice(&(value.len() as u32).to_le_bytes());
        self.frame.extend_from_slice(value);
        self.finish_frame()
    }

    /// Appends a deletion and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn log_delete(&mut self, key: &[u8]) -> Result<()> {
        self.frame.clear();
        self.frame.push(TAG_DELETE);
        self.frame
            .extend_from_slice(&(key.len() as u32).to_le_bytes());
        self.frame.extend_from_slice(key);
        self.finish_frame()
    }

    fn finish_frame(&mut self) -> Result<()> {
        let crc = crc32(&self.frame);
        self.frame.extend_from_slice(&crc.to_le_bytes());
        self.file.write_all(&self.frame)?;
        self.file.flush()?;
        match self.policy {
            SyncPolicy::Always => self.sync()?,
            SyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n {
                    self.sync()?;
                }
            }
            SyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Forces an `fsync` now, regardless of policy. On return every
    /// previously logged operation is durable.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Deletes the WAL file (after its memtable was flushed into an
    /// SSTable).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn remove(self) -> Result<()> {
        fs::remove_file(&self.path)?;
        Ok(())
    }

    /// Replays the WAL at `path` without modifying it, returning its
    /// operations in append order. A torn final frame (crash
    /// mid-write) is tolerated and ignored; corruption *before* the
    /// tail is an error.
    ///
    /// Returns an empty vector when the file does not exist.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] for mid-log corruption; I/O failures.
    pub fn replay(path: &Path) -> Result<Vec<WalOp>> {
        Self::scan(path).map(|(ops, _)| ops)
    }

    /// Replays the WAL at `path` *and truncates a torn tail away*, so
    /// that frames appended afterwards decode on the next replay
    /// (appending after torn bytes would strand them unreachable).
    /// Returns the operations and the number of torn bytes dropped.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] for mid-log corruption; I/O failures.
    pub fn recover(path: &Path) -> Result<(Vec<WalOp>, u64)> {
        let (ops, valid_len) = Self::scan(path)?;
        let file_len = match fs::metadata(path) {
            Ok(meta) => meta.len(),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok((ops, 0)),
            Err(err) => return Err(err.into()),
        };
        let torn = file_len.saturating_sub(valid_len);
        if torn > 0 {
            let file = fs::OpenOptions::new().write(true).open(path)?;
            file.set_len(valid_len)?;
            file.sync_data()?;
            TAILS_TRUNCATED.fetch_add(1, Ordering::Relaxed);
        }
        Ok((ops, torn))
    }

    /// Decodes the valid frame prefix: the operations and the byte
    /// length they occupy.
    fn scan(path: &Path) -> Result<(Vec<WalOp>, u64)> {
        let data = match fs::read(path) {
            Ok(data) => data,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
            Err(err) => return Err(err.into()),
        };
        let mut ops = Vec::new();
        let mut pos = 0usize;
        while pos < data.len() {
            match Self::decode_op(&data[pos..]) {
                Ok((op, used)) => {
                    ops.push(op);
                    pos += used;
                }
                Err(_) if Self::is_torn_tail(&data[pos..]) => break,
                Err(err) => return Err(err),
            }
        }
        Ok((ops, pos as u64))
    }

    fn decode_op(data: &[u8]) -> Result<(WalOp, usize)> {
        let corrupt = |msg: &str| Error::Corrupt(format!("wal: {msg}"));
        if data.len() < 5 {
            return Err(corrupt("truncated header"));
        }
        let tag = data[0];
        let key_len = u32::from_le_bytes(data[1..5].try_into().expect("len 4")) as usize;
        let (body_len, value_range) = match tag {
            TAG_DELETE => (5 + key_len, None),
            TAG_PUT => {
                if data.len() < 5 + key_len + 4 {
                    return Err(corrupt("truncated put header"));
                }
                let value_len =
                    u32::from_le_bytes(data[5 + key_len..9 + key_len].try_into().expect("len 4"))
                        as usize;
                (
                    9 + key_len + value_len,
                    Some(9 + key_len..9 + key_len + value_len),
                )
            }
            other => return Err(corrupt(&format!("unknown tag {other}"))),
        };
        if data.len() < body_len + 4 {
            return Err(corrupt("truncated frame"));
        }
        let stored_crc =
            u32::from_le_bytes(data[body_len..body_len + 4].try_into().expect("len 4"));
        if stored_crc != crc32(&data[..body_len]) {
            return Err(corrupt("crc mismatch"));
        }
        let key = data[5..5 + key_len].to_vec();
        let op = match value_range {
            Some(range) => WalOp::Put {
                key,
                value: data[range].to_vec(),
            },
            None => WalOp::Delete { key },
        };
        Ok((op, body_len + 4))
    }

    /// A frame that fails to decode only because the data ran out is
    /// a torn tail from a crash mid-append — safe to discard.
    fn is_torn_tail(data: &[u8]) -> bool {
        if data.len() < 5 {
            return true;
        }
        let tag = data[0];
        if tag != TAG_PUT && tag != TAG_DELETE {
            return false;
        }
        let key_len = u32::from_le_bytes(data[1..5].try_into().expect("len 4")) as usize;
        let needed = match tag {
            TAG_DELETE => 5 + key_len + 4,
            _ => {
                if data.len() < 5 + key_len + 4 {
                    return true;
                }
                let value_len =
                    u32::from_le_bytes(data[5 + key_len..9 + key_len].try_into().expect("len 4"))
                        as usize;
                9 + key_len + value_len + 4
            }
        };
        data.len() < needed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("strata-kv-wal-{tag}-{}", std::process::id()))
    }

    #[test]
    fn replay_restores_operations_in_order() {
        let path = temp_path("order");
        let _ = fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            wal.log_put(b"a", b"1").unwrap();
            wal.log_delete(b"a").unwrap();
            wal.log_put(b"b", b"2").unwrap();
        }
        let ops = Wal::replay(&path).unwrap();
        assert_eq!(
            ops,
            vec![
                WalOp::Put {
                    key: b"a".to_vec(),
                    value: b"1".to_vec()
                },
                WalOp::Delete { key: b"a".to_vec() },
                WalOp::Put {
                    key: b"b".to_vec(),
                    value: b"2".to_vec()
                },
            ]
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_wal_is_empty() {
        assert!(Wal::replay(Path::new("/nonexistent/wal"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn torn_tail_is_discarded() {
        let path = temp_path("torn");
        let _ = fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            wal.log_put(b"ok", b"yes").unwrap();
            wal.log_put(b"torn", b"partial").unwrap();
        }
        // Chop bytes off the final frame to simulate a crash.
        let mut data = fs::read(&path).unwrap();
        data.truncate(data.len() - 5);
        fs::write(&path, data).unwrap();
        let ops = Wal::replay(&path).unwrap();
        assert_eq!(ops.len(), 1);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_an_error() {
        let path = temp_path("corrupt");
        let _ = fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            wal.log_put(b"first", b"1").unwrap();
            wal.log_put(b"second", b"2").unwrap();
        }
        let mut data = fs::read(&path).unwrap();
        data[7] ^= 0xFF; // inside the first frame
        fs::write(&path, data).unwrap();
        assert!(matches!(Wal::replay(&path), Err(Error::Corrupt(_))));
        fs::remove_file(&path).unwrap();
    }

    /// Exhaustive crash-point property: truncating the log at *every*
    /// byte boundary of the final frame must recover exactly the
    /// fully written prefix — never an error, never a partial op —
    /// and the truncated log must accept appends that survive the
    /// next replay.
    #[test]
    fn recovery_at_every_byte_boundary_of_the_final_frame() {
        let path = temp_path("boundary");
        let _ = fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path, SyncPolicy::Always).unwrap();
            wal.log_put(b"alpha", b"1").unwrap();
            wal.log_delete(b"alpha").unwrap();
            wal.log_put(b"gamma", b"333").unwrap();
        }
        let full = fs::read(&path).unwrap();
        // Final frame: tag + key_len + "gamma" + value_len + "333" + crc.
        let final_frame = 1 + 4 + 5 + 4 + 3 + 4;
        let prefix_len = full.len() - final_frame;
        for cut in prefix_len..=full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let (ops, torn) = Wal::recover(&path).unwrap();
            if cut == full.len() {
                assert_eq!(ops.len(), 3, "intact log at cut {cut}");
                assert_eq!(torn, 0);
            } else {
                assert_eq!(ops.len(), 2, "torn tail at cut {cut}");
                assert_eq!(torn as usize, cut - prefix_len, "cut {cut}");
                assert_eq!(
                    fs::metadata(&path).unwrap().len() as usize,
                    prefix_len,
                    "file truncated back to the valid prefix at cut {cut}"
                );
            }
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            wal.log_put(b"post", b"crash").unwrap();
            drop(wal);
            let after = Wal::replay(&path).unwrap();
            assert_eq!(
                after.last(),
                Some(&WalOp::Put {
                    key: b"post".to_vec(),
                    value: b"crash".to_vec()
                }),
                "append after recovery must be replayable (cut {cut})"
            );
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_n_policy_counts_down_to_a_sync() {
        let path = temp_path("everyn");
        let _ = fs::remove_file(&path);
        let mut wal = Wal::open(&path, SyncPolicy::EveryN(3)).unwrap();
        for i in 0..7u8 {
            wal.log_put(&[i], b"v").unwrap();
        }
        // 7 ops under EveryN(3): synced at ops 3 and 6, one pending.
        assert_eq!(wal.unsynced, 1);
        wal.sync().unwrap();
        assert_eq!(wal.unsynced, 0);
        drop(wal);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn remove_deletes_the_file() {
        let path = temp_path("remove");
        let wal = Wal::open(&path, SyncPolicy::Never).unwrap();
        assert!(path.exists());
        wal.remove().unwrap();
        assert!(!path.exists());
    }

    /// The exact bytes this WAL format has always written for a fixed
    /// put and delete. Replaying them and logging the replayed
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
        let path = temp_path("golden");
        fs::write(&path, GOLDEN_WAL).unwrap();
        let ops = Wal::replay(&path).unwrap();
        assert_eq!(
            ops,
            vec![
                WalOp::Put {
                    key: b"specimen/0042".to_vec(),
                    value: b"layer 17: 39 cells hot, 0.0125 mm pitch".to_vec()
                },
                WalOp::Delete {
                    key: b"specimen/0041".to_vec()
                },
            ]
        );
        fs::remove_file(&path).unwrap();
        {
            let mut wal = Wal::open(&path, SyncPolicy::Never).unwrap();
            for op in &ops {
                match op {
                    WalOp::Put { key, value } => wal.log_put(key, value).unwrap(),
                    WalOp::Delete { key } => wal.log_delete(key).unwrap(),
                }
            }
        }
        assert_eq!(fs::read(&path).unwrap(), GOLDEN_WAL);
        fs::remove_file(&path).unwrap();
    }
}
