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
//!
//! Appends, syncs and torn-tail recovery go through
//! [`strata_chaos::frame`].

use std::fs;
use std::path::{Path, PathBuf};

use strata_chaos::crc32;
use strata_chaos::frame::{self, Appender, FrameError};

use crate::error::{Error, Result};
use crate::options::SyncPolicy;

const TAG_DELETE: u8 = 0;
const TAG_PUT: u8 = 1;

/// Failpoint prefix for WAL I/O (`kv.wal.write`, `kv.wal.sync`), and
/// the key of its torn-tail count.
const CHAOS_POINT: &str = "kv.wal";

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
    log: Appender,
    frame: Vec<u8>,
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
        let log = Appender::open(CHAOS_POINT, &path, policy)?;
        Ok(Wal {
            path,
            log,
            frame: Vec::new(),
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
        Ok(self.log.append(&self.frame)?)
    }

    /// Forces an `fsync` now, regardless of policy. On return every
    /// previously logged operation is durable.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn sync(&mut self) -> Result<()> {
        Ok(self.log.sync()?)
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
        let mut ops = Vec::new();
        frame::scan(&frame::read_log(path)?, |data| decode_op(data, &mut ops))?;
        Ok(ops)
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
        let mut ops = Vec::new();
        let torn =
            frame::recover::<Error>(CHAOS_POINT, path, true, |data| decode_op(data, &mut ops))?;
        Ok((ops, torn))
    }
}

/// Decodes the frame at the front of `data` into `ops`, returning its
/// length.
fn decode_op(data: &[u8], ops: &mut Vec<WalOp>) -> std::result::Result<usize, FrameError> {
    let key_len = frame::u32_at(data, 1)? as usize;
    let key = 5..5 + key_len;
    let (value, body_len) = match data[0] {
        TAG_DELETE => (None, key.end),
        TAG_PUT => {
            let value_len = frame::u32_at(data, key.end)? as usize;
            let value = key.end + 4..key.end + 4 + value_len;
            (Some(value.clone()), value.end)
        }
        other => return Err(FrameError::Corrupt(format!("wal: unknown tag {other}"))),
    };
    let stored = frame::u32_at(data, body_len)?;
    frame::verify(&data[..body_len], stored)?;
    let key = data[key].to_vec();
    ops.push(match value {
        Some(value) => WalOp::Put {
            key,
            value: data[value].to_vec(),
        },
        None => WalOp::Delete { key },
    });
    Ok(body_len + 4)
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
