//! The chaos I/O facade: files whose writes and syncs consult
//! failpoints, plus directory-fsync and crash-simulation helpers.
//!
//! A [`ChaosFile`] wraps an [`fs::File`] and is constructed with a
//! *point prefix* (e.g. `"kv.wal"`). Writes consult `"<prefix>.write"`
//! and syncs `"<prefix>.sync"`, so a scenario can tear a specific
//! store's append or fail its fsync without touching anything else.
//!
//! The facade also tracks, per path, how many bytes have actually been
//! synced. [`simulate_crash`] truncates a file back to its last synced
//! length — the on-disk state a power loss would leave behind — so
//! kill-and-reopen tests can assert that exactly the acked-durable
//! prefix survives.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::registry::{hit, Fault};

/// Failpoint consulted by [`fsync_dir`] for every directory fsync.
pub const DIR_SYNC_POINT: &str = "fs.dirsync";

fn synced_map() -> &'static Mutex<HashMap<PathBuf, u64>> {
    static MAP: OnceLock<Mutex<HashMap<PathBuf, u64>>> = OnceLock::new();
    MAP.get_or_init(Mutex::default)
}

fn lock_synced() -> MutexGuard<'static, HashMap<PathBuf, u64>> {
    synced_map().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Clears the per-path synced-length tracking (called by
/// `Scenario::setup` so scenarios do not see stale entries).
pub(crate) fn reset_sync_tracking() {
    if crate::is_compiled() {
        lock_synced().clear();
    }
}

fn track_synced(path: &Path, len: u64) {
    if crate::is_compiled() {
        lock_synced().insert(path.to_path_buf(), len);
    }
}

/// Truncates `path` to its last synced length, simulating the state a
/// power loss would leave (everything after the last fsync is gone).
/// Bytes present when the file was first wrapped count as synced.
///
/// # Errors
///
/// `InvalidInput` when the path was never wrapped in a [`ChaosFile`]
/// during the current scenario; I/O failures from the truncation.
pub fn simulate_crash(path: &Path) -> io::Result<()> {
    let synced = lock_synced().get(path).copied().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("simulate_crash: {path:?} is not tracked by any ChaosFile"),
        )
    })?;
    let file = fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(synced)?;
    Ok(())
}

/// A file handle whose writes and syncs pass through failpoints.
///
/// With the `failpoints` feature off (or no scenario armed) every
/// operation forwards straight to the inner [`fs::File`].
#[derive(Debug)]
pub struct ChaosFile {
    file: fs::File,
    path: PathBuf,
    write_point: String,
    sync_point: String,
    /// Bytes written through this handle plus whatever the file held
    /// when wrapped.
    written: u64,
    /// High-water mark of `written` covered by a successful sync.
    synced: u64,
}

impl ChaosFile {
    /// Wraps an already-opened `file` living at `path`, consulting
    /// failpoints `"<point>.write"` and `"<point>.sync"`. The file's
    /// current length counts as synced (it predates this handle).
    ///
    /// # Errors
    ///
    /// I/O failures reading the file's length.
    pub fn new(point: &str, path: impl Into<PathBuf>, file: fs::File) -> io::Result<Self> {
        let path = path.into();
        let len = file.metadata()?.len();
        track_synced(&path, len);
        Ok(ChaosFile {
            file,
            path,
            write_point: format!("{point}.write"),
            sync_point: format!("{point}.sync"),
            written: len,
            synced: len,
        })
    }

    /// The path this handle writes to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes known to be durable (covered by a successful sync or
    /// present before wrapping).
    #[must_use]
    pub fn synced_len(&self) -> u64 {
        self.synced
    }

    /// Bytes written through this handle plus whatever the file held
    /// when wrapped: the file's length, as far as this handle knows.
    #[must_use]
    pub fn written_len(&self) -> u64 {
        self.written
    }

    /// Truncates the file to `len` bytes, consulting the write
    /// failpoint: cutting bytes off is a write too.
    ///
    /// # Errors
    ///
    /// Injected faults and real I/O failures.
    pub fn set_len(&mut self, len: u64) -> io::Result<()> {
        match hit(&self.write_point) {
            None => {}
            Some(Fault::Delay(d)) => std::thread::sleep(d),
            Some(Fault::Panic(msg)) => panic!("injected panic at {}: {msg}", self.write_point),
            Some(_) => {
                return Err(io::Error::other(format!(
                    "injected fault at {}",
                    self.write_point
                )));
            }
        }
        self.file.set_len(len)?;
        self.written = len;
        self.synced = self.synced.min(len);
        track_synced(&self.path, self.synced);
        Ok(())
    }

    /// Writes the whole buffer, acting out any armed fault first.
    ///
    /// # Errors
    ///
    /// Injected faults and real I/O failures.
    pub fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match hit(&self.write_point) {
            None => {}
            Some(Fault::Delay(d)) => std::thread::sleep(d),
            Some(Fault::Io(kind)) => {
                return Err(io::Error::new(
                    kind,
                    format!("injected fault at {}", self.write_point),
                ));
            }
            Some(Fault::Torn { keep, kind }) => {
                let keep = keep.min(buf.len());
                self.file.write_all(&buf[..keep])?;
                self.written += keep as u64;
                return Err(io::Error::new(
                    kind,
                    format!("injected torn write at {}", self.write_point),
                ));
            }
            Some(Fault::Sever { after }) => {
                let keep = after.min(buf.len());
                self.file.write_all(&buf[..keep])?;
                self.written += keep as u64;
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    format!("injected sever at {}", self.write_point),
                ));
            }
            Some(Fault::Panic(msg)) => {
                panic!("injected panic at {}: {msg}", self.write_point)
            }
        }
        self.file.write_all(buf)?;
        self.written += buf.len() as u64;
        Ok(())
    }

    /// Flushes userspace buffers (a no-op for `fs::File`, kept for
    /// drop-in compatibility).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }

    fn sync_inner(&mut self, data_only: bool) -> io::Result<()> {
        match hit(&self.sync_point) {
            None => {}
            Some(Fault::Delay(d)) => std::thread::sleep(d),
            Some(Fault::Io(kind) | Fault::Torn { kind, .. }) => {
                // A failed fsync leaves durability unknown; we model
                // the pessimistic case — nothing new became durable.
                return Err(io::Error::new(
                    kind,
                    format!("injected fault at {}", self.sync_point),
                ));
            }
            Some(Fault::Sever { .. }) => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    format!("injected sever at {}", self.sync_point),
                ));
            }
            Some(Fault::Panic(msg)) => panic!("injected panic at {}: {msg}", self.sync_point),
        }
        if data_only {
            self.file.sync_data()?;
        } else {
            self.file.sync_all()?;
        }
        self.synced = self.written;
        track_synced(&self.path, self.synced);
        Ok(())
    }

    /// `fsync`s file data (durability barrier for appends).
    ///
    /// # Errors
    ///
    /// Injected faults and real I/O failures.
    pub fn sync_data(&mut self) -> io::Result<()> {
        self.sync_inner(true)
    }

    /// `fsync`s file data and metadata.
    ///
    /// # Errors
    ///
    /// Injected faults and real I/O failures.
    pub fn sync_all(&mut self) -> io::Result<()> {
        self.sync_inner(false)
    }
}

impl Write for ChaosFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        ChaosFile::flush(self)
    }
}

/// `fsync`s a directory so renames and newly created files in it
/// survive a crash (no-op on non-Unix platforms, where directories
/// cannot be opened for syncing). Consults [`DIR_SYNC_POINT`].
///
/// # Errors
///
/// Injected faults and real I/O failures.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    crate::registry::fail_point(DIR_SYNC_POINT)?;
    #[cfg(unix)]
    {
        fs::File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use crate::registry::Scenario;
    use std::io::ErrorKind;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("strata-chaos-vfs-{tag}-{}", std::process::id()))
    }

    fn open_append(path: &Path) -> ChaosFile {
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap();
        ChaosFile::new("vfs.test", path, file).unwrap()
    }

    #[test]
    fn torn_write_keeps_a_prefix() {
        let s = Scenario::setup();
        let path = temp_path("torn");
        let _ = fs::remove_file(&path);
        let mut f = open_append(&path);
        f.write_all(b"durable!").unwrap();
        s.fail_nth(
            "vfs.test.write",
            1,
            Fault::Torn {
                keep: 3,
                kind: ErrorKind::WriteZero,
            },
        );
        let err = f.write_all(b"lost-tail").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
        drop(f);
        assert_eq!(fs::read(&path).unwrap(), b"durable!los");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_sync_surfaces_and_crash_truncates_to_synced() {
        let s = Scenario::setup();
        let path = temp_path("sync");
        let _ = fs::remove_file(&path);
        let mut f = open_append(&path);
        f.write_all(b"one").unwrap();
        f.sync_data().unwrap();
        s.fail("vfs.test.sync", Fault::Io(ErrorKind::Other));
        f.write_all(b"two").unwrap();
        assert!(f.sync_data().is_err());
        assert_eq!(f.synced_len(), 3);
        drop(f);
        simulate_crash(&path).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn untracked_paths_cannot_crash() {
        let _s = Scenario::setup();
        assert!(simulate_crash(Path::new("/nonexistent/untracked")).is_err());
    }
}
