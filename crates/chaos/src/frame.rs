//! One frame layout, one torn-tail rule and one sync policy for every
//! durable log (the kv WAL, pub/sub segments, the committed-offset
//! store) and the `strata-net` stream codec.
//!
//! Segment records, offset commits and net messages share one
//! envelope, whose CRC-32 ([`crc32`]) covers the body only:
//!
//! ```text
//! ┌──────────────┬───────────────┬──────────────┐
//! │ body_len u32 │ body (…)      │ crc32 u32    │   little-endian
//! └──────────────┴───────────────┴──────────────┘
//! ```
//!
//! The kv WAL keeps its own tag-led layout but shares the checksum
//! check, the recovery scan and the [`Appender`]. Every log recovers by
//! one rule ([`recover`]): a final frame that ends early
//! ([`FrameError::Incomplete`]) is a crash mid-append and is cut away;
//! any other bad frame is [`FrameError::Corrupt`], because silently
//! dropping acknowledged data is never an option.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use crate::{crc32, fsync_dir, ChaosFile};

/// Bytes the envelope adds around a body: the length and the CRC.
pub const OVERHEAD: usize = 8;

/// Why a frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes end before the frame does.
    Incomplete,
    /// A complete frame that fails its checksum or its framing rules.
    Corrupt(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Incomplete => f.write_str("truncated frame"),
            FrameError::Corrupt(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends one envelope to `buf`, its body written by `body`. Returns
/// the frame's length.
pub fn encode(buf: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    body(buf);
    let body_len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
    let crc = crc32(&buf[start + 4..]);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.len() - start
}

/// Splits the envelope at the front of `data` and verifies its CRC:
/// the body and the frame's length, [`FrameError::Incomplete`] when
/// `data` ends inside the frame, or [`FrameError::Corrupt`].
pub fn split(data: &[u8]) -> Result<(&[u8], usize), FrameError> {
    let end = 4 + u32_at(data, 0)? as usize;
    let stored = u32_at(data, end)?;
    let body = &data[4..end];
    verify(body, stored)?;
    Ok((body, end + 4))
}

/// The little-endian `u32` at `at`, or [`FrameError::Incomplete`] when
/// `data` ends first.
pub fn u32_at(data: &[u8], at: usize) -> Result<u32, FrameError> {
    match data.get(at..at.saturating_add(4)) {
        Some(word) => Ok(u32::from_le_bytes(word.try_into().expect("4 bytes"))),
        None => Err(FrameError::Incomplete),
    }
}

/// Checks a stored CRC-32 against the bytes it covers.
pub fn verify(covered: &[u8], stored: u32) -> Result<(), FrameError> {
    let computed = crc32(covered);
    if stored != computed {
        return Err(FrameError::Corrupt(format!(
            "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    Ok(())
}

/// The body length an envelope's `header` announces. A length above
/// `cap` is corrupt, so a bad or hostile prefix cannot allocate
/// gigabytes.
pub fn body_len(header: [u8; 4], cap: usize) -> Result<usize, FrameError> {
    let len = u32::from_le_bytes(header) as usize;
    if len > cap {
        return Err(FrameError::Corrupt(format!(
            "frame length {len} exceeds the {cap}-byte cap"
        )));
    }
    Ok(len)
}

/// Hands each frame at the front of `data` to `decode`, which consumes
/// one frame and returns its length. Returns the length of the valid
/// prefix, short of `data` only when the final frame is
/// [`FrameError::Incomplete`]; fails on the first corrupt frame.
pub fn scan(
    data: &[u8],
    mut decode: impl FnMut(&[u8]) -> Result<usize, FrameError>,
) -> Result<usize, FrameError> {
    let mut pos = 0;
    while pos < data.len() {
        match decode(&data[pos..]) {
            Ok(used) => pos += used,
            Err(FrameError::Incomplete) => break,
            Err(err) => return Err(err),
        }
    }
    Ok(pos)
}

/// Reads a log file whole; a missing file reads as empty.
pub fn read_log(path: &Path) -> io::Result<Vec<u8>> {
    match fs::read(path) {
        Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read,
    }
}

/// Torn tails cut by [`recover`], per chaos point prefix.
static TORN_TAILS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

/// Times [`recover`] cut a torn tail off a log whose chaos point
/// prefix is `point` (`kv.wal`, `pubsub.segment`, `pubsub.offsets`),
/// process-wide.
#[must_use]
pub fn tails_truncated(point: &str) -> u64 {
    let tails = TORN_TAILS.lock().unwrap_or_else(PoisonError::into_inner);
    tails.get(point).copied().unwrap_or(0)
}

/// Recovers the log at `path` by [`scan`]ning it with `decode`, and
/// returns the number of torn bytes cut. A torn final frame is cut
/// away with `set_len` and `sync_data`, so appends land where the next
/// recovery finds them, and counted under `point`. Where the log may
/// not end torn (`may_tear` is false, as for a segment that later
/// segments follow) a torn frame is [`FrameError::Corrupt`].
pub fn recover<E>(
    point: &'static str,
    path: &Path,
    may_tear: bool,
    decode: impl FnMut(&[u8]) -> Result<usize, FrameError>,
) -> Result<u64, E>
where
    E: From<io::Error> + From<FrameError>,
{
    let data = read_log(path)?;
    let valid = scan(&data, decode)?;
    if valid == data.len() {
        return Ok(0);
    }
    if !may_tear {
        return Err(FrameError::Corrupt(format!("{path:?} ends in a torn frame")).into());
    }
    let file = fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(valid as u64)?;
    file.sync_data()?;
    *TORN_TAILS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .entry(point)
        .or_default() += 1;
    Ok((data.len() - valid) as u64)
}

/// When an [`Appender`] issues an `fsync`.
///
/// Durability is exactly what the policy paid for: after a crash,
/// recovery yields every append up to the last successful sync, and
/// possibly (but not guaranteed) appends after it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every append. An acknowledged write is durable
    /// before the call returns.
    Always,
    /// `fsync` once every `n` appends: at most `n - 1` acknowledged
    /// writes can be lost to a crash.
    EveryN(u32),
    /// Never `fsync` explicitly; the OS writes back on its own
    /// schedule. Matches the historical behavior and is the default.
    #[default]
    Never,
}

/// An append-only log file that writes, flushes and `fsync`s every
/// frame per its [`SyncPolicy`].
#[derive(Debug)]
pub struct Appender {
    file: ChaosFile,
    policy: SyncPolicy,
    /// Appends not yet covered by a sync.
    unsynced: u32,
}

impl Appender {
    /// Opens (or creates) the log at `path` for appending, consulting
    /// failpoints `"<point>.write"` and `"<point>.sync"`. Creating the
    /// file also `fsync`s its directory unless the policy is `Never`,
    /// so the log itself survives a crash right after open.
    pub fn open(point: &str, path: &Path, policy: SyncPolicy) -> io::Result<Self> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let created = !path.exists();
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        if created && policy != SyncPolicy::Never {
            if let Some(dir) = path.parent() {
                fsync_dir(dir)?;
            }
        }
        Ok(Appender {
            file: ChaosFile::new(point, path, file)?,
            policy,
            unsynced: 0,
        })
    }

    /// Writes `frame` whole, flushes it, and syncs when the policy is
    /// due. A failed sync fails the append.
    pub fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        self.file.write_all(frame)?;
        self.file.flush()?;
        let every = match self.policy {
            SyncPolicy::Always => 1,
            SyncPolicy::EveryN(n) => n.max(1),
            SyncPolicy::Never => return Ok(()),
        };
        self.unsynced += 1;
        if self.unsynced >= every {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces an `fsync` now, regardless of policy. On return every
    /// earlier append is durable.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Syncs the appends the policy has not synced yet. A log calls
    /// this before it moves on to a new file, so a power loss cannot
    /// keep later appends in the new file and lose these.
    pub fn sync_pending(&mut self) -> io::Result<()> {
        if self.unsynced > 0 {
            self.sync()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("strata-chaos-frame-{tag}-{}", std::process::id()))
    }

    #[test]
    fn envelopes_round_trip() {
        let mut buf = vec![0xAA];
        let written = encode(&mut buf, |b| b.extend_from_slice(b"body"));
        assert_eq!(written, 4 + OVERHEAD);
        assert_eq!(&buf[1..5], &4u32.to_le_bytes());
        let (body, used) = split(&buf[1..]).unwrap();
        assert_eq!((body, used), (&b"body"[..], written));
    }

    #[test]
    fn split_tells_incomplete_from_corrupt() {
        let mut buf = Vec::new();
        encode(&mut buf, |b| b.extend_from_slice(b"payload"));
        for cut in 0..buf.len() {
            assert_eq!(split(&buf[..cut]), Err(FrameError::Incomplete), "cut {cut}");
        }
        for at in 0..buf.len() {
            let mut flipped = buf.clone();
            flipped[at] ^= 0x01;
            // A flipped length bit either overruns the data or
            // misplaces the CRC; every other flip fails the CRC.
            match split(&flipped) {
                Err(FrameError::Corrupt(_)) => {}
                Err(FrameError::Incomplete) => assert!(at < 4, "flip at {at}"),
                Ok(_) => panic!("flip at {at} went undetected"),
            }
        }
    }

    #[test]
    fn body_len_enforces_the_cap() {
        assert_eq!(body_len(16u32.to_le_bytes(), 16), Ok(16));
        assert!(matches!(
            body_len(17u32.to_le_bytes(), 16),
            Err(FrameError::Corrupt(_))
        ));
    }

    #[test]
    fn scan_stops_at_an_incomplete_tail_and_fails_on_corruption() {
        let mut log = Vec::new();
        for body in [&b"one"[..], b"two", b"three"] {
            encode(&mut log, |b| b.extend_from_slice(body));
        }
        let count = |data: &[u8]| {
            let mut frames = 0;
            scan(data, |d| {
                frames += 1;
                split(d).map(|(_, used)| used)
            })
            .map(|valid| (valid, frames))
        };
        assert_eq!(count(&log), Ok((log.len(), 3)));
        assert_eq!(count(&log[..log.len() - 1]), Ok((2 * 11, 3)));
        log[5] ^= 0x01;
        assert!(matches!(count(&log), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn recover_cuts_and_counts_a_torn_tail() {
        type AnyError = Box<dyn std::error::Error>;
        let path = temp_path("recover");
        let mut log = Vec::new();
        encode(&mut log, |b| b.extend_from_slice(b"kept"));
        encode(&mut log, |b| b.extend_from_slice(b"torn"));
        fs::write(&path, &log[..log.len() - 3]).unwrap();
        let before = tails_truncated("frame.test");
        let decode = |d: &[u8]| split(d).map(|(_, used)| used);
        let torn = recover::<AnyError>("frame.test", &path, true, decode).unwrap();
        assert_eq!(torn as usize, 12 - 3);
        assert_eq!(fs::read(&path).unwrap(), &log[..12]);
        assert_eq!(tails_truncated("frame.test"), before + 1);

        fs::write(&path, &log[..log.len() - 3]).unwrap();
        let err = recover::<AnyError>("frame.test", &path, false, decode).unwrap_err();
        assert!(matches!(
            err.downcast_ref::<FrameError>(),
            Some(FrameError::Corrupt(_))
        ));
        assert_eq!(tails_truncated("frame.test"), before + 1);
        fs::remove_file(&path).unwrap();
        assert_eq!(
            recover::<AnyError>("frame.test", &path, true, decode).unwrap(),
            0
        );
    }

    #[test]
    fn every_n_policy_counts_down_to_a_sync() {
        let path = temp_path("everyn");
        let _ = fs::remove_file(&path);
        let mut log = Appender::open("frame.test", &path, SyncPolicy::EveryN(3)).unwrap();
        for i in 0..7u8 {
            log.append(&[i]).unwrap();
        }
        // 7 appends under EveryN(3): synced at 3 and 6, one pending.
        assert_eq!(log.unsynced, 1);
        log.sync_pending().unwrap();
        assert_eq!(log.unsynced, 0);
        drop(log);
        assert_eq!(fs::read(&path).unwrap(), [0, 1, 2, 3, 4, 5, 6]);
        fs::remove_file(&path).unwrap();
    }
}
