//! One frame layout, one torn-tail rule, one sync policy, one byte
//! reader and writer, and one durable map for every binary format: the
//! kv WAL, pub/sub segments, the committed-offset store, the
//! `strata-net` stream codec and the tuple codec.
//!
//! Fields are little-endian. They are written with the `put_*`
//! functions and read back with a [`Reader`], whose running out of
//! bytes inside a body is [`FrameError::Corrupt`]. Strings are
//! `u16 len · utf-8` ([`put_str16`]) or `u32 len · utf-8`
//! ([`put_str32`]).
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
//! The kv WAL keeps its own layout but shares the `body · crc32`
//! trailer ([`seal`], [`unseal`]). Every log recovers by one rule
//! ([`recover`]): a final frame that ends early
//! ([`FrameError::Incomplete`]) with no whole frame after it is a
//! crash mid-append and is cut away; any other bad frame is
//! [`FrameError::Corrupt`], because silently dropping acknowledged
//! data is never an option.
//!
//! The kv store and the offset store are both a [`LogMap`]: a log of
//! last-writer-wins entries through an [`Appender`], replayed into a
//! `BTreeMap` on open and compacted by rewrite and rename. Each
//! supplies only its frame layout, as an [`EntryCodec`].

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
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

/// Appends a `u8`.
#[inline]
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u16`.
#[inline]
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f64`.
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `s` as `u16 len · utf-8`.
#[inline]
pub fn put_str16(buf: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= usize::from(u16::MAX), "string too long");
    put_u16(buf, s.len() as u16);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends `s` as `u32 len · utf-8`, for strings that can outgrow
/// [`put_str16`], such as metrics dumps.
#[inline]
pub fn put_str32(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A bounds-checked little-endian reader over a frame body. Running
/// out of bytes is [`FrameError::Corrupt`]: the body's length is
/// already known, so a short field is damage, not a torn write.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Creates a reader over `data`.
    #[inline]
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data }
    }

    /// The bytes not yet read. Read past some of them with
    /// [`bytes`](Reader::bytes).
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        self.data
    }

    /// Reads `n` raw bytes, borrowed from the body.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.data.len() < n {
            return Err(FrameError::Corrupt(format!(
                "truncated body: wanted {n} bytes, have {}",
                self.data.len()
            )));
        }
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        Ok(self.bytes(N)?.try_into().expect("N bytes"))
    }

    /// Reads a `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, FrameError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `f64`.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, FrameError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Reads a string written by [`put_str16`].
    #[inline]
    pub fn str16(&mut self) -> Result<&'a str, FrameError> {
        let len = self.u16()?;
        utf8(self.bytes(len.into())?)
    }

    /// Reads a string written by [`put_str32`].
    #[inline]
    pub fn str32(&mut self) -> Result<&'a str, FrameError> {
        let len = self.u32()?;
        utf8(self.bytes(len as usize)?)
    }

    /// Ends the read: bytes left over are [`FrameError::Corrupt`].
    #[inline]
    pub fn finish(self) -> Result<(), FrameError> {
        match self.data.len() {
            0 => Ok(()),
            n => Err(FrameError::Corrupt(format!("{n} trailing bytes in body"))),
        }
    }
}

#[inline]
fn utf8(bytes: &[u8]) -> Result<&str, FrameError> {
    std::str::from_utf8(bytes).map_err(|_| FrameError::Corrupt("string is not utf-8".into()))
}

/// Appends the CRC-32 of `buf[from..]` to `buf`, making those bytes a
/// `body · crc32` block.
pub fn seal(buf: &mut Vec<u8>, from: usize) {
    let crc = crc32(&buf[from..]);
    put_u32(buf, crc);
}

/// The body of a `body · crc32` block written by [`seal`], once its
/// CRC checks out.
pub fn unseal(block: &[u8]) -> Result<&[u8], FrameError> {
    let body_len = block
        .len()
        .checked_sub(4)
        .ok_or_else(|| FrameError::Corrupt("block shorter than its crc".into()))?;
    let body = &block[..body_len];
    verify(body, u32_at(block, body_len)?)?;
    Ok(body)
}

/// Appends one envelope to `buf`, its body written by `body`. Returns
/// the frame's length.
pub fn encode(buf: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    body(buf);
    let body_len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
    seal(buf, start + 4);
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
///
/// A damaged length field also reads as a frame that ends past the
/// data. Nothing follows a frame torn by a crash, so when `decode`
/// accepts a frame at any later byte, the log is
/// [`FrameError::Corrupt`] and is left as it is.
pub fn recover<E>(
    point: &'static str,
    path: &Path,
    may_tear: bool,
    mut decode: impl FnMut(&[u8]) -> Result<usize, FrameError>,
) -> Result<u64, E>
where
    E: From<io::Error> + From<FrameError>,
{
    let data = read_log(path)?;
    let valid = scan(&data, &mut decode)?;
    if valid == data.len() {
        return Ok(0);
    }
    if !may_tear {
        return Err(FrameError::Corrupt(format!("{path:?} ends in a torn frame")).into());
    }
    if let Some(at) = (valid + 1..data.len()).find(|&at| decode(&data[at..]).is_ok()) {
        return Err(FrameError::Corrupt(format!(
            "{path:?}: the frame at byte {valid} runs past a whole frame at byte {at}"
        ))
        .into());
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
///
/// A failed append may leave part of its frame behind. Until the next
/// append cuts those bytes off, they read as a torn tail, so a crash
/// right after the failure recovers like any crash mid-append; the
/// next append then lands where recovery finds it.
#[derive(Debug)]
pub struct Appender {
    file: ChaosFile,
    policy: SyncPolicy,
    /// Appends not yet covered by a sync.
    unsynced: u32,
    /// The log's length before a failed append, while bytes of that
    /// append may still follow it.
    torn_from: Option<u64>,
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
            torn_from: None,
        })
    }

    /// Writes `frame` whole, flushes it, and syncs when the policy is
    /// due. A failed sync fails the append.
    ///
    /// # Errors
    ///
    /// I/O failures. After one, the next append first cuts the failed
    /// append's bytes off; while that cut fails, appends are refused.
    pub fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        if let Some(len) = self.torn_from {
            self.file.set_len(len)?;
            self.torn_from = None;
        }
        let len = self.file.written_len();
        let appended = self.write(frame);
        if appended.is_err() {
            self.torn_from = Some(len);
        }
        appended
    }

    fn write(&mut self, frame: &[u8]) -> io::Result<()> {
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

/// The frame layout of a [`LogMap`]'s log: how one frame holds a run
/// of operations, each a put (`Some(value)`) or a delete (`None`).
pub trait EntryCodec {
    /// The map's key.
    type Key: Ord + fmt::Debug;
    /// The map's value.
    type Value: fmt::Debug;

    /// Appends one frame holding `ops`, which replay applies in order.
    fn encode(buf: &mut Vec<u8>, ops: &[(&Self::Key, Option<&Self::Value>)]);

    /// Decodes the frame at the front of `data` (never empty) onto the
    /// end of `ops` and returns its length; a frame that ends early is
    /// [`FrameError::Incomplete`]. On an error, what it pushed is
    /// discarded.
    fn decode(
        data: &[u8],
        ops: &mut Vec<(Self::Key, Option<Self::Value>)>,
    ) -> Result<usize, FrameError>;

    /// The length of the frame [`encode`](EntryCodec::encode) writes
    /// for the one put `key → value`: the entry's share of a compacted
    /// log.
    fn len(key: &Self::Key, value: &Self::Value) -> usize;
}

/// A [`LogMap`] compacts once its log's superseded bytes exceed both
/// this floor and its live bytes, so a rewrite never costs more than
/// it frees.
const COMPACT_SLACK: u64 = 64 * 1024;

/// A last-writer-wins map kept in a log of [`EntryCodec`] frames.
///
/// Every change is appended through an [`Appender`] before the map
/// sees it. Opening replays the log through [`recover`]. Once the
/// bytes of superseded entries and deletes outweigh the live ones, the
/// log is rewritten as one frame per live entry: written to a
/// temporary file, `sync_all`ed, renamed over the log, and the
/// directory `fsync`ed. A map opened with [`in_memory`](LogMap::in_memory)
/// has no log and is the same map otherwise.
#[derive(Debug)]
pub struct LogMap<C: EntryCodec> {
    map: BTreeMap<C::Key, C::Value>,
    log: Option<MapLog>,
    /// Bytes in the log, and the bytes a compacted log would hold.
    log_bytes: u64,
    live_bytes: u64,
    frame: Vec<u8>,
}

#[derive(Debug)]
struct MapLog {
    point: &'static str,
    path: PathBuf,
    policy: SyncPolicy,
    appender: Appender,
}

impl<C: EntryCodec> LogMap<C> {
    /// An empty map with no log: nothing it holds survives a drop.
    #[must_use]
    pub fn in_memory() -> Self {
        LogMap {
            map: BTreeMap::new(),
            log: None,
            log_bytes: 0,
            live_bytes: 0,
            frame: Vec::new(),
        }
    }

    /// Opens (or creates) the map logged at `path`, replaying every
    /// frame. A torn final frame is cut away and counted under
    /// `point`, whose `"<point>.write"` and `"<point>.sync"` failpoints
    /// every append and compaction consults.
    ///
    /// # Errors
    ///
    /// [`FrameError::Corrupt`] for a bad frame before the tail; I/O
    /// failures.
    pub fn open<E>(point: &'static str, path: &Path, policy: SyncPolicy) -> Result<Self, E>
    where
        E: From<io::Error> + From<FrameError>,
    {
        let mut map = Self::in_memory();
        let mut ops = Vec::new();
        recover::<E>(point, path, true, |data| {
            let used = C::decode(data, &mut ops)?;
            map.log_bytes += used as u64;
            for (key, value) in ops.drain(..) {
                map.set(key, value);
            }
            Ok(used)
        })?;
        map.log = Some(MapLog {
            appender: Appender::open(point, path, policy)?,
            point,
            path: path.to_path_buf(),
            policy,
        });
        Ok(map)
    }

    /// The map as of the last applied operation.
    #[must_use]
    pub fn map(&self) -> &BTreeMap<C::Key, C::Value> {
        &self.map
    }

    /// Logs `ops` as one frame, then applies them in order, and
    /// compacts the log when superseded bytes outweigh live ones.
    ///
    /// # Errors
    ///
    /// I/O failures. The map changes only once the frame is appended
    /// (and synced, per the policy). A failed compaction leaves the
    /// applied frame in the log that the next open reads.
    pub fn apply(&mut self, ops: Vec<(C::Key, Option<C::Value>)>) -> io::Result<()> {
        if let Some(log) = &mut self.log {
            let refs: Vec<_> = ops
                .iter()
                .map(|(key, value)| (key, value.as_ref()))
                .collect();
            self.frame.clear();
            C::encode(&mut self.frame, &refs);
            log.appender.append(&self.frame)?;
            self.log_bytes += self.frame.len() as u64;
        }
        for (key, value) in ops {
            self.set(key, value);
        }
        // A batch frame can be denser than one frame per entry.
        let superseded = self.log_bytes.saturating_sub(self.live_bytes);
        if superseded > COMPACT_SLACK.max(self.live_bytes) {
            self.compact()?;
        }
        Ok(())
    }

    fn set(&mut self, key: C::Key, value: Option<C::Value>) {
        if let Some(old) = self.map.get(&key) {
            self.live_bytes -= C::len(&key, old) as u64;
        }
        match value {
            Some(value) => {
                self.live_bytes += C::len(&key, &value) as u64;
                self.map.insert(key, value);
            }
            None => {
                self.map.remove(&key);
            }
        }
    }

    /// `fsync`s every append so far, whatever the policy. Does nothing
    /// for a map in memory.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn sync(&mut self) -> io::Result<()> {
        match &mut self.log {
            Some(log) => log.appender.sync(),
            None => Ok(()),
        }
    }

    /// Rewrites the log as one frame per live entry and renames it into
    /// place. Does nothing for a map in memory.
    ///
    /// # Errors
    ///
    /// I/O failures. Until the rename the old log stays in place; after
    /// it, appends go to the new one even when the directory `fsync`
    /// fails.
    pub fn compact(&mut self) -> io::Result<()> {
        let Some(log) = &mut self.log else {
            return Ok(());
        };
        let mut buf = Vec::with_capacity(self.live_bytes as usize);
        for (key, value) in &self.map {
            C::encode(&mut buf, &[(key, Some(value))]);
        }
        let tmp = log.path.with_extension("tmp");
        let mut out = ChaosFile::new(log.point, &tmp, fs::File::create(&tmp)?)?;
        out.write_all(&buf)?;
        out.sync_all()?;
        drop(out);
        fs::rename(&tmp, &log.path)?;
        log.appender = Appender::open(log.point, &log.path, log.policy)?;
        self.log_bytes = buf.len() as u64;
        match log.path.parent() {
            Some(dir) => fsync_dir(dir),
            None => Ok(()),
        }
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
    fn reader_reads_back_what_put_writes() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -2.5);
        put_str16(&mut buf, "layer");
        put_str32(&mut buf, "über");
        buf.extend_from_slice(b"raw");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f64(), Ok(-2.5));
        assert_eq!(r.str16(), Ok("layer"));
        assert_eq!(r.str32(), Ok("über"));
        assert_eq!(r.rest(), b"raw");
        assert_eq!(r.bytes(3), Ok(&b"raw"[..]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn reader_rejects_short_trailing_and_non_utf8_bodies() {
        let corrupt = |result: Result<(), FrameError>| {
            assert!(matches!(result, Err(FrameError::Corrupt(_))), "{result:?}");
        };
        corrupt(Reader::new(&[1, 2, 3]).u32().map(drop));
        corrupt(Reader::new(&[1]).finish());
        corrupt(Reader::new(&[2, 0, 0xFF, 0xFE]).str16().map(drop));
        let mut block = b"body".to_vec();
        seal(&mut block, 0);
        assert_eq!(unseal(&block), Ok(&b"body"[..]));
        block[1] ^= 0x01;
        corrupt(unseal(&block).map(drop));
        corrupt(unseal(&block[..3]).map(drop));
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
        // Creating the log fsyncs its directory: hold the registry so a
        // `fs.dirsync` fault armed by another test cannot meet it.
        let _quiet = crate::Scenario::setup();
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

    /// A failed append's bytes are cut off before the next append, so
    /// the next acknowledged frame does not land behind a torn one.
    /// While that cut fails, appends are refused.
    #[test]
    fn a_failed_append_is_cut_off_before_the_next_one() {
        if !crate::is_compiled() {
            return;
        }
        let s = crate::Scenario::setup();
        let path = temp_path("cut");
        let _ = fs::remove_file(&path);
        let mut log = Appender::open("frame.cut", &path, SyncPolicy::Never).unwrap();
        log.append(b"a1").unwrap();
        let torn = crate::Fault::Torn {
            keep: 1,
            kind: io::ErrorKind::Other,
        };
        s.fail_nth("frame.cut.write", 1, torn);
        assert!(log.append(b"b2").is_err());
        assert_eq!(
            fs::read(&path).unwrap(),
            b"a1b",
            "torn bytes until the next append"
        );
        log.append(b"c3").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"a1c3");

        s.fail("frame.cut.write", crate::Fault::Io(io::ErrorKind::Other));
        assert!(log.append(b"d4").is_err());
        assert!(
            log.append(b"e5").is_err(),
            "the cut fails, so the append is refused"
        );
        s.clear("frame.cut.write");
        log.append(b"f6").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"a1c3f6");
        drop((log, s));
        fs::remove_file(&path).unwrap();
    }

    /// A flipped high byte of a length field makes a frame mid-log run
    /// past the end, like a torn tail; the whole frames after it show
    /// that it is damage.
    #[test]
    fn a_damaged_length_before_the_tail_is_corrupt_and_left_alone() {
        let path = temp_path("logmap-length");
        let _ = fs::remove_file(&path);
        let mut map = open_map("logmap.test", &path).unwrap();
        for key in 1..=3 {
            put(&mut map, key, b"value");
        }
        drop(map);
        let mut data = fs::read(&path).unwrap();
        data[3] ^= 0x01;
        fs::write(&path, &data).unwrap();
        assert!(matches!(
            open_map("logmap.test", &path),
            Err(FrameError::Corrupt(_))
        ));
        assert_eq!(fs::read(&path).unwrap(), data, "the log is not cut");
        fs::remove_file(&path).unwrap();
    }

    /// Test entries: `key u32 · [value]` in an envelope, where a body
    /// of just the key deletes it.
    #[derive(Debug)]
    struct Entries;

    impl EntryCodec for Entries {
        type Key = u32;
        type Value = Vec<u8>;

        fn encode(buf: &mut Vec<u8>, ops: &[(&u32, Option<&Vec<u8>>)]) {
            for (key, value) in ops {
                encode(buf, |b| {
                    put_u32(b, **key);
                    if let Some(value) = value {
                        put_u8(b, 1);
                        b.extend_from_slice(value);
                    }
                });
            }
        }

        fn decode(data: &[u8], ops: &mut Vec<(u32, Option<Vec<u8>>)>) -> Result<usize, FrameError> {
            let (body, used) = split(data)?;
            let mut r = Reader::new(body);
            let key = r.u32()?;
            let value = match r.rest() {
                [] => None,
                [_, value @ ..] => Some(value.to_vec()),
            };
            ops.push((key, value));
            Ok(used)
        }

        fn len(_: &u32, value: &Vec<u8>) -> usize {
            OVERHEAD + 5 + value.len()
        }
    }

    type Map = LogMap<Entries>;

    fn open_map(point: &'static str, path: &Path) -> Result<Map, FrameError> {
        Map::open::<AnyError>(point, path, SyncPolicy::Never).map_err(|err| {
            match err.downcast::<FrameError>() {
                Ok(frame) => *frame,
                Err(err) => panic!("{point}: open failed: {err}"),
            }
        })
    }

    type AnyError = Box<dyn std::error::Error>;

    fn put(map: &mut Map, key: u32, value: &[u8]) {
        map.apply(vec![(key, Some(value.to_vec()))]).unwrap();
    }

    fn entries(map: &Map) -> Vec<(u32, Vec<u8>)> {
        map.map().iter().map(|(k, v)| (*k, v.clone())).collect()
    }

    #[test]
    fn log_map_replays_with_the_last_writer_winning() {
        let path = temp_path("logmap-replay");
        let _ = fs::remove_file(&path);
        let mut map = open_map("logmap.test", &path).unwrap();
        put(&mut map, 1, b"a");
        put(&mut map, 2, b"b");
        put(&mut map, 1, b"c");
        map.apply(vec![(3, Some(b"d".to_vec())), (2, None)])
            .unwrap();
        let live = vec![(1, b"c".to_vec()), (3, b"d".to_vec())];
        assert_eq!(entries(&map), live);
        drop(map);
        assert_eq!(entries(&open_map("logmap.test", &path).unwrap()), live);

        let mut memory = Map::in_memory();
        put(&mut memory, 1, b"a");
        memory.apply(vec![(1, None)]).unwrap();
        assert!(memory.map().is_empty());
        memory.compact().unwrap();
        memory.sync().unwrap();
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn log_map_compaction_drops_superseded_entries_and_tombstones() {
        // Compaction fsyncs the directory; see above.
        let _quiet = crate::Scenario::setup();
        let path = temp_path("logmap-compact");
        let _ = fs::remove_file(&path);
        let mut map = open_map("logmap.test", &path).unwrap();
        for round in 0..5u8 {
            for key in 0..4 {
                put(&mut map, key, &[round]);
            }
        }
        map.apply(vec![(0, None)]).unwrap();
        map.compact().unwrap();
        let mut live = Vec::new();
        for key in 1..4u32 {
            Entries::encode(&mut live, &[(&key, Some(&vec![4]))]);
        }
        assert_eq!(fs::read(&path).unwrap(), live, "one frame per live entry");
        assert_eq!(
            (map.log_bytes, map.live_bytes),
            (live.len() as u64, live.len() as u64)
        );
        put(&mut map, 9, b"after");
        drop(map);
        let map = open_map("logmap.test", &path).unwrap();
        assert_eq!(map.map().get(&0), None);
        assert_eq!(map.map().get(&3), Some(&vec![4]));
        assert_eq!(map.map().get(&9), Some(&b"after".to_vec()));
        drop(map);

        // Overwrites compact on their own once the superseded bytes
        // pass the slack and the live bytes.
        fs::remove_file(&path).unwrap();
        let mut map = open_map("logmap.test", &path).unwrap();
        let value = vec![7; 1024];
        for _ in 0..200 {
            put(&mut map, 1, &value);
        }
        let len = fs::metadata(&path).unwrap().len();
        assert!(
            len <= COMPACT_SLACK + 2 * 1024,
            "log stays compact: {len} bytes"
        );
        assert_eq!(len, map.log_bytes);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn log_map_cuts_a_torn_tail_at_every_byte_of_its_final_frame() {
        let path = temp_path("logmap-torn");
        let _ = fs::remove_file(&path);
        let mut map = open_map("logmap.torn", &path).unwrap();
        put(&mut map, 1, b"one");
        put(&mut map, 2, b"two");
        let prefix = fs::read(&path).unwrap().len();
        put(&mut map, 3, b"three");
        drop(map);
        let full = fs::read(&path).unwrap();
        for cut in prefix..=full.len() {
            let torn = prefix < cut && cut < full.len();
            fs::write(&path, &full[..cut]).unwrap();
            let before = tails_truncated("logmap.torn");
            let mut map = open_map("logmap.torn", &path).unwrap();
            let keys: Vec<u32> = map.map().keys().copied().collect();
            let expected: &[u32] = if cut == full.len() {
                &[1, 2, 3]
            } else {
                &[1, 2]
            };
            assert_eq!(keys, expected, "cut {cut}");
            assert_eq!(
                tails_truncated("logmap.torn") - before,
                u64::from(torn),
                "cut {cut}"
            );
            assert_eq!(
                fs::metadata(&path).unwrap().len() as usize,
                if torn { prefix } else { cut }
            );
            put(&mut map, 9, b"post");
            drop(map);
            let map = open_map("logmap.torn", &path).unwrap();
            assert_eq!(map.map().get(&9), Some(&b"post".to_vec()), "cut {cut}");
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn log_map_mid_log_corruption_is_corrupt() {
        let path = temp_path("logmap-corrupt");
        let _ = fs::remove_file(&path);
        let mut map = open_map("logmap.test", &path).unwrap();
        put(&mut map, 1, b"one");
        put(&mut map, 2, b"two");
        drop(map);
        let mut data = fs::read(&path).unwrap();
        data[5] ^= 0x01;
        fs::write(&path, data).unwrap();
        assert!(matches!(
            open_map("logmap.test", &path),
            Err(FrameError::Corrupt(_))
        ));
        fs::remove_file(&path).unwrap();
    }

    /// A compaction that fails at any of its I/O steps must leave the
    /// map appending to the file that the next open reads.
    #[test]
    fn log_map_appends_survive_a_failed_compaction() {
        if !crate::is_compiled() {
            return;
        }
        for point in [
            "logmap.fail.write",
            "logmap.fail.sync",
            crate::vfs::DIR_SYNC_POINT,
        ] {
            let s = crate::Scenario::setup();
            let path = temp_path("logmap-fail");
            let _ = fs::remove_file(&path);
            let mut map = open_map("logmap.fail", &path).unwrap();
            put(&mut map, 1, b"one");
            put(&mut map, 1, b"uno");
            s.fail(point, crate::Fault::Io(io::ErrorKind::Other));
            assert!(map.compact().is_err(), "{point}: compaction fails");
            s.clear(point);
            put(&mut map, 2, b"two");
            drop(map);
            let map = open_map("logmap.fail", &path).unwrap();
            let expected = vec![(1, b"uno".to_vec()), (2, b"two".to_vec())];
            assert_eq!(entries(&map), expected, "{point}");
            drop((map, s));
            fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn log_map_ignores_a_stale_compaction_file() {
        // Compaction fsyncs the directory; see above.
        let _quiet = crate::Scenario::setup();
        let path = temp_path("logmap-stale");
        let _ = fs::remove_file(&path);
        let mut map = open_map("logmap.test", &path).unwrap();
        put(&mut map, 1, b"one");
        put(&mut map, 1, b"uno");
        drop(map);
        // A compaction that crashed before its rename left this behind.
        let tmp = path.with_extension("tmp");
        let mut stale = Vec::new();
        Entries::encode(&mut stale, &[(&7, Some(&b"stale".to_vec()))]);
        fs::write(&tmp, &stale[..stale.len() - 2]).unwrap();
        let mut map = open_map("logmap.test", &path).unwrap();
        assert_eq!(entries(&map), vec![(1, b"uno".to_vec())]);
        map.compact().unwrap();
        drop(map);
        assert!(!tmp.exists(), "the next compaction renames over it");
        let map = open_map("logmap.test", &path).unwrap();
        assert_eq!(entries(&map), vec![(1, b"uno".to_vec())]);
        fs::remove_file(&path).unwrap();
    }
}
