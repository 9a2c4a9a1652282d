//! Torn-tail recovery at every byte of the final frame, for each of the
//! three on-disk log formats that recover through
//! `strata_chaos::frame`: the kv WAL, a pub/sub segment and the
//! committed-offset store.
//!
//! The binary holds a single test, so nothing else in the process moves
//! the torn-tail counters while it reads them.

use std::fs;
use std::path::{Path, PathBuf};

use strata_chaos::frame::tails_truncated;
use strata_kv::{Db, DbOptions};
use strata_pubsub::log::{FileLog, PartitionLog};
use strata_pubsub::{OffsetStore, Record, SyncPolicy as PubSync};

/// One on-disk log format. Items are single bytes, appended one frame
/// each.
struct Format {
    /// Chaos point prefix, which keys the format's torn-tail counter.
    point: &'static str,
    /// The file under `dir` that the frames land in.
    file: fn(&Path) -> PathBuf,
    /// Appends one item.
    append: fn(&Path, u8),
    /// Recovers the log: its items in order, or `None` for `Corrupt`.
    recover: fn(&Path) -> Option<Vec<u8>>,
}

const SEGMENT_BYTES: u64 = 1 << 20;

fn wal_file(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

fn wal_append(dir: &Path, item: u8) {
    let db = Db::open(dir, DbOptions::default()).unwrap();
    db.put([item], b"value").unwrap();
}

fn wal_recover(dir: &Path) -> Option<Vec<u8>> {
    match Db::open(dir, DbOptions::default()) {
        // Keys come in order, and each item is its own key.
        Ok(db) => Some(
            db.range(Vec::new(), Vec::new())
                .unwrap()
                .iter()
                .map(|(key, _)| key[0])
                .collect(),
        ),
        Err(strata_kv::Error::Corrupt(_)) => None,
        Err(err) => panic!("wal recovery failed: {err}"),
    }
}

fn segment_file(dir: &Path) -> PathBuf {
    dir.join(format!("{:020}.seg", 0))
}

fn segment_append(dir: &Path, item: u8) {
    let mut log = FileLog::open(dir, SEGMENT_BYTES, PubSync::Never).unwrap();
    log.append(Record::new(None::<Vec<u8>>, vec![item]))
        .unwrap();
}

fn segment_recover(dir: &Path) -> Option<Vec<u8>> {
    match FileLog::open(dir, SEGMENT_BYTES, PubSync::Never) {
        Ok(mut log) => Some(
            log.read_from(0, usize::MAX)
                .unwrap()
                .iter()
                .map(|stored| stored.record.value[0])
                .collect(),
        ),
        Err(strata_pubsub::Error::Corrupt(_)) => None,
        Err(err) => panic!("segment recovery failed: {err}"),
    }
}

fn offsets_file(dir: &Path) -> PathBuf {
    dir.join("offsets.log")
}

fn offsets_append(dir: &Path, item: u8) {
    let mut store = OffsetStore::open(offsets_file(dir), PubSync::Never).unwrap();
    store
        .record("group", "topic", u32::from(item), u64::from(item))
        .unwrap();
}

fn offsets_recover(dir: &Path) -> Option<Vec<u8>> {
    match OffsetStore::open(offsets_file(dir), PubSync::Never) {
        // Entries come in key order, and each item is its own partition.
        Ok(store) => Some(store.entries().map(|((_, _, p), _)| *p as u8).collect()),
        Err(strata_pubsub::Error::Corrupt(_)) => None,
        Err(err) => panic!("offset store recovery failed: {err}"),
    }
}

const FORMATS: [Format; 3] = [
    Format {
        point: "kv.wal",
        file: wal_file,
        append: wal_append,
        recover: wal_recover,
    },
    Format {
        point: "pubsub.segment",
        file: segment_file,
        append: segment_append,
        recover: segment_recover,
    },
    Format {
        point: "pubsub.offsets",
        file: offsets_file,
        append: offsets_append,
        recover: offsets_recover,
    },
];

/// Cutting the log anywhere inside its final frame must recover exactly
/// the earlier frames, cut the file back to them, count one torn tail,
/// and leave the log accepting appends that survive the next recovery.
/// Cuts on a frame boundary are not torn. A flipped bit in an earlier
/// frame is corruption, never a tail.
#[test]
fn every_format_recovers_at_every_byte_of_its_final_frame() {
    for format in FORMATS {
        let point = format.point;
        let dir = std::env::temp_dir().join(format!("strata-torn-{point}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let file = (format.file)(&dir);
        (format.append)(&dir, 0);
        let first_frame = fs::read(&file).unwrap().len();
        (format.append)(&dir, 1);
        let prefix = fs::read(&file).unwrap().len();
        (format.append)(&dir, 2);
        let full = fs::read(&file).unwrap();

        for cut in prefix..=full.len() {
            let torn = prefix < cut && cut < full.len();
            fs::write(&file, &full[..cut]).unwrap();
            let before = tails_truncated(point);
            let items = (format.recover)(&dir)
                .unwrap_or_else(|| panic!("{point}: cut {cut} reported as corrupt"));
            let expected: &[u8] = if cut == full.len() {
                &[0, 1, 2]
            } else {
                &[0, 1]
            };
            assert_eq!(items, expected, "{point}: valid prefix at cut {cut}");
            assert_eq!(
                fs::metadata(&file).unwrap().len() as usize,
                if torn { prefix } else { cut },
                "{point}: file cut back to the valid prefix at cut {cut}"
            );
            assert_eq!(
                tails_truncated(point) - before,
                u64::from(torn),
                "{point}: torn-tail count at cut {cut}"
            );
            (format.append)(&dir, 9);
            let after = (format.recover)(&dir).expect("log recovers after the append");
            assert_eq!(
                after.last(),
                Some(&9),
                "{point}: append after recovery survives the next recovery (cut {cut})"
            );
        }

        // The last byte of the first frame belongs to its CRC.
        let mut flipped = full;
        flipped[first_frame - 1] ^= 0x01;
        fs::write(&file, &flipped).unwrap();
        assert_eq!(
            (format.recover)(&dir),
            None,
            "{point}: a bad non-final frame is corrupt"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
