//! Durability-focused integration tests: large values, byte-wise key
//! ordering, log compaction, batch atomicity across crashes and
//! failed writes, and directories of the retired LSM layout.
//!
//! The failpoint registry is process-wide, and a point armed by one
//! test fires in every thread that reaches it. So every test that opens
//! a `Db` holds a [`Scenario`] for its whole body, armed or not: the
//! scenarios serialize, and no test writes through `kv.wal.write` while
//! a sibling has that point armed.

use std::fs;
use std::io::ErrorKind;

use strata_chaos::{Fault, Scenario};
use strata_kv::{Db, DbOptions, Error, SyncPolicy, WriteBatch};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("strata-kv-int-{tag}-{}", std::process::id()))
}

#[test]
fn with_wal_everything_survives() {
    let _serial = Scenario::setup();
    let dir = temp_dir("wal");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        db.put("a", "1").unwrap();
        db.flush().unwrap();
        db.put("b", "2").unwrap(); // written, not yet fsynced
    }
    let db = Db::open(&dir, DbOptions::default()).unwrap();
    assert_eq!(db.get("a").unwrap(), Some(b"1".to_vec()));
    assert_eq!(db.get("b").unwrap(), Some(b"2".to_vec()));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn megabyte_values_round_trip_through_the_log() {
    let _serial = Scenario::setup();
    let dir = temp_dir("large");
    let _ = std::fs::remove_dir_all(&dir);
    let db = Db::open(&dir, DbOptions::default()).unwrap();
    let big: Vec<u8> = (0..2_000_000u32).map(|i| (i % 251) as u8).collect();
    db.put("ot-image/job-1/layer-0", &big).unwrap();
    db.flush().unwrap();
    assert_eq!(db.get("ot-image/job-1/layer-0").unwrap(), Some(big.clone()));
    drop(db);
    let db = Db::open(&dir, DbOptions::default()).unwrap();
    assert_eq!(db.get("ot-image/job-1/layer-0").unwrap(), Some(big));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn range_order_is_bytewise() {
    let _serial = Scenario::setup();
    let dir = temp_dir("order");
    let _ = std::fs::remove_dir_all(&dir);
    let db = Db::open(&dir, DbOptions::default()).unwrap();
    // Mixed-length keys exercise byte-wise (not length-first) order.
    let keys: Vec<&[u8]> = vec![b"a", b"a\x00", b"a\xff", b"ab", b"b", b"\xff"];
    for (i, k) in keys.iter().enumerate() {
        db.put(k, [i as u8]).unwrap();
        if i % 2 == 0 {
            db.compact().unwrap(); // some keys from the rewritten log
        }
    }
    let got: Vec<Vec<u8>> = db
        .range(Vec::new(), Vec::new())
        .unwrap()
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    let mut expected: Vec<Vec<u8>> = keys.iter().map(|k| k.to_vec()).collect();
    expected.sort();
    assert_eq!(got, expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn overwrite_heavy_workload_compacts_away_garbage() {
    let _serial = Scenario::setup();
    let dir = temp_dir("compactgc");
    let _ = std::fs::remove_dir_all(&dir);
    let db = Db::open(&dir, DbOptions::default()).unwrap();
    // Write the same 10 keys 500 times each.
    for round in 0..500u32 {
        for k in 0..10 {
            db.put(format!("key-{k}"), format!("round-{round}"))
                .unwrap();
        }
    }
    db.flush().unwrap();
    db.compact().unwrap();
    for k in 0..10 {
        assert_eq!(
            db.get(format!("key-{k}")).unwrap(),
            Some(b"round-499".to_vec())
        );
    }
    let all = db.range(Vec::new(), Vec::new()).unwrap();
    assert_eq!(all.len(), 10);
    // The compacted log holds exactly the 10 live puts:
    // tag · key_len · "key-k" · value_len · "round-499" · crc.
    let live = 10 * (1 + 4 + 5 + 4 + 9 + 4);
    assert_eq!(fs::metadata(dir.join("wal.log")).unwrap().len(), live);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn keys(db: &Db) -> Vec<Vec<u8>> {
    db.range(Vec::new(), Vec::new())
        .unwrap()
        .into_iter()
        .map(|(k, _)| k)
        .collect()
}

/// A crash anywhere inside a batch's append keeps none of the batch:
/// the batch is one frame, so its torn tail is cut whole.
#[test]
fn a_batch_survives_a_torn_tail_whole_or_not_at_all() {
    let _serial = Scenario::setup();
    let dir = temp_dir("batch-torn");
    let _ = fs::remove_dir_all(&dir);
    let wal = dir.join("wal.log");
    {
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        db.put("base", "0").unwrap();
        let mut batch = WriteBatch::new();
        batch.put("a", "1").put("b", "2").put("c", "3");
        db.write(batch).unwrap();
    }
    let full = fs::read(&wal).unwrap();
    // tag · key_len · "base" · value_len · "0" · crc.
    let base = 1 + 4 + 4 + 4 + 1 + 4;
    for cut in base..=full.len() {
        fs::write(&wal, &full[..cut]).unwrap();
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        let expected: Vec<&[u8]> = if cut == full.len() {
            vec![b"a", b"b", b"base", b"c"]
        } else {
            vec![b"base"]
        };
        assert_eq!(keys(&db), expected, "cut {cut} of {}", full.len());
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Whichever log write fails, a batch that returns `Err` leaves none of
/// its operations behind, in memory or after a reopen, and a batch that
/// returns `Ok` leaves all of them.
#[test]
fn a_batch_whose_log_write_fails_is_applied_whole_or_not_at_all() {
    if !strata_chaos::is_compiled() {
        return;
    }
    let dir = temp_dir("batch-fail");
    let mut failures = 0;
    for nth in 1..=3 {
        let _ = fs::remove_dir_all(&dir);
        let scenario = Scenario::setup();
        let db = Db::open(&dir, DbOptions::default().sync_policy(SyncPolicy::Always)).unwrap();
        scenario.fail_nth("kv.wal.write", nth, Fault::Io(ErrorKind::Other));
        let mut batch = WriteBatch::new();
        batch.put("a", "1").put("b", "2").put("c", "3");
        let expected: Vec<&[u8]> = match db.write(batch) {
            Ok(()) => vec![b"a", b"b", b"c"],
            Err(_) => {
                failures += 1;
                Vec::new()
            }
        };
        scenario.clear("kv.wal.write");
        assert_eq!(keys(&db), expected, "in memory, write {nth} failing");
        drop(db);
        let db = Db::open(&dir, DbOptions::default()).unwrap();
        assert_eq!(keys(&db), expected, "after reopen, write {nth} failing");
        drop((db, scenario));
    }
    assert!(failures >= 1, "the armed failpoint fails a batch");
    fs::remove_dir_all(&dir).unwrap();
}

/// A put whose log write tore must not leave bytes that swallow the
/// next acknowledged put on reopen.
#[test]
fn a_torn_put_does_not_hide_the_next_one() {
    if !strata_chaos::is_compiled() {
        return;
    }
    let dir = temp_dir("torn-put");
    let _ = fs::remove_dir_all(&dir);
    let scenario = Scenario::setup();
    let db = Db::open(&dir, DbOptions::default()).unwrap();
    db.put("a", "1").unwrap();
    let torn = Fault::Torn {
        keep: 7,
        kind: ErrorKind::Other,
    };
    scenario.fail_nth("kv.wal.write", 1, torn);
    assert!(db.put("b", "2").is_err());
    db.put("c", "3").unwrap();
    scenario.clear("kv.wal.write");
    drop(db);
    let db = Db::open(&dir, DbOptions::default()).unwrap();
    assert_eq!(keys(&db), vec![b"a".to_vec(), b"c".to_vec()]);
    fs::remove_dir_all(&dir).unwrap();
}

/// A flipped length byte in the first of three frames must fail the
/// open and leave the log as it is, not read as a torn tail that cuts
/// all three.
#[test]
fn a_damaged_length_mid_log_fails_open_and_keeps_the_log() {
    let _serial = Scenario::setup();
    let dir = temp_dir("flipped-length");
    let _ = fs::remove_dir_all(&dir);
    let db = Db::open(&dir, DbOptions::default()).unwrap();
    for key in ["a", "b", "c"] {
        db.put(key, "1").unwrap();
    }
    drop(db);
    let wal = dir.join("wal.log");
    let mut data = fs::read(&wal).unwrap();
    assert_eq!(data.len(), 45);
    data[4] ^= 0x01; // The high byte of the first frame's key_len.
    fs::write(&wal, &data).unwrap();
    assert!(matches!(
        Db::open(&dir, DbOptions::default()),
        Err(Error::Corrupt(_))
    ));
    assert_eq!(fs::read(&wal).unwrap(), data, "the log is not cut");
    fs::remove_dir_all(&dir).unwrap();
}

/// Data that an older version of the store flushed into SSTables is not
/// in the log; opening must fail and name the file rather than come up
/// without it.
#[test]
fn open_refuses_a_directory_of_the_retired_sstable_layout() {
    let _serial = Scenario::setup();
    let dir = temp_dir("sstables");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("000000000001.sst"), b"flushed before the upgrade").unwrap();
    match Db::open(&dir, DbOptions::default()) {
        Err(Error::Corrupt(msg)) => assert!(msg.contains("000000000001.sst"), "{msg}"),
        other => panic!("expected the SSTable to be refused, got {other:?}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}
