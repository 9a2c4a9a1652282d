//! Crash-safety under deterministic fault injection (`strata-chaos`).
//!
//! Kill-and-reopen loops over the durable substrates: the kv WAL is
//! torn mid-append and power-lossed, pub/sub segment appends are torn,
//! the committed-offset store loses its fsync, and a broker server's
//! connections are severed at exact byte boundaries. In every case the
//! invariants are the same — no acknowledged write is lost, stores
//! always reopen, and a remote consumer resumes exactly-once.
//!
//! All scenarios are driven by seeded triggers: the same chaos seed
//! replays the same faults, so failures here reproduce byte-for-byte.

use std::collections::{BTreeMap, BTreeSet};
use std::io::ErrorKind;
use std::time::Duration;

use strata_chaos::frame::tails_truncated;
use strata_chaos::{fired, simulate_crash, Fault, Scenario};
use strata_kv::{Db, DbOptions, SyncPolicy as KvSync};
use strata_net::{BrokerClient, BrokerServer, RemoteConsumer, RemoteProducer};
use strata_pubsub::log::{FileLog, PartitionLog};
use strata_pubsub::{Broker, LogKind, Record, SyncPolicy as PubSync, TopicConfig};

/// Fixed seed for probabilistic triggers: same seed, same fault
/// schedule, same test outcome.
const CHAOS_SEED: u64 = 0x57247A;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("strata-crash-{tag}-{}", std::process::id()))
}

/// Kill-and-reopen loop on the kv store: appends are torn at seeded
/// random points, every crash is followed by a power loss (unsynced
/// bytes vanish), and after each reopen every acknowledged put must
/// still be readable. `SyncPolicy::Always` means acked == durable.
#[test]
fn kv_acked_writes_survive_torn_wal_crash_loops() {
    if !strata_chaos::is_compiled() {
        return;
    }
    let dir = temp_dir("kv-loop");
    let _ = std::fs::remove_dir_all(&dir);
    let options = || DbOptions::default().sync_policy(KvSync::Always);

    let s = Scenario::setup();
    s.fail_with_probability(
        "kv.wal.write",
        0.08,
        CHAOS_SEED,
        Fault::Torn {
            keep: 7,
            kind: ErrorKind::Other,
        },
    );

    let mut acked: BTreeMap<String, String> = BTreeMap::new();
    let mut seq = 0u32;
    for round in 0..6 {
        let db = Db::open(&dir, options())
            .unwrap_or_else(|e| panic!("store must reopen after crash {round}: {e}"));
        for (k, v) in &acked {
            assert_eq!(
                db.get(k).unwrap().as_deref(),
                Some(v.as_bytes()),
                "acked key {k} lost in round {round}"
            );
        }
        for _ in 0..40 {
            let k = format!("key-{seq:05}");
            let v = format!("val-{seq:05}");
            seq += 1;
            match db.put(&k, &v) {
                Ok(()) => {
                    acked.insert(k, v);
                }
                // The torn write "kills the process" mid-append.
                Err(_) => break,
            }
        }
        drop(db);
        // Power loss: whatever was never fsynced is gone.
        simulate_crash(&dir.join("wal.log")).unwrap();
    }
    assert!(
        fired("kv.wal.write") >= 1,
        "the seeded fault schedule should tear at least one append"
    );
    drop(s); // Disarm; verify once more with chaos off.

    let db = Db::open(&dir, options()).expect("final reopen");
    assert!(!acked.is_empty());
    for (k, v) in &acked {
        assert_eq!(db.get(k).unwrap().as_deref(), Some(v.as_bytes()));
    }
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A torn segment append (partial frame on disk, never acked) must
/// not keep the partition log from reopening: the torn tail is
/// truncated, the failed record is absent, and appends continue at
/// the next offset.
#[test]
fn pubsub_torn_segment_append_recovers_on_reopen() {
    if !strata_chaos::is_compiled() {
        return;
    }
    let dir = temp_dir("pubsub-segment");
    let _ = std::fs::remove_dir_all(&dir);
    let s = Scenario::setup();
    let truncations_before = tails_truncated("pubsub.segment");
    {
        let mut log = FileLog::open(&dir, 1 << 20, PubSync::Always).unwrap();
        for i in 0..5u8 {
            log.append(Record::new(None::<Vec<u8>>, vec![i])).unwrap();
        }
        s.fail_nth(
            "pubsub.segment.write",
            1,
            Fault::Torn {
                keep: 9,
                kind: ErrorKind::Other,
            },
        );
        assert!(
            log.append(Record::new(None::<Vec<u8>>, vec![5u8])).is_err(),
            "the torn append must not ack"
        );
    } // Crash with a partial frame at the tail.

    let mut log = FileLog::open(&dir, 1 << 20, PubSync::Always).expect("log reopens");
    assert_eq!(log.end_offset(), 5, "only acked records survive");
    assert_eq!(
        tails_truncated("pubsub.segment") - truncations_before,
        1,
        "recovery counter reflects the truncated tail"
    );
    assert_eq!(
        log.append(Record::new(None::<Vec<u8>>, vec![9u8])).unwrap(),
        5,
        "appends continue at the next offset after recovery"
    );
    let records = log.read_from(0, usize::MAX).unwrap();
    assert_eq!(records.len(), 6);
    assert_eq!(records[5].record.value.as_ref(), &[9u8]);
    drop(log);
    drop(s);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Under `EveryN(n)` a power loss may cost at most the last `n - 1`
/// appends, also when they straddle segment rolls: a roll syncs the
/// outgoing segment, so a later segment never outlives an earlier
/// segment's unsynced tail (which would leave an offset gap that keeps
/// the partition from reopening).
#[test]
fn pubsub_every_n_power_loss_across_segment_rolls_loses_at_most_n_minus_1() {
    if !strata_chaos::is_compiled() {
        return;
    }
    const N: u32 = 2;
    const APPENDS: u8 = 4;
    let dir = temp_dir("pubsub-roll");
    let _ = std::fs::remove_dir_all(&dir);
    let s = Scenario::setup();
    {
        // A one-byte segment size puts every record in its own segment.
        let mut log = FileLog::open(&dir, 1, PubSync::EveryN(N)).unwrap();
        for i in 0..APPENDS {
            log.append(Record::new(None::<Vec<u8>>, vec![i])).unwrap();
        }
    }
    for segment in std::fs::read_dir(&dir).unwrap() {
        simulate_crash(&segment.unwrap().path()).unwrap();
    }

    let mut log =
        FileLog::open(&dir, 1, PubSync::EveryN(N)).expect("partition reopens after power loss");
    let records = log.read_from(0, usize::MAX).unwrap();
    assert!(
        records.len() >= usize::from(APPENDS) - (N as usize - 1),
        "lost more than n - 1 acked records: {} of {APPENDS} survive",
        records.len()
    );
    for (i, r) in records.iter().enumerate() {
        assert_eq!(
            r.record.value.as_ref(),
            &[i as u8],
            "records survive in order"
        );
    }
    drop(log);
    drop(s);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A failed fsync on the committed-offset store must fail the commit
/// (not silently ack it), and a subsequent power loss must leave
/// exactly the acknowledged commits behind.
#[test]
fn broker_offset_commits_honor_sync_failures_across_power_loss() {
    if !strata_chaos::is_compiled() {
        return;
    }
    let dir = temp_dir("offsets");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("offsets.log");
    let s = Scenario::setup();
    {
        let broker = Broker::with_offset_store(&path, PubSync::Always).unwrap();
        broker.create_topic("t", TopicConfig::new(1)).unwrap();
        broker.commit_offset("g", "t", 0, 4).unwrap();
        s.fail("pubsub.offsets.sync", Fault::Io(ErrorKind::Other));
        assert!(
            broker.commit_offset("g", "t", 0, 9).is_err(),
            "a commit whose fsync failed must not ack"
        );
        assert_eq!(
            broker.committed_offset("g", "t", 0),
            Some(4),
            "the in-memory view must not run ahead of durability"
        );
        s.clear("pubsub.offsets.sync");
    }
    simulate_crash(&path).unwrap();
    let broker = Broker::with_offset_store(&path, PubSync::Always).expect("broker reopens");
    assert_eq!(
        broker.committed_offset("g", "t", 0),
        Some(4),
        "exactly the acked commit survives the power loss"
    );
    drop(broker);
    drop(s);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// End to end: a file-backed broker with durable group offsets serves
/// a remote consumer whose connection is severed mid-response; the
/// server is then shut down and rebuilt from disk. The consumer side
/// (reconnect + a successor in the same group) must see every record
/// exactly once.
#[test]
fn remote_consumer_resumes_exactly_once_across_sever_and_restart() {
    if !strata_chaos::is_compiled() {
        return;
    }
    const RECORDS: u64 = 60;
    let dir = temp_dir("net-resume");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let s = Scenario::setup();

    let open_broker = || {
        let broker = Broker::with_offset_store(dir.join("offsets.log"), PubSync::Always)
            .expect("broker reopens from its offset store");
        broker
            .create_topic(
                "t",
                TopicConfig::new(2).with_log(LogKind::File {
                    dir: dir.join("log"),
                    segment_bytes: 4096,
                    sync: PubSync::Always,
                }),
            )
            .expect("file-backed topic reopens from its segments");
        broker
    };

    // Phase 1: produce everything over a clean connection.
    let mut server = BrokerServer::bind("127.0.0.1:0", open_broker()).unwrap();
    let addr = server.local_addr().to_string();
    {
        let mut producer = RemoteProducer::connect(&addr).unwrap();
        for seq in 0..RECORDS {
            let key = format!("m-{}", seq % 5);
            producer
                .send("t", Some(key.as_bytes()), seq.to_le_bytes().to_vec())
                .unwrap();
        }
    }

    // Phase 2: consume about half, with one response severed at an
    // exact byte boundary. Committing after every delivered batch
    // makes "delivered" and "committed" coincide, so the reconnect
    // (and phase 3's successor) must never re-deliver.
    let mut seen: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    {
        let client = BrokerClient::connect(&addr).unwrap();
        let mut consumer = RemoteConsumer::new(client, "g", &["t"]).unwrap();
        consumer.set_max_poll_records(8);
        s.fail_nth("net.server.send", 4, Fault::Sever { after: 5 });
        let mut delivered = 0u64;
        let mut attempts = 0;
        while delivered < RECORDS / 2 {
            attempts += 1;
            assert!(attempts < 500, "consumer made no progress");
            let batch = match consumer.poll(Duration::from_millis(200)) {
                Ok(batch) => batch,
                Err(_) => continue, // Severed mid-exchange; client reconnects.
            };
            for r in &batch {
                let seq = u64::from_le_bytes(r.record.value.as_ref().try_into().unwrap());
                let prev = seen.insert((r.partition, r.offset), seq);
                assert!(
                    prev.is_none(),
                    "slot ({}, {}) re-delivered",
                    r.partition,
                    r.offset
                );
                delivered += 1;
            }
            let mut commit_tries = 0;
            while consumer.commit().is_err() {
                commit_tries += 1;
                assert!(commit_tries < 100, "commit never succeeded");
            }
        }
        assert_eq!(fired("net.server.send"), 1, "the sever fired exactly once");
    }

    // Phase 3: broker restart — rebuild server, broker, topic and
    // group state from disk; a successor consumer in the same group
    // resumes from the committed offsets.
    server.shutdown();
    drop(server);
    let _server = BrokerServer::bind("127.0.0.1:0", open_broker()).unwrap();
    let addr = _server.local_addr().to_string();
    let client = BrokerClient::connect(&addr).unwrap();
    let mut consumer = RemoteConsumer::new(client, "g", &["t"]).unwrap();
    consumer.set_max_poll_records(64);
    let mut idle = 0;
    while seen.len() < RECORDS as usize && idle < 100 {
        let batch = consumer.poll(Duration::from_millis(100)).unwrap();
        if batch.is_empty() {
            idle += 1;
            continue;
        }
        for r in &batch {
            let seq = u64::from_le_bytes(r.record.value.as_ref().try_into().unwrap());
            let prev = seen.insert((r.partition, r.offset), seq);
            assert!(
                prev.is_none(),
                "committed slot ({}, {}) re-delivered after restart",
                r.partition,
                r.offset
            );
        }
        consumer.commit().unwrap();
    }
    assert_eq!(seen.len(), RECORDS as usize, "every record delivered");
    let seqs: BTreeSet<u64> = seen.values().copied().collect();
    assert_eq!(
        seqs.len(),
        RECORDS as usize,
        "every sequence number seen exactly once"
    );
    drop(consumer);
    drop(s);
    std::fs::remove_dir_all(&dir).unwrap();
}
