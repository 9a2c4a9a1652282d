//! Property-based tests: the store behaves like a sorted map under
//! arbitrary operation sequences, across flushes, compactions and
//! reopens.

use std::collections::BTreeMap;

use proptest::prelude::*;
use strata_kv::{Db, DbOptions, WriteBatch};

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Batch(Vec<(Vec<u8>, Option<Vec<u8>>)>),
    Flush,
    Compact,
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // A small key universe maximizes overwrite/delete interactions.
    proptest::collection::vec(0u8..8, 1..4)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (key_strategy(), proptest::collection::vec(any::<u8>(), 0..24))
            .prop_map(|(k, v)| Op::Put(k, v)),
        2 => key_strategy().prop_map(Op::Delete),
        1 => proptest::collection::vec(
                (key_strategy(), proptest::option::of(proptest::collection::vec(any::<u8>(), 0..16))),
                1..5
            ).prop_map(Op::Batch),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
    ]
}

fn apply(db: &Db, model: &mut BTreeMap<Vec<u8>, Vec<u8>>, op: &Op, disk: bool) {
    match op {
        Op::Put(k, v) => {
            db.put(k, v).unwrap();
            model.insert(k.clone(), v.clone());
        }
        Op::Delete(k) => {
            db.delete(k).unwrap();
            model.remove(k);
        }
        Op::Batch(ops) => {
            let mut batch = WriteBatch::new();
            for (k, v) in ops {
                match v {
                    Some(v) => {
                        batch.put(k, v);
                        model.insert(k.clone(), v.clone());
                    }
                    None => {
                        batch.delete(k);
                        model.remove(k);
                    }
                }
            }
            db.write(batch).unwrap();
        }
        Op::Flush if disk => db.flush().unwrap(),
        Op::Compact if disk => db.compact().unwrap(),
        _ => {}
    }
}

fn check_against_model(db: &Db, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    // Point lookups.
    for (k, v) in model {
        assert_eq!(db.get(k).unwrap().as_ref(), Some(v), "key {k:?}");
    }
    // A key outside the model must be absent.
    assert_eq!(db.get(b"\xFF\xFF\xFF-absent").unwrap(), None);
    // Full range scan equals the model.
    let scanned = db.range(Vec::new(), Vec::new()).unwrap();
    let expected: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(scanned, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// In-memory mode equals the model map.
    #[test]
    fn memory_db_matches_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let db = Db::open_in_memory(DbOptions::default()).unwrap();
        let mut model = BTreeMap::new();
        for op in &ops {
            apply(&db, &mut model, op, false);
        }
        check_against_model(&db, &model);
    }

    /// Disk mode equals the model map through flushes, compactions
    /// and a final reopen (log replay).
    #[test]
    fn disk_db_matches_model_across_reopen(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        case in 0u32..1_000_000,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "strata-kv-prop-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let options = DbOptions::default();
        let mut model = BTreeMap::new();
        {
            let db = Db::open(&dir, options.clone()).unwrap();
            for op in &ops {
                apply(&db, &mut model, op, true);
            }
            check_against_model(&db, &model);
        }
        let db = Db::open(&dir, options).unwrap();
        check_against_model(&db, &model);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Prefix scans return exactly the model's matching entries.
    #[test]
    fn prefix_scans_match_model(
        entries in proptest::collection::btree_map(key_strategy(), proptest::collection::vec(any::<u8>(), 0..8), 0..40),
        prefix in proptest::collection::vec(0u8..8, 0..3),
    ) {
        let db = Db::open_in_memory(DbOptions::default()).unwrap();
        for (k, v) in &entries {
            db.put(k, v).unwrap();
        }
        let got = db.scan_prefix(&prefix).unwrap();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = entries
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        prop_assert_eq!(got, expected);
    }
}
