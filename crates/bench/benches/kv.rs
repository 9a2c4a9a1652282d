//! Criterion micro-benchmarks of the key-value store: point lookups,
//! logged puts and prefix scans on a disk-backed store.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use strata_kv::{Db, DbOptions};

fn filled_db(dir: &std::path::Path, keys: u32) -> Db {
    let _ = std::fs::remove_dir_all(dir);
    let db = Db::open(dir, DbOptions::default()).unwrap();
    for i in 0..keys {
        db.put(format!("key-{i:08}"), format!("value-{i}")).unwrap();
    }
    db.flush().unwrap();
    db
}

fn bench_point_lookups(c: &mut Criterion) {
    let keys = 50_000u32;
    let mut group = c.benchmark_group("kv_get");
    group.throughput(Throughput::Elements(1));
    let dir = std::env::temp_dir().join("strata-bench-kv-get");
    let db = filled_db(&dir, keys);
    let mut i = 0u32;
    group.bench_function("hit", |b| {
        b.iter(|| {
            i = (i + 7919) % keys;
            db.get(format!("key-{i:08}")).unwrap().expect("present")
        })
    });
    let mut j = 0u32;
    group.bench_function("miss", |b| {
        b.iter(|| {
            // Misses inside the stored key range.
            j = (j + 7919) % keys;
            db.get(format!("key-{j:08}.absent")).unwrap()
        })
    });
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

fn bench_writes(c: &mut Criterion) {
    let mut group = c.benchmark_group("kv_put");
    group.throughput(Throughput::Elements(1));
    let dir = std::env::temp_dir().join("strata-bench-kv-put");
    let _ = std::fs::remove_dir_all(&dir);
    let db = Db::open(&dir, DbOptions::default()).unwrap();
    let mut i = 0u64;
    group.bench_function("wal", |b| {
        b.iter(|| {
            i += 1;
            db.put(format!("key-{i:012}"), b"value-payload-32-bytes-xxxxxxxx")
                .unwrap()
        })
    });
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

fn bench_scans(c: &mut Criterion) {
    let dir = std::env::temp_dir().join("strata-bench-kv-scan");
    let db = filled_db(&dir, 20_000);
    let mut group = c.benchmark_group("kv_scan");
    group.bench_function("prefix_1000", |b| {
        b.iter(|| {
            // Matches keys 00000000..00009999: 10 000 of the 20 000.
            db.scan_prefix("key-0000").unwrap().len()
        })
    });
    group.finish();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_point_lookups, bench_writes, bench_scans);
criterion_main!(benches);
