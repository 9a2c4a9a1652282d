//! Criterion micro-benchmarks of the pub/sub broker: produce/consume
//! round-trips with small records and with OT-image-sized payloads,
//! and the CRC-32 that checksums every framed byte.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use strata_pubsub::checksum::crc32;
use strata_pubsub::{Broker, Record, TopicConfig};

fn bench_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("pubsub_roundtrip");
    for (label, payload_bytes) in [("1KiB", 1024usize), ("4MiB_ot_image", 4 * 1024 * 1024)] {
        let batch = if payload_bytes > 1024 { 4u64 } else { 256 };
        group.throughput(Throughput::Bytes(payload_bytes as u64 * batch));
        group.sample_size(10);
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, ()| {
            let broker = Broker::new();
            broker.create_topic("t", TopicConfig::new(1)).unwrap();
            let mut consumer = broker.consumer("g", &["t"]).unwrap();
            consumer.set_max_poll_records(batch as usize);
            let payload = vec![0xABu8; payload_bytes];
            b.iter(|| {
                for _ in 0..batch {
                    broker
                        .produce("t", None, Record::new(Some(&b"k"[..]), payload.clone()))
                        .unwrap();
                }
                let mut got = 0u64;
                while got < batch {
                    got += consumer.poll(Duration::from_secs(1)).unwrap().len() as u64;
                }
                got
            })
        });
    }
    group.finish();
}

fn bench_fanout(c: &mut Criterion) {
    // One producer, several independent groups — the overlapping
    // pipelines scenario.
    let mut group = c.benchmark_group("pubsub_fanout");
    group.sample_size(10);
    for groups in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("groups", groups), &groups, |b, &groups| {
            let broker = Broker::new();
            broker.create_topic("t", TopicConfig::new(1)).unwrap();
            let mut consumers: Vec<_> = (0..groups)
                .map(|g| broker.consumer(format!("g{g}"), &["t"]).unwrap())
                .collect();
            let n = 512u64;
            b.iter(|| {
                for i in 0..n {
                    broker
                        .produce("t", None, Record::new(None::<&[u8]>, vec![i as u8; 128]))
                        .unwrap();
                }
                for consumer in &mut consumers {
                    let mut got = 0u64;
                    while got < n {
                        got += consumer.poll(Duration::from_secs(1)).unwrap().len() as u64;
                    }
                }
            })
        });
    }
    group.finish();
}

fn bench_crc32(c: &mut Criterion) {
    // One 1 MiB OT image's worth of bytes; a TCP hop checksums each
    // image several times (record and net frames, both directions).
    const LEN: usize = 1 << 20;
    let data: Vec<u8> = (0..LEN).map(|i| (i * 31 % 251) as u8).collect();
    let mut group = c.benchmark_group("crc32");
    group.throughput(Throughput::Bytes(LEN as u64));
    group.sample_size(200);
    group.bench_function("1MiB", |b| b.iter(|| crc32(black_box(&data))));
    group.finish();
}

criterion_group!(benches, bench_roundtrip, bench_fanout, bench_crc32);
criterion_main!(benches);
