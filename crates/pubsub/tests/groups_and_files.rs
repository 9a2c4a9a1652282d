//! Broker integration: file-backed topics end-to-end and topic
//! isolation.

use std::time::Duration;

use strata_pubsub::{Broker, LogKind, RetentionPolicy, SyncPolicy, TopicConfig};

#[test]
fn file_backed_topic_round_trips_and_retains() {
    let dir = std::env::temp_dir().join(format!("strata-pubsub-filetopic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let broker = Broker::new();
    broker
        .create_topic(
            "persisted",
            TopicConfig::new(2)
                .with_log(LogKind::File {
                    dir: dir.clone(),
                    segment_bytes: 256,
                    sync: SyncPolicy::Never,
                })
                .with_retention(RetentionPolicy::default().with_max_records(64)),
        )
        .unwrap();
    let producer = broker.producer();
    for i in 0..100u32 {
        producer
            .send("persisted", Some(&[i as u8 % 7]), vec![i as u8; 16])
            .unwrap();
    }
    // Segment files exist on disk.
    let segments = walk_segments(&dir);
    assert!(!segments.is_empty(), "segment files on disk");

    // Retention bounded each partition.
    for p in 0..2 {
        let (start, end) = broker.offsets("persisted", p).unwrap();
        assert!(
            end - start <= 64 + 16,
            "partition {p}: {} live",
            end - start
        );
    }

    // A consumer reads the retained tail.
    let mut consumer = broker.consumer("g", &["persisted"]).unwrap();
    consumer.set_max_poll_records(1_000);
    let mut total = 0;
    loop {
        let polled = consumer.poll(Duration::from_millis(150)).unwrap();
        if polled.is_empty() {
            break;
        }
        total += polled.len();
    }
    let live: u64 = (0..2)
        .map(|p| {
            let (s, e) = broker.offsets("persisted", p).unwrap();
            e - s
        })
        .sum();
    assert_eq!(total as u64, live);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn walk_segments(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                out.extend(walk_segments(&path));
            } else if path.extension().is_some_and(|e| e == "seg") {
                out.push(path);
            }
        }
    }
    out
}

#[test]
fn many_topics_are_isolated() {
    let broker = Broker::new();
    for t in 0..20 {
        broker
            .create_topic(format!("topic-{t}"), TopicConfig::new(1))
            .unwrap();
    }
    let producer = broker.producer();
    for t in 0..20 {
        for _ in 0..=t {
            producer
                .send(&format!("topic-{t}"), None, vec![t as u8])
                .unwrap();
        }
    }
    for t in 0..20u64 {
        let (start, end) = broker.offsets(&format!("topic-{t}"), 0).unwrap();
        assert_eq!(end - start, t + 1, "topic-{t}");
    }
    assert_eq!(broker.topics().len(), 20);
}
