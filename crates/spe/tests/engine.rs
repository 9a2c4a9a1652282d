//! End-to-end tests of the engine: full query graphs with real
//! threads, watermark-driven windows, joins, routing and unions.

use strata_spe::operator::UnaryOperator;
use strata_spe::prelude::*;

#[derive(Debug, Clone, PartialEq)]
struct Event {
    ts: u64,
    key: u32,
    value: i64,
}

impl Timestamped for Event {
    fn timestamp(&self) -> Timestamp {
        Timestamp::from_millis(self.ts)
    }
}

fn events(spec: &[(u64, u32, i64)]) -> Vec<Event> {
    spec.iter()
        .map(|&(ts, key, value)| Event { ts, key, value })
        .collect()
}

#[test]
fn windowed_aggregate_over_a_live_graph() {
    let input = events(&[
        (10, 1, 1),
        (20, 2, 10),
        (90, 1, 2),
        (110, 1, 100),
        (250, 2, 1000),
    ]);
    let mut qb = QueryBuilder::new("agg");
    let src = qb.source("src", IteratorSource::with_watermarks(input));
    let sums = qb.aggregate(
        "sum-per-key",
        &src,
        WindowSpec::tumbling(100).unwrap(),
        |e: &Event| e.key,
        |key, bounds, items: &[Event]| {
            vec![(
                *key,
                bounds.index,
                items.iter().map(|e| e.value).sum::<i64>(),
            )]
        },
    );
    let out = qb.collect_sink("out", &sums);
    qb.build().unwrap().run().join().unwrap();
    let got = out.take();
    assert_eq!(got, vec![(1, 0, 3), (2, 0, 10), (1, 1, 100), (2, 2, 1000)]);
}

#[test]
fn join_fuses_two_sources_on_key_and_time() {
    let left = events(&[(100, 1, 1), (200, 1, 2), (300, 2, 3)]);
    let right = events(&[(100, 1, -1), (205, 1, -2), (300, 3, -3)]);
    let mut qb = QueryBuilder::new("join");
    let l = qb.source("left", IteratorSource::with_watermarks(left));
    let r = qb.source("right", IteratorSource::with_watermarks(right));
    let joined = qb.join(
        "join",
        &l,
        &r,
        10,
        |e: &Event| e.key,
        |e: &Event| e.key,
        |l: &Event, r: &Event| Some((l.value, r.value)),
    );
    let out = qb.collect_sink("out", &joined);
    qb.build().unwrap().run().join().unwrap();
    let mut got = out.take();
    got.sort();
    assert_eq!(got, vec![(1, -1), (2, -2)]);
}

#[test]
fn union_merges_streams_and_watermarks() {
    let a = events(&[(10, 1, 1), (30, 1, 3)]);
    let b = events(&[(20, 2, 2), (40, 2, 4)]);
    let mut qb = QueryBuilder::new("union");
    let sa = qb.source("a", IteratorSource::with_watermarks(a));
    let sb = qb.source("b", IteratorSource::with_watermarks(b));
    let merged = qb.union("merge", &[sa, sb]);
    // An aggregate downstream of the union only fires correctly if the
    // union merged watermarks as the minimum across inputs.
    let counts = qb.aggregate(
        "count",
        &merged,
        WindowSpec::tumbling(100).unwrap(),
        |_| 0u8,
        |_, _, items: &[Event]| vec![items.len()],
    );
    let out = qb.collect_sink("out", &counts);
    qb.build().unwrap().run().join().unwrap();
    assert_eq!(out.take(), vec![4]);
}

#[test]
fn parallel_operator_preserves_all_items() {
    let n = 10_000u64;
    // A parallel stage is just its instances: one node at parallelism
    // 1, and no route or merge relay at any parallelism.
    let graphs: [(usize, &[&str]); 2] = [
        (1, &["src", "double", "out"]),
        (
            4,
            &["src", "double.0", "double.1", "double.2", "double.3", "out"],
        ),
    ];
    for (parallelism, nodes) in graphs {
        let mut qb = QueryBuilder::new("parallel");
        let src = qb.source("src", IteratorSource::new(0..n));
        let doubled = qb.parallel_operator(
            "double",
            &src,
            parallelism,
            RoutePolicy::RoundRobin,
            |_instance| strata_spe::operators::Map::new(|x: u64| x * 2),
        );
        let out = qb.collect_sink("out", &doubled);
        let metrics = qb.build().unwrap().run().join().unwrap();
        let mut names: Vec<&str> = metrics.nodes().iter().map(|m| m.name()).collect();
        names.sort_unstable();
        let mut expected_names = nodes.to_vec();
        expected_names.sort_unstable();
        assert_eq!(names, expected_names, "parallelism {parallelism}");
        let mut got = out.take();
        got.sort_unstable();
        let expected: Vec<u64> = (0..n).map(|x| x * 2).collect();
        assert_eq!(got, expected);
    }
}

#[test]
fn keyed_routing_keeps_groups_together() {
    // Aggregate behind a by-key router: every instance must see whole
    // key groups or counts would split.
    let input: Vec<Event> = (0..1_000u64)
        .map(|i| Event {
            ts: i,
            key: (i % 7) as u32,
            value: 1,
        })
        .collect();
    let mut qb = QueryBuilder::new("keyed");
    let src = qb.source("src", IteratorSource::with_watermarks(input));
    let counted = qb.parallel_operator(
        "count",
        &src,
        3,
        RoutePolicy::by_key(|e: &Event| e.key),
        |_| {
            strata_spe::operators::Aggregate::new(
                WindowSpec::tumbling(1_000).unwrap(),
                |e: &Event| e.key,
                |key: &u32, _b, items: &[Event]| vec![(*key, items.len())],
            )
        },
    );
    let out = qb.collect_sink("out", &counted);
    qb.build().unwrap().run().join().unwrap();
    let mut got = out.take();
    got.sort();
    // 1000 items over 7 keys: keys 0..6 get 143, key 0 gets 143 (1000 = 7*142 + 6).
    let expected: Vec<(u32, usize)> = (0..7u32)
        .map(|k| (k, (0..1_000u64).filter(|i| i % 7 == k as u64).count()))
        .collect();
    assert_eq!(got, expected);
}

/// A round-robin parallel stage feeding a keyed parallel aggregate is
/// just the instances of both stages. Every upstream instance routes by
/// its own copy of the key policy, so key groups stay whole, and every
/// consumer merges the watermarks of the instances it reads, so each
/// window closes while the source is still open.
#[test]
fn parallel_stages_chain_without_relay_nodes() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const ITEMS: u64 = 1_000;
    const KEYS: u64 = 7;
    const WINDOW_MS: u64 = 100;

    struct HeldOpen {
        release: Arc<AtomicBool>,
    }
    impl strata_spe::Source for HeldOpen {
        type Out = Event;
        fn run(&mut self, ctx: &mut SourceContext<Event>) -> std::result::Result<(), String> {
            for i in 0..ITEMS {
                ctx.emit(Event {
                    ts: i,
                    key: (i % KEYS) as u32,
                    value: i as i64,
                });
                ctx.emit_watermark(Timestamp::from_millis(i));
            }
            ctx.emit_watermark(Timestamp::from_millis(ITEMS + WINDOW_MS));
            while !self.release.load(Ordering::Relaxed) && !ctx.should_stop() {
                std::thread::yield_now();
            }
            Ok(())
        }
    }

    let release = Arc::new(AtomicBool::new(false));
    let mut qb = QueryBuilder::new("chained");
    let src = qb.source(
        "src",
        HeldOpen {
            release: Arc::clone(&release),
        },
    );
    let passed = qb.parallel_operator("pass", &src, 3, RoutePolicy::RoundRobin, |_| {
        strata_spe::operators::Map::new(|e: Event| e)
    });
    let windows = qb.parallel_operator(
        "count",
        &passed,
        2,
        RoutePolicy::by_key(|e: &Event| e.key),
        |_| {
            strata_spe::operators::Aggregate::new(
                WindowSpec::tumbling(WINDOW_MS).unwrap(),
                |e: &Event| e.key,
                |key: &u32, bounds, items: &[Event]| {
                    let values: Vec<i64> = items.iter().map(|e| e.value).collect();
                    vec![(*key, bounds.index, values)]
                },
            )
        },
    );
    let out = qb.collect_sink("out", &windows);
    let running = qb.build().unwrap().run();

    // Every (key, window) pair closes on watermarks alone: the source
    // is still open until the test releases it.
    let expected_windows = (KEYS * ITEMS / WINDOW_MS) as usize;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while out.len() < expected_windows {
        assert!(
            std::time::Instant::now() < deadline,
            "only {} of {expected_windows} windows closed before end-of-stream",
            out.len()
        );
        std::thread::yield_now();
    }
    release.store(true, Ordering::Relaxed);
    let metrics = running.join().unwrap();

    let results = out.take();
    // A split key group would close the same (key, window) twice.
    assert_eq!(results.len(), expected_windows);
    let mut groups: Vec<(u32, u64)> = results.iter().map(|(k, w, _)| (*k, *w)).collect();
    groups.sort_unstable();
    groups.dedup();
    assert_eq!(
        groups.len(),
        expected_windows,
        "every key group stays whole"
    );
    for (key, window, values) in &results {
        assert!(values
            .iter()
            .all(|&v| v as u64 % KEYS == u64::from(*key) && v as u64 / WINDOW_MS == *window));
    }
    let mut values: Vec<i64> = results.into_iter().flat_map(|(_, _, v)| v).collect();
    values.sort_unstable();
    assert_eq!(
        values,
        (0..ITEMS as i64).collect::<Vec<_>>(),
        "every item exactly once"
    );

    let mut names: Vec<&str> = metrics.nodes().iter().map(|m| m.name()).collect();
    names.sort_unstable();
    assert_eq!(
        names,
        ["count.0", "count.1", "out", "pass.0", "pass.1", "pass.2", "src"]
    );
}

#[test]
fn fan_out_delivers_clones_to_every_branch() {
    let mut qb = QueryBuilder::new("fanout");
    let src = qb.source("src", IteratorSource::new(0u32..100));
    let inc = qb.map("inc", &src, |x| x + 1);
    let dec = qb.map("dec", &src, |x: u32| x.wrapping_sub(1));
    let out_inc = qb.collect_sink("out-inc", &inc);
    let out_dec = qb.collect_sink("out-dec", &dec);
    qb.build().unwrap().run().join().unwrap();
    assert_eq!(out_inc.len(), 100);
    assert_eq!(out_dec.len(), 100);
    assert_eq!(out_inc.take()[0], 1);
}

#[test]
fn deep_pipelines_terminate_under_backpressure() {
    // A tiny channel capacity forces constant blocking; the query must
    // still complete and deliver everything.
    let mut qb = QueryBuilder::new("backpressure");
    qb.channel_capacity(2);
    let src = qb.source("src", IteratorSource::new(0u64..5_000));
    let mut s = src;
    for depth in 0..8 {
        s = qb.map(format!("stage-{depth}"), &s, |x: u64| x + 1);
    }
    let out = qb.collect_sink("out", &s);
    qb.build().unwrap().run().join().unwrap();
    let got = out.take();
    assert_eq!(got.len(), 5_000);
    assert_eq!(got[0], 8);
    assert_eq!(*got.last().unwrap(), 5_007);
}

#[test]
fn metrics_count_items_through_the_graph() {
    let mut qb = QueryBuilder::new("metrics");
    let src = qb.source("src", IteratorSource::new(0u32..50));
    let kept = qb.filter("keep-half", &src, |x| x % 2 == 0);
    let _out = qb.collect_sink("out", &kept);
    let metrics = qb.build().unwrap().run().join().unwrap();
    assert_eq!(metrics.node("src").unwrap().items_out(), 50);
    assert_eq!(metrics.node("keep-half").unwrap().items_in(), 50);
    assert_eq!(metrics.node("keep-half").unwrap().items_out(), 25);
    assert_eq!(metrics.node("out").unwrap().items_in(), 25);
}

/// A node's process time counts every operator callback: work done
/// when a watermark arrives, as `correlateEvents` does its clustering,
/// shows up in `process_latency` next to `on_batch`.
#[test]
fn process_time_includes_watermark_callbacks() {
    const NAP: std::time::Duration = std::time::Duration::from_millis(25);
    struct SleepOnWatermark;
    impl UnaryOperator<Event, Event> for SleepOnWatermark {
        fn on_item(&mut self, item: Event, out: &mut Vec<Event>) {
            out.push(item);
        }
        fn on_watermark(&mut self, _watermark: Timestamp, _out: &mut Vec<Event>) {
            std::thread::sleep(NAP);
        }
    }
    let mut qb = QueryBuilder::new("slow-watermarks");
    let src = qb.source(
        "src",
        IteratorSource::with_watermarks(events(&[(10, 1, 1), (20, 1, 2)])),
    );
    let slow = qb.operator("slow", &src, SleepOnWatermark);
    let _out = qb.collect_sink("out", &slow);
    let metrics = qb.build().unwrap().run().join().unwrap();
    let node = metrics.node("slow").unwrap();
    assert!(node.watermarks_in() >= 1);
    let process = node.process_latency();
    assert!(
        process.sum() >= NAP.as_nanos() as u64,
        "{} ns over {} callbacks",
        process.sum(),
        process.count()
    );
}

#[test]
fn aggregate_emits_incrementally_as_watermarks_advance() {
    // Results for early windows must not wait for end-of-stream: check
    // the sink sees window 0's result while the source is still alive.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    struct Gated {
        release: Arc<AtomicBool>,
    }
    impl strata_spe::Source for Gated {
        type Out = Event;
        fn run(&mut self, ctx: &mut SourceContext<Event>) -> std::result::Result<(), String> {
            ctx.emit(Event {
                ts: 10,
                key: 0,
                value: 1,
            });
            ctx.emit_watermark(Timestamp::from_millis(150));
            // Hold the stream open until the test observed the early result.
            while !self.release.load(Ordering::Relaxed) && !ctx.should_stop() {
                std::thread::yield_now();
            }
            Ok(())
        }
    }

    let release = Arc::new(AtomicBool::new(false));
    let mut qb = QueryBuilder::new("incremental");
    let src = qb.source(
        "src",
        Gated {
            release: Arc::clone(&release),
        },
    );
    let agg = qb.aggregate(
        "agg",
        &src,
        WindowSpec::tumbling(100).unwrap(),
        |_| 0u8,
        |_, _, items: &[Event]| vec![items.len()],
    );
    let out = qb.collect_sink("out", &agg);
    let running = qb.build().unwrap().run();
    // The early window result must arrive while the source is gated.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while out.is_empty() {
        assert!(
            std::time::Instant::now() < deadline,
            "window result did not arrive before end-of-stream"
        );
        std::thread::yield_now();
    }
    assert_eq!(out.snapshot(), vec![1]);
    release.store(true, Ordering::Relaxed);
    running.join().unwrap();
}

/// Waits for `running` on a helper thread and returns what `join`
/// reported, failing the test instead of hanging when the query does
/// not end within 30 s.
fn join_within_deadline(running: RunningQuery) -> Result<strata_spe::QueryMetrics> {
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || tx.send(running.join()).expect("the test waits"));
    let result = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("the query ends after one of its inputs panicked");
    waiter
        .join()
        .expect("the waiter thread ends once it has sent");
    result
}

/// A panicking upstream closes exactly the one input it fed: the
/// source's routed outlet loses one instance, the sink sees that
/// instance's input end, and the whole query still drains and reports
/// the panic.
#[test]
fn a_panicking_parallel_instance_ends_the_query() {
    let mut qb = QueryBuilder::new("parallel-panic");
    let src = qb.source("src", IteratorSource::new(0u32..10_000));
    let merged = qb.parallel_operator("work", &src, 3, RoutePolicy::RoundRobin, |i| {
        strata_spe::operators::Map::new(move |x: u32| {
            assert!(i != 0, "instance 0 fails");
            x
        })
    });
    let _out = qb.collect_sink("out", &merged);
    match join_within_deadline(qb.build().unwrap().run()) {
        Err(Error::OperatorPanicked { node, .. }) => assert_eq!(node, "work.0"),
        other => panic!("expected OperatorPanicked, got {other:?}"),
    }
}

/// When the upstream of a join's left side panics, only the left input
/// closes: the right side keeps flowing into the join until its source
/// ends, and then the query ends and reports the panic.
#[test]
fn a_panicking_join_input_closes_only_its_side() {
    const RIGHT: u64 = 2_000;
    let mut qb = QueryBuilder::new("join-panic");
    let left = qb.source(
        "left",
        IteratorSource::with_watermarks(events(&[(0, 1, 1), (10, 1, 2)])),
    );
    let failing = qb.map("failing", &left, |e: Event| -> Event {
        panic!("left upstream fails on {e:?}")
    });
    let right_events: Vec<Event> = (0..RIGHT)
        .map(|ts| Event {
            ts,
            key: 1,
            value: -1,
        })
        .collect();
    let right = qb.source("right", IteratorSource::with_watermarks(right_events));
    let joined = qb.join(
        "join",
        &failing,
        &right,
        10,
        |e: &Event| e.key,
        |e: &Event| e.key,
        |l: &Event, r: &Event| Some((l.value, r.value)),
    );
    let _out = qb.collect_sink("out", &joined);
    let running = qb.build().unwrap().run();
    let metrics = running.metrics().clone();
    match join_within_deadline(running) {
        Err(Error::OperatorPanicked { node, .. }) => assert_eq!(node, "failing"),
        other => panic!("expected OperatorPanicked, got {other:?}"),
    }
    assert_eq!(metrics.node("join").unwrap().items_in(), RIGHT);
}
