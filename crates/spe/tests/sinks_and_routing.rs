//! Engine tests for element-level sinks and routed parallel stages —
//! the primitives STRATA's connectors are built from.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use strata_spe::prelude::*;

#[test]
fn element_sink_sees_batches_watermarks_and_end() {
    let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_seen = Arc::clone(&seen);
    let mut qb = QueryBuilder::new("elements");
    let src = qb.source(
        "src",
        IteratorSource::with_watermarks(vec![Timestamp::from_millis(5), Timestamp::from_millis(9)]),
    );
    qb.element_sink("sink", &src, move |el: Element<Timestamp>| {
        let mut seen = sink_seen.lock();
        match el {
            Element::Batch(batch) => {
                seen.extend(batch.iter().map(|t| format!("item:{}", t.as_millis())))
            }
            Element::Watermark(w) => seen.push(format!("wm:{}", w.as_millis())),
            Element::End => seen.push("end".to_string()),
        }
    });
    qb.build().unwrap().run().join().unwrap();
    assert_eq!(
        *seen.lock(),
        vec!["item:5", "wm:5", "item:9", "wm:9", "end"]
    );
}

#[test]
fn element_sink_merges_watermarks_across_inputs() {
    // Two sources into a union, then an element sink: the sink must
    // see the *minimum* watermark across inputs, monotone.
    let watermarks: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_wms = Arc::clone(&watermarks);
    let mut qb = QueryBuilder::new("merge");
    let a = qb.source(
        "a",
        IteratorSource::with_watermarks(vec![
            Timestamp::from_millis(10),
            Timestamp::from_millis(30),
        ]),
    );
    let b = qb.source(
        "b",
        IteratorSource::with_watermarks(vec![
            Timestamp::from_millis(20),
            Timestamp::from_millis(40),
        ]),
    );
    let merged = qb.union("u", &[a, b]);
    qb.element_sink("sink", &merged, move |el: Element<Timestamp>| {
        if let Element::Watermark(w) = el {
            sink_wms.lock().push(w.as_millis());
        }
    });
    qb.build().unwrap().run().join().unwrap();
    let wms = watermarks.lock().clone();
    // The exact sequence depends on thread interleaving, but the
    // merged watermark is always strictly increasing, only takes
    // values some input advertised, and ends at ≥ 30 (both inputs'
    // final watermarks are processed before their End markers).
    assert!(!wms.is_empty());
    assert!(wms.windows(2).all(|w| w[0] < w[1]), "monotone: {wms:?}");
    assert!(wms.iter().all(|w| [10, 20, 30, 40].contains(w)), "{wms:?}");
    assert!(*wms.last().unwrap() >= 30, "{wms:?}");
}

#[test]
fn routed_outlets_broadcast_watermarks_to_every_instance() {
    // Each instance is an aggregate; all must close their windows even
    // though items are split between them.
    let mut qb = QueryBuilder::new("router-wm");
    let items: Vec<Timestamp> = (0..100).map(|i| Timestamp::from_millis(i * 10)).collect();
    let src = qb.source("src", IteratorSource::with_watermarks(items));
    let windows = qb.parallel_operator(
        "agg",
        &src,
        2,
        strata_spe::operators::RoutePolicy::RoundRobin,
        |i| {
            strata_spe::operators::Aggregate::new(
                WindowSpec::tumbling(250).unwrap(),
                |_| 0u8,
                move |_, bounds, items: &[Timestamp]| vec![(i, bounds.index, items.len())],
            )
        },
    );
    let out = qb.collect_sink("out", &windows);
    qb.build().unwrap().run().join().unwrap();
    let (a, b): (Vec<_>, Vec<_>) = out.take().into_iter().partition(|(i, _, _)| *i == 0);
    // Items 0..1000ms in windows of 250ms → 4 windows, 25 items each,
    // split 13/12 between the instances (round robin by arrival).
    let total: usize = a.iter().chain(&b).map(|(_, _, n)| n).sum();
    assert_eq!(total, 100);
    assert!(
        a.len() >= 4 && b.len() >= 4,
        "every instance saw every window close"
    );
}

#[test]
fn fan_out_to_element_sink_and_sink_coexist() {
    let count = Arc::new(AtomicU64::new(0));
    let element_count = Arc::clone(&count);
    let mut qb = QueryBuilder::new("mixed");
    let src = qb.source("src", IteratorSource::new(0u32..50));
    qb.element_sink("elements", &src, move |el| {
        if let Element::Batch(batch) = el {
            element_count.fetch_add(batch.len() as u64, Ordering::Relaxed);
        }
    });
    let collected = qb.collect_sink("items", &src);
    qb.build().unwrap().run().join().unwrap();
    assert_eq!(count.load(Ordering::Relaxed), 50);
    assert_eq!(collected.len(), 50);
}
