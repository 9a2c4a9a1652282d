//! Micro-batch throughput in two shapes:
//!
//! * the map→filter→aggregate chain from the paper's operator
//!   benchmarks, swept across `QueryBuilder::batch_size` values;
//! * two round-robin parallel stages of width 2 — a map, then a
//!   flat_map that drops a quarter of the items, the shape of
//!   `isolateCell` → `labelCell` — at batch size 64. The engine chains
//!   the second stage into the first, so its items cross no channel.
//!
//! Besides the criterion-style report, the harness writes
//! `BENCH_spe_batch.json` at the repository root with the items/sec
//! datapoint of every run shape:
//!
//! ```text
//! cargo bench -p strata-bench --bench spe_batch
//! ```
//!
//! The checked-in `BENCH_spe_batch.json` instead lists, side by side,
//! runs of this command on the engine before and after every node got
//! one item path (the bench uses only API both versions have).

use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use strata_spe::prelude::*;

const ITEMS: u64 = 300_000;
const BATCH_SIZES: [usize; 4] = [1, 8, 64, 512];
/// The batch size of the parallel shape: `StrataConfig`'s default.
const PARALLEL_BATCH: usize = 64;

#[derive(Clone, Copy)]
struct Ev {
    ts: u64,
    val: u64,
}

impl Timestamped for Ev {
    fn timestamp(&self) -> Timestamp {
        Timestamp::from_millis(self.ts)
    }
}

/// Emits `n` items with a watermark every 1024 items: sparse enough
/// that batches actually form (watermarks are batch boundaries),
/// frequent enough that the aggregate's windows close as data flows.
struct SparseSource {
    n: u64,
}

impl Source for SparseSource {
    type Out = Ev;

    fn run(&mut self, ctx: &mut SourceContext<Ev>) -> std::result::Result<(), String> {
        for i in 0..self.n {
            let item = Ev {
                ts: i / 8,
                val: i.wrapping_mul(2_654_435_761) % 1_000,
            };
            if !ctx.emit(item) {
                return Ok(());
            }
            if (i + 1) % 1024 == 0 && !ctx.emit_watermark(Timestamp::from_millis(item.ts)) {
                return Ok(());
            }
        }
        Ok(())
    }
}

/// Runs the chain once and returns the wall-clock time from start to
/// full drain (query join).
fn run_chain(n: u64, batch_size: usize) -> Duration {
    let mut qb = QueryBuilder::new(format!("spe_batch.bs{batch_size}"));
    qb.channel_capacity(1024);
    qb.batch_size(batch_size);
    let src = qb.source("src", SparseSource { n });
    let mapped = qb.map("map", &src, |e: Ev| Ev {
        ts: e.ts,
        val: e.val.wrapping_mul(31).wrapping_add(7) % 1_000,
    });
    let filtered = qb.filter("filter", &mapped, |e: &Ev| !e.val.is_multiple_of(3));
    let agg = qb.aggregate(
        "aggregate",
        &filtered,
        WindowSpec::tumbling(1_000).unwrap(),
        |e: &Ev| e.val % 16,
        |_k: &u64, bounds: WindowBounds, items: &[Ev]| {
            vec![Ev {
                ts: bounds.end.as_millis(),
                val: items.len() as u64,
            }]
        },
    );
    let counted = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let sink_counted = std::sync::Arc::clone(&counted);
    qb.sink("sink", &agg, move |_e: Ev| {
        sink_counted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    });
    let started = Instant::now();
    qb.build().unwrap().run().join().unwrap();
    let elapsed = started.elapsed();
    assert!(counted.load(std::sync::atomic::Ordering::Relaxed) > 0);
    elapsed
}

/// Runs source → map (2 instances) → flat_map (2 instances) → sink
/// once, both stages round-robin, and returns the wall-clock time to
/// full drain.
fn run_parallel(n: u64, batch_size: usize) -> Duration {
    use strata_spe::operators::{FlatMap, Map};

    let mut qb = QueryBuilder::new(format!("spe_batch.parallel.bs{batch_size}"));
    qb.channel_capacity(1024);
    qb.batch_size(batch_size);
    let src = qb.source("src", SparseSource { n });
    let mapped = qb.parallel_operator("map", &src, 2, RoutePolicy::RoundRobin, |_| {
        Map::new(|e: Ev| Ev {
            ts: e.ts,
            val: e.val.wrapping_mul(31).wrapping_add(7) % 1_000,
        })
    });
    let labelled = qb.parallel_operator("flat_map", &mapped, 2, RoutePolicy::RoundRobin, |_| {
        FlatMap::new(|e: Ev| (!e.val.is_multiple_of(4)).then_some(e))
    });
    let counted = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let sink_counted = std::sync::Arc::clone(&counted);
    qb.sink("sink", &labelled, move |_e: Ev| {
        sink_counted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    });
    let started = Instant::now();
    qb.build().unwrap().run().join().unwrap();
    let elapsed = started.elapsed();
    assert!(counted.load(std::sync::atomic::Ordering::Relaxed) > 0);
    elapsed
}

fn bench_batch_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("spe_batch");
    group
        .sample_size(10)
        .throughput(Throughput::Elements(ITEMS));
    for batch_size in BATCH_SIZES {
        group.bench_with_input(
            BenchmarkId::new("map_filter_aggregate", batch_size),
            &batch_size,
            |b, &bs| b.iter(|| run_chain(ITEMS, bs)),
        );
    }
    group.bench_with_input(
        BenchmarkId::new("parallel_map_flat_map", PARALLEL_BATCH),
        &PARALLEL_BATCH,
        |b, &bs| b.iter(|| run_parallel(ITEMS, bs)),
    );
    group.finish();
}

criterion_group!(benches, bench_batch_sizes);

/// One run of a bench shape over `n` items at a batch size.
type Shape = fn(u64, usize) -> Duration;

/// Median items/sec of `shape` over `runs` timed runs.
fn items_per_sec(shape: Shape, batch_size: usize, runs: usize) -> f64 {
    let mut times: Vec<Duration> = (0..runs).map(|_| shape(ITEMS, batch_size)).collect();
    times.sort();
    ITEMS as f64 / times[times.len() / 2].as_secs_f64()
}

fn main() {
    benches();

    // Datapoints for EXPERIMENTS.md, written machine-readably to the
    // repository root (crates/bench/../..).
    let shapes: [(&str, Shape, &[usize]); 2] = [
        ("map -> filter -> aggregate", run_chain, &BATCH_SIZES),
        (
            "map (2 instances) -> flat_map (2 instances), round-robin",
            run_parallel,
            &[PARALLEL_BATCH],
        ),
    ];
    let datapoints: Vec<String> = shapes
        .iter()
        .flat_map(|&(chain, shape, batch_sizes)| {
            batch_sizes.iter().map(move |&bs| {
                let rate = items_per_sec(shape, bs, 5);
                println!("spe_batch json: {chain} batch_size={bs} items_per_sec={rate:.0}");
                format!(
                    "    {{ \"chain\": \"{chain}\", \"batch_size\": {bs}, \"items_per_sec\": {rate:.0} }}"
                )
            })
        })
        .collect();
    let doc = format!(
        "{{\n  \"bench\": \"spe_batch\",\n  \"items\": {ITEMS},\n  \"datapoints\": [\n{}\n  ]\n}}\n",
        datapoints.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_spe_batch.json");
    std::fs::write(path, doc).unwrap();
    println!("wrote {path}");
}
