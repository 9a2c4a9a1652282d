//! Batch-size equivalence: the micro-batched data plane must be
//! observationally identical to item-at-a-time execution.
//!
//! Seeded random pipelines (map / filter / flat_map / aggregate /
//! self-join / parallel router) are run at `batch_size = 1` and at a
//! spread of larger batch sizes; for each run the test captures the
//! output item multiset (sorted) and the watermark sequence seen by an
//! element-level sink. All runs of one seed must agree exactly, and
//! the `batch_size = 1` run must be bit-identical to the golden file
//! recorded from the pre-batching engine. Regenerate goldens with
//! `UPDATE_GOLDEN=1 cargo test -p strata-spe --test batch_equivalence`.
//!
//! Comparing a *sorted* multiset plus the watermark sequence is what
//! makes unrestricted pipeline shapes sound: join and parallel stages
//! may interleave differently run to run, but their output multisets
//! and merged watermark sequences are deterministic (windows close in
//! `(index, key)` order, watermark merges take stepwise minima).

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use strata_spe::operators::Map;
use strata_spe::prelude::*;

const SEEDS: std::ops::RangeInclusive<u64> = 1..=6;
const BATCH_SIZES: [usize; 4] = [2, 7, 64, 1024];

/// The item flowing through every generated pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct E {
    ts: u64,
    val: u64,
}

impl Timestamped for E {
    fn timestamp(&self) -> Timestamp {
        Timestamp::from_millis(self.ts)
    }
}

/// A source with *sparse* watermarks: one every `wm_every` items, not
/// one per item, so batches larger than one actually form once the
/// data plane batches (watermarks are batch boundaries).
struct SparseSource {
    items: Vec<E>,
    wm_every: usize,
}

impl Source for SparseSource {
    type Out = E;

    fn run(&mut self, ctx: &mut SourceContext<E>) -> std::result::Result<(), String> {
        let items = std::mem::take(&mut self.items);
        let mut max_ts = 0u64;
        let total = items.len();
        for (i, item) in items.into_iter().enumerate() {
            max_ts = max_ts.max(item.ts);
            if !ctx.emit(item) {
                return Ok(());
            }
            if (i + 1) % self.wm_every == 0
                && i + 1 < total
                && !ctx.emit_watermark(Timestamp::from_millis(max_ts))
            {
                return Ok(());
            }
        }
        ctx.emit_watermark(Timestamp::from_millis(max_ts));
        Ok(())
    }
}

/// Builds a random pipeline from `seed`, runs it at `batch_size`, and
/// returns the canonical observation text: the sorted output multiset
/// followed by the watermark sequence at the sink. The generator's
/// random draws depend only on `seed`, never on `batch_size`.
fn run_pipeline(seed: u64, batch_size: usize) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_items: usize = 400 + rng.gen_range(0..200usize);
    let items: Vec<E> = (0..n_items as u64)
        .map(|i| E {
            ts: i / 2,
            val: rng.gen_range(0..1000u64),
        })
        .collect();
    let wm_every = [1usize, 5, 64][rng.gen_range(0..3usize)];
    if std::env::var_os("SHAPE_DEBUG").is_some() {
        eprintln!("seed={seed} n_items={n_items} wm_every={wm_every}");
    }

    let mut qb = QueryBuilder::new(format!("equiv.seed{seed}.bs{batch_size}"));
    qb.batch_size(batch_size);
    qb.batch_timeout(Duration::from_secs(1));
    let mut stream = qb.source("src", SparseSource { items, wm_every });

    let n_stages = 3 + rng.gen_range(0..3usize);
    let (mut used_join, mut used_parallel) = (false, false);
    for stage in 0..n_stages {
        let mut kinds = vec!["map", "filter", "flat_map", "aggregate"];
        if !used_join {
            kinds.push("join");
        }
        if !used_parallel {
            kinds.push("parallel");
        }
        let kind = kinds[rng.gen_range(0..kinds.len())];
        if std::env::var_os("SHAPE_DEBUG").is_some() {
            eprintln!("seed={seed} stage {stage}: {kind}");
        }
        let name = format!("s{stage}.{kind}");
        stream = match kind {
            "map" => {
                let m = rng.gen_range(1..5u64) * 2 + 1;
                let a = rng.gen_range(0..100u64);
                qb.map(name, &stream, move |e: E| E {
                    ts: e.ts,
                    val: e.val.wrapping_mul(m).wrapping_add(a) % 10_000,
                })
            }
            "filter" => {
                let m = rng.gen_range(2..5u64);
                let r = rng.gen_range(0..2u64);
                qb.filter(name, &stream, move |e: &E| e.val % m != r)
            }
            "flat_map" => qb.flat_map(name, &stream, move |e: E| {
                (0..e.val % 3).map(move |j| E {
                    ts: e.ts,
                    val: e.val + j,
                })
            }),
            "aggregate" => {
                let size = [8u64, 16][rng.gen_range(0..2usize)];
                let groups = rng.gen_range(2..6u64);
                qb.aggregate(
                    name,
                    &stream,
                    WindowSpec::tumbling(size).unwrap(),
                    move |e: &E| e.val % groups,
                    // Count and sum are order-insensitive, so the
                    // window result is interleaving-independent. The
                    // result is stamped with the window *end*: a window
                    // only closes once the watermark reaches its end,
                    // so end-stamped outputs keep the stream's
                    // watermarks truthful, which downstream joins rely
                    // on for deterministic eviction.
                    move |key: &u64, bounds: WindowBounds, items: &[E]| {
                        let sum: u64 = items.iter().map(|e| e.val).sum();
                        vec![E {
                            ts: bounds.end.as_millis(),
                            val: (items.len() as u64) * 1_000_000 + sum % 1_000_000 + key,
                        }]
                    },
                )
            }
            "join" => {
                used_join = true;
                let ws = [0u64, 4][rng.gen_range(0..2usize)];
                let groups = rng.gen_range(2..6u64);
                qb.join(
                    name,
                    &stream,
                    &stream,
                    ws,
                    move |e: &E| e.val % groups,
                    move |e: &E| e.val % groups,
                    |l: &E, r: &E| {
                        Some(E {
                            ts: l.ts.max(r.ts),
                            val: l.val.wrapping_add(r.val) % 10_000,
                        })
                    },
                )
            }
            "parallel" => {
                used_parallel = true;
                let instances = rng.gen_range(2..4usize);
                let m = rng.gen_range(1..5u64) * 2 + 1;
                qb.parallel_operator(
                    name,
                    &stream,
                    instances,
                    RoutePolicy::RoundRobin,
                    move |_i| {
                        Map::new(move |e: E| E {
                            ts: e.ts,
                            val: e.val.wrapping_mul(m) % 10_000,
                        })
                    },
                )
            }
            _ => unreachable!(),
        };
    }

    let captured_items = Arc::new(Mutex::new(Vec::<String>::new()));
    let captured_wms = Arc::new(Mutex::new(Vec::<u64>::new()));
    let (sink_items, sink_wms) = (Arc::clone(&captured_items), Arc::clone(&captured_wms));
    qb.element_sink("capture", &stream, move |element| match element {
        Element::Batch(batch) => sink_items
            .lock()
            .unwrap()
            .extend(batch.iter().map(|e| format!("{} {}", e.ts, e.val))),
        Element::Watermark(wm) => sink_wms.lock().unwrap().push(wm.as_millis()),
        _ => {}
    });
    qb.build().unwrap().run().join().unwrap();

    let mut items = Arc::try_unwrap(captured_items)
        .unwrap()
        .into_inner()
        .unwrap();
    items.sort();
    let wms = Arc::try_unwrap(captured_wms).unwrap().into_inner().unwrap();
    let mut text = String::new();
    writeln!(text, "items: {}", items.len()).unwrap();
    for item in items {
        writeln!(text, "{item}").unwrap();
    }
    writeln!(text, "watermarks: {}", wms.len()).unwrap();
    for wm in wms {
        writeln!(text, "{wm}").unwrap();
    }
    text
}

fn golden_path(seed: u64) -> String {
    format!(
        "{}/tests/golden/batch_equivalence_seed{seed}.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// `batch_size = 1` must reproduce the pre-batching engine bit for
/// bit: the goldens were recorded from the item-at-a-time data plane
/// before the micro-batch rewrite landed.
#[test]
fn batch_size_one_matches_pre_batching_goldens() {
    for seed in SEEDS {
        let observed = run_pipeline(seed, 1);
        let path = golden_path(seed);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &observed).unwrap();
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden {path} (regenerate with UPDATE_GOLDEN=1): {e}")
        });
        assert_eq!(
            observed, golden,
            "seed {seed}: batch_size=1 output diverged from the pre-batching golden"
        );
    }
}

/// Every batch size must produce the same output multiset and the
/// same watermark sequence as `batch_size = 1`.
#[test]
fn batched_runs_match_batch_size_one() {
    for seed in SEEDS {
        let baseline = run_pipeline(seed, 1);
        for batch_size in BATCH_SIZES {
            let observed = run_pipeline(seed, batch_size);
            assert_eq!(
                observed, baseline,
                "seed {seed}: batch_size={batch_size} diverged from batch_size=1"
            );
        }
    }
}
