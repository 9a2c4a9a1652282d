//! Per-layer values: isolated probes timed on inputs captured from the
//! reference, and the values scraped from a round's `QueryMetrics` and
//! Prometheus dumps.

use std::hint::black_box;
use std::time::Instant;

use strata::codec::{self, ConnectorMessage};
use strata::usecase::thermal::CorrelatorOptions;
use strata::AmTuple;
use strata_cluster::{dbscan, DbscanParams, Point};
use strata_obs::HistogramSnapshot;
use strata_pubsub::checksum::crc32;
use strata_spe::{NodeMetrics, QueryMetrics};

use crate::stats::{histogram_quantile, median, ratio, sum, Sample};
use crate::{BenchResult, Metrics};

/// Repetitions of each isolated probe; the median is reported.
const REPS: usize = 9;

/// The pipeline nodes whose engine metrics are reported; parallel
/// nodes sum over their instances.
const SPE_NODES: [&str; 5] = ["spec", "cell", "cellLabel", "out", "expert"];

/// The broker requests the connectors issue over TCP.
const NET_OPS: [&str; 3] = ["produce", "fetch", "commit_offset"];

/// Median wall time of `REPS` calls of `f`, ms.
fn time_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// `strata::codec` on one captured OT tuple and on captured events.
pub fn codec(fused: &AmTuple, events: &[AmTuple], out: &mut Metrics) -> BenchResult<()> {
    let image = ConnectorMessage::Tuple(fused.clone());
    let bytes = codec::encode(&image);
    if codec::decode(&bytes)? != image {
        return Err("the codec did not round-trip the captured OT tuple".into());
    }
    out.push(
        "core.codec.encode_ms_per_image",
        "ms",
        time_ms(|| codec::encode(black_box(&image))),
    );
    out.push(
        "core.codec.decode_ms_per_image",
        "ms",
        time_ms(|| codec::decode(black_box(&bytes))),
    );
    let messages: Vec<ConnectorMessage> = events
        .iter()
        .cloned()
        .map(ConnectorMessage::Tuple)
        .collect();
    let encoded: Vec<Vec<u8>> = messages.iter().map(codec::encode).collect();
    let n = messages.len() as f64;
    let encode_ms = time_ms(|| {
        for m in &messages {
            black_box(codec::encode(m));
        }
    });
    let decode_ms = time_ms(|| {
        for b in &encoded {
            let _ = black_box(codec::decode(b));
        }
    });
    out.push(
        "core.codec.encode_ns_per_event",
        "ns",
        ratio(encode_ms * 1e6, n),
    );
    out.push(
        "core.codec.decode_ns_per_event",
        "ns",
        ratio(decode_ms * 1e6, n),
    );
    Ok(())
}

/// `strata_pubsub::checksum::crc32` over a captured image's pixels.
pub fn crc(fused: &AmTuple, out: &mut Metrics) {
    let pixels = fused
        .payload()
        .image("image")
        .map_or(&[][..], |image| image.pixels());
    let ms = time_ms(|| crc32(black_box(pixels)));
    let mib = pixels.len() as f64 / (1024.0 * 1024.0);
    out.push("pubsub.crc32_mib_per_s", "MiB/s", ratio(mib, ms / 1e3));
}

/// `strata_cluster::dbscan` replayed over captured windows.
pub fn cluster(
    windows: &[Vec<Point>],
    options: &CorrelatorOptions,
    out: &mut Metrics,
) -> BenchResult<()> {
    let params = DbscanParams::new(options.eps_mm, options.min_pts)?;
    let ms = time_ms(|| {
        windows
            .iter()
            .map(|points| black_box(dbscan(points, &params)).len())
            .sum::<usize>()
    });
    let n = windows.len() as f64;
    let points: usize = windows.iter().map(Vec::len).sum();
    out.push("cluster.dbscan.ms_per_window", "ms", ratio(ms, n));
    out.push(
        "cluster.dbscan.points_per_window",
        "count",
        ratio(points as f64, n),
    );
    Ok(())
}

/// The node called `node`, or its parallel instances `node.0`, `node.1`, ….
fn instances<'a>(queries: &'a [QueryMetrics], node: &str) -> Vec<&'a NodeMetrics> {
    queries
        .iter()
        .flat_map(QueryMetrics::nodes)
        .filter(|m| {
            m.name() == node
                || m.name()
                    .strip_prefix(node)
                    .and_then(|rest| rest.strip_prefix('.'))
                    .is_some_and(|index| index.parse::<usize>().is_ok())
        })
        .map(|m| &**m)
        .collect()
}

/// The `q`-quantile of log₂ histograms merged bucket by bucket, estimated
/// as the registry does: the first bucket's upper bound reaching
/// `⌈q·count⌉`, capped at the recorded maximum.
fn merged_quantile(snapshots: &[HistogramSnapshot], q: f64) -> f64 {
    let mut buckets = [0u64; strata_obs::BUCKETS];
    let mut max = 0;
    for snapshot in snapshots {
        for (total, n) in buckets.iter_mut().zip(snapshot.buckets()) {
            *total += n;
        }
        max = max.max(snapshot.max());
    }
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0.0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0;
    for (i, n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            let upper = if i == 0 { 0 } else { u64::MAX >> (64 - i) };
            return upper.min(max) as f64;
        }
    }
    max as f64
}

/// Engine counters of the pipeline's nodes, from `join`'s metrics.
pub fn spe(queries: &[QueryMetrics], out: &mut Metrics) {
    for node in SPE_NODES {
        let nodes = instances(queries, node);
        let items_in: u64 = nodes.iter().map(|n| n.items_in()).sum();
        let process_ns: u64 = nodes.iter().map(|n| n.process_latency().sum()).sum();
        let depths: Vec<HistogramSnapshot> = nodes.iter().map(|n| n.queue_depth()).collect();
        out.push(format!("spe.{node}.items_in"), "count", items_in as f64);
        out.push(
            format!("spe.{node}.process_ms"),
            "ms",
            process_ns as f64 / 1e6,
        );
        out.push(
            format!("spe.{node}.queue_depth_p95"),
            "count",
            merged_quantile(&depths, 0.95),
        );
    }
    for node in ["cell", "cellLabel"] {
        let batches: Vec<HistogramSnapshot> = instances(queries, node)
            .iter()
            .map(|n| n.batch_items())
            .collect();
        out.push(
            format!("spe.{node}.batch_items_p50"),
            "count",
            merged_quantile(&batches, 0.5),
        );
    }
}

/// Connector topics and consumer waits of the broker hosting the
/// topics.
pub fn pubsub(text: &str, out: &mut Metrics) {
    for (label, suffix) in [("raw", ".raw.replay"), ("events", ".events.out")] {
        let topic = |s: &Sample| s.label("topic").is_some_and(|t| t.ends_with(suffix));
        out.push(
            format!("pubsub.{label}.records_in"),
            "count",
            sum(text, "pubsub_topic_records_in_total", topic),
        );
        out.push(
            format!("pubsub.{label}.bytes_in"),
            "bytes",
            sum(text, "pubsub_topic_bytes_in_total", topic),
        );
    }
    let all = |_: &Sample| true;
    out.push(
        "pubsub.fetch_wait_ms.p50",
        "ms",
        histogram_quantile(text, "pubsub_fetch_wait_ns", 0.5, all) / 1e6,
    );
    out.push(
        "pubsub.commit_ms.p50",
        "ms",
        histogram_quantile(text, "pubsub_commit_ns", 0.5, all) / 1e6,
    );
}

/// Server-side request handling of the loopback broker server; 0 on
/// the in-process workloads, which issue no requests.
pub fn net(server_text: Option<&str>, out: &mut Metrics) {
    let text = server_text.unwrap_or_default();
    for op in NET_OPS {
        let this_op = |s: &Sample| s.label("op") == Some(op);
        for (q, name) in [(0.5, "p50"), (0.95, "p95")] {
            out.push(
                format!("net.{op}.request_ms.{name}"),
                "ms",
                histogram_quantile(text, "net_request_ns", q, this_op) / 1e6,
            );
        }
        out.push(
            format!("net.{op}.requests"),
            "count",
            sum(text, "net_request_ns_count", this_op),
        );
    }
}

/// Threshold reads and report writes of the key-value store.
pub fn kv(text: &str, out: &mut Metrics) {
    for op in ["get", "put"] {
        let series = format!("kv_{op}_ns");
        out.push(
            format!("kv.{op}.count"),
            "count",
            sum(text, &format!("{series}_count"), |_| true),
        );
        out.push(
            format!("kv.{op}_ns.p50"),
            "ns",
            histogram_quantile(text, &series, 0.5, |_| true),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strata_obs::Histogram;

    #[test]
    fn merged_quantiles_sum_buckets_across_instances() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in [1, 2, 3] {
            a.record(v);
        }
        for _ in 0..5 {
            b.record(100);
        }
        // Buckets: [1, 2) holds 1, [2, 4) holds 2, [64, 128) holds 5.
        let snapshots = [a.snapshot(), b.snapshot()];
        assert_eq!(merged_quantile(&snapshots, 0.125), 1.0);
        assert_eq!(merged_quantile(&snapshots, 0.25), 3.0);
        // Rank 4 of 8 lands in [64, 128), capped at the recorded max.
        assert_eq!(merged_quantile(&snapshots, 0.5), 100.0);
        assert_eq!(merged_quantile(&[], 0.5), 0.0);
    }
}
