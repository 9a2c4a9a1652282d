//! Runtime observability: per-node counters and query-level metrics.
//!
//! The STRATA paper evaluates *latency* and *throughput* (§3, §5).
//! The engine keeps lightweight per-node metrics, built on the shared
//! `strata-obs` primitives, that a running query exposes without
//! locking the data path: monotone counters for item flow plus log₂
//! histograms for per-item processing latency and input queue depth.
//!
//! Metrics exist standalone (every query records into them whether or
//! not anything scrapes), and can additionally be
//! [registered](QueryMetrics::register_into) into a process-wide
//! [`Registry`] where they render as Prometheus exposition with
//! `{query=..., node=...}` labels.

use std::sync::Arc;
use std::time::Instant;

use strata_obs::{Counter, Histogram, HistogramSnapshot, Registry};

/// Metrics for one node (source, operator, or sink) of a query.
///
/// All counters are monotonically increasing and updated with relaxed
/// atomics by the node's worker thread; readers may observe slightly
/// stale values, never torn ones.
#[derive(Debug)]
pub struct NodeMetrics {
    name: String,
    items_in: Counter,
    items_out: Counter,
    watermarks_in: Counter,
    panics: Counter,
    process_ns: Histogram,
    queue_depth: Histogram,
    batch_items: Histogram,
}

impl NodeMetrics {
    /// Creates a zeroed metric set for the node called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NodeMetrics {
            name: name.into(),
            items_in: Counter::new(),
            items_out: Counter::new(),
            watermarks_in: Counter::new(),
            panics: Counter::new(),
            process_ns: Histogram::new(),
            queue_depth: Histogram::new(),
            batch_items: Histogram::new(),
        }
    }

    /// The node's unique name within its query.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of data items the node has consumed so far.
    pub fn items_in(&self) -> u64 {
        self.items_in.get()
    }

    /// Number of data items the node has produced so far.
    pub fn items_out(&self) -> u64 {
        self.items_out.get()
    }

    /// Number of watermarks the node has consumed so far.
    pub fn watermarks_in(&self) -> u64 {
        self.watermarks_in.get()
    }

    /// Number of times this node's user code panicked and was caught
    /// by the runtime's supervision. At most 1 today (a panicked node
    /// does not restart), but kept as a counter for symmetry.
    pub fn panics(&self) -> u64 {
        self.panics.get()
    }

    /// Distribution of the time spent in the operator's callbacks, in
    /// nanoseconds: one sample per `on_batch`, `on_watermark` and
    /// `on_end` call (send-side backpressure is excluded).
    pub fn process_latency(&self) -> HistogramSnapshot {
        self.process_ns.snapshot()
    }

    /// Distribution of this node's total input queue depth, sampled
    /// at each item receipt.
    pub fn queue_depth(&self) -> HistogramSnapshot {
        self.queue_depth.snapshot()
    }

    /// Distribution of micro-batch sizes the node processed (items per
    /// wakeup), recorded at every batch size: a query at batch size 1
    /// records a 1 per item.
    pub fn batch_items(&self) -> HistogramSnapshot {
        self.batch_items.snapshot()
    }

    pub(crate) fn record_in(&self, n: u64) {
        self.items_in.add(n);
    }

    pub(crate) fn record_out(&self, n: u64) {
        self.items_out.add(n);
    }

    pub(crate) fn record_watermark(&self) {
        self.watermarks_in.inc();
    }

    pub(crate) fn record_panic(&self) {
        self.panics.inc();
    }

    pub(crate) fn record_process_since(&self, started: Instant) {
        self.process_ns.record_since(started);
    }

    pub(crate) fn record_queue_depth(&self, depth: u64) {
        self.queue_depth.record(depth);
    }

    pub(crate) fn record_batch(&self, items: u64) {
        self.batch_items.record(items);
    }

    /// Registers this node's handles into `registry` under the
    /// standard `spe_node_*` names, labelled by query and node.
    fn register_into(&self, registry: &Registry, query: &str) {
        let labels: &[(&str, &str)] = &[("node", &self.name), ("query", query)];
        registry.register_counter(
            "spe_node_items_in_total",
            "Data items consumed by the node",
            labels,
            &self.items_in,
        );
        registry.register_counter(
            "spe_node_items_out_total",
            "Data items produced by the node",
            labels,
            &self.items_out,
        );
        registry.register_counter(
            "spe_node_watermarks_total",
            "Watermarks consumed by the node",
            labels,
            &self.watermarks_in,
        );
        registry.register_counter(
            "spe_node_panics_total",
            "Panics caught by the node's supervision",
            labels,
            &self.panics,
        );
        registry.register_histogram(
            "spe_node_process_ns",
            "Time per operator callback in nanoseconds",
            labels,
            &self.process_ns,
        );
        registry.register_histogram(
            "spe_node_queue_depth",
            "Input queue depth sampled at item receipt",
            labels,
            &self.queue_depth,
        );
        registry.register_histogram(
            "spe_node_batch_items",
            "Micro-batch sizes processed per wakeup",
            labels,
            &self.batch_items,
        );
    }

    /// A point-in-time copy of every counter and distribution.
    pub fn snapshot(&self) -> NodeMetricsSnapshot {
        NodeMetricsSnapshot {
            name: self.name.clone(),
            items_in: self.items_in(),
            items_out: self.items_out(),
            watermarks_in: self.watermarks_in(),
            panics: self.panics(),
            process_ns: self.process_latency(),
            queue_depth: self.queue_depth(),
            batch_items: self.batch_items(),
        }
    }
}

/// A read-only view over the metrics of every node in a query, plus
/// the query's wall-clock runtime.
#[derive(Debug, Clone)]
pub struct QueryMetrics {
    query: String,
    nodes: Vec<Arc<NodeMetrics>>,
    started: Instant,
}

impl QueryMetrics {
    pub(crate) fn new(query: String, nodes: Vec<Arc<NodeMetrics>>) -> Self {
        QueryMetrics {
            query,
            nodes,
            started: Instant::now(),
        }
    }

    /// The name of the query these metrics belong to.
    pub fn query(&self) -> &str {
        &self.query
    }

    /// Metrics of every node, in topological creation order.
    pub fn nodes(&self) -> &[Arc<NodeMetrics>] {
        &self.nodes
    }

    /// Metrics for the node named `name`, if it exists.
    pub fn node(&self, name: &str) -> Option<&Arc<NodeMetrics>> {
        self.nodes.iter().find(|m| m.name() == name)
    }

    /// Wall-clock time elapsed since the query started.
    pub fn elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// Aggregate input throughput of the node named `name`, in items
    /// per second since the query started. Returns `None` for an
    /// unknown node.
    pub fn throughput_in(&self, name: &str) -> Option<f64> {
        let node = self.node(name)?;
        let secs = self.elapsed().as_secs_f64();
        if secs == 0.0 {
            return Some(0.0);
        }
        Some(node.items_in() as f64 / secs)
    }

    /// Total caught panics across every node of this query.
    pub fn total_panics(&self) -> u64 {
        self.nodes.iter().map(|n| n.panics()).sum()
    }

    /// Process-wide count of faults fired by the deterministic
    /// fault-injection layer (`strata-chaos`). Always 0 unless the
    /// `failpoints` feature armed the registry — i.e. in production
    /// builds this is a constant. Exposed here so chaos runs can
    /// correlate injected faults with the recovery counters above.
    pub fn chaos_faults(&self) -> u64 {
        strata_chaos::total_fired()
    }

    /// Registers every node's live handles into `registry`, labelled
    /// `{query=..., node=...}`. Recording stays on the same cells, so
    /// the registry renders current values from then on.
    pub fn register_into(&self, registry: &Registry) {
        for node in &self.nodes {
            node.register_into(registry, &self.query);
        }
    }

    /// A point-in-time, human-readable summary of the whole query —
    /// including caught panics, per-item latency quantiles and queue
    /// depths. See [`QueryMetricsSnapshot`]'s `Display`.
    pub fn snapshot(&self) -> QueryMetricsSnapshot {
        QueryMetricsSnapshot {
            query: self.query.clone(),
            elapsed: self.elapsed(),
            nodes: self.nodes.iter().map(|n| n.snapshot()).collect(),
        }
    }
}

/// Point-in-time metrics of one node. All fields are plain values.
#[derive(Debug, Clone)]
pub struct NodeMetricsSnapshot {
    /// The node's name within its query.
    pub name: String,
    /// Items consumed.
    pub items_in: u64,
    /// Items produced.
    pub items_out: u64,
    /// Watermarks consumed.
    pub watermarks_in: u64,
    /// Panics caught by supervision.
    pub panics: u64,
    /// Time per operator callback distribution (nanoseconds).
    pub process_ns: HistogramSnapshot,
    /// Input queue depth distribution, sampled at item receipt.
    pub queue_depth: HistogramSnapshot,
    /// Micro-batch size distribution (items per wakeup).
    pub batch_items: HistogramSnapshot,
}

/// Point-in-time metrics of a whole query, one row per node.
///
/// The `Display` rendering is the user-visible summary: it surfaces
/// `panics` (supervision catches) alongside the flow counters and the
/// latency/queue-depth quantiles, so a wedged or dying node is
/// visible at a glance.
#[derive(Debug, Clone)]
pub struct QueryMetricsSnapshot {
    /// The query's name.
    pub query: String,
    /// Wall-clock time since the query started.
    pub elapsed: std::time::Duration,
    /// One snapshot per node, in topological creation order.
    pub nodes: Vec<NodeMetricsSnapshot>,
}

impl QueryMetricsSnapshot {
    /// Total caught panics across every node.
    pub fn total_panics(&self) -> u64 {
        self.nodes.iter().map(|n| n.panics).sum()
    }
}

impl std::fmt::Display for QueryMetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "query `{}`: {} nodes, elapsed {:.3}s, panics {}",
            self.query,
            self.nodes.len(),
            self.elapsed.as_secs_f64(),
            self.total_panics(),
        )?;
        for n in &self.nodes {
            write!(
                f,
                "  {}: in={} out={} wm={} panics={}",
                n.name, n.items_in, n.items_out, n.watermarks_in, n.panics
            )?;
            if n.process_ns.count() > 0 {
                write!(
                    f,
                    " proc[p50={}ns p99={}ns max={}ns]",
                    n.process_ns.p50(),
                    n.process_ns.p99(),
                    n.process_ns.max()
                )?;
            }
            if n.queue_depth.count() > 0 {
                write!(f, " queue[p99={}]", n.queue_depth.p99())?;
            }
            if n.batch_items.count() > 0 {
                write!(
                    f,
                    " batch[p50={} max={}]",
                    n.batch_items.p50(),
                    n.batch_items.max()
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = NodeMetrics::new("map");
        m.record_in(3);
        m.record_in(2);
        m.record_out(4);
        m.record_watermark();
        assert_eq!(m.items_in(), 5);
        assert_eq!(m.items_out(), 4);
        assert_eq!(m.watermarks_in(), 1);
        assert_eq!(m.name(), "map");
    }

    #[test]
    fn query_metrics_lookup() {
        let nodes = vec![
            Arc::new(NodeMetrics::new("src")),
            Arc::new(NodeMetrics::new("sink")),
        ];
        let qm = QueryMetrics::new("q".into(), nodes);
        assert_eq!(qm.query(), "q");
        assert!(qm.node("src").is_some());
        assert!(qm.node("nope").is_none());
        assert_eq!(qm.nodes().len(), 2);
        assert!(qm.throughput_in("nope").is_none());
        qm.node("src").unwrap().record_in(10);
        assert!(qm.throughput_in("src").unwrap() >= 0.0);
    }

    #[test]
    fn panic_counters_aggregate() {
        let nodes = vec![
            Arc::new(NodeMetrics::new("a")),
            Arc::new(NodeMetrics::new("b")),
        ];
        let qm = QueryMetrics::new("q".into(), nodes);
        assert_eq!(qm.total_panics(), 0);
        qm.node("a").unwrap().record_panic();
        qm.node("b").unwrap().record_panic();
        assert_eq!(qm.node("a").unwrap().panics(), 1);
        assert_eq!(qm.total_panics(), 2);
        // Without the failpoints feature this is a compile-time 0.
        if !strata_chaos::is_compiled() {
            assert_eq!(qm.chaos_faults(), 0);
        }
    }

    #[test]
    fn snapshot_surfaces_flow_latency_and_panics() {
        let node = Arc::new(NodeMetrics::new("detect"));
        node.record_in(7);
        node.record_out(3);
        node.record_panic();
        node.record_queue_depth(4);
        node.record_process_since(Instant::now());
        let qm = QueryMetrics::new("monitor".into(), vec![node]);
        let snap = qm.snapshot();
        assert_eq!(snap.total_panics(), 1);
        let text = snap.to_string();
        assert!(text.contains("query `monitor`"), "{text}");
        assert!(text.contains("detect: in=7 out=3 wm=0 panics=1"), "{text}");
        assert!(text.contains("proc[p50="), "{text}");
        assert!(text.contains("queue[p99=4]"), "{text}");
    }

    #[test]
    fn registration_exposes_prometheus_series() {
        let node = Arc::new(NodeMetrics::new("map"));
        node.record_in(5);
        let qm = QueryMetrics::new("q1".into(), vec![node]);
        let registry = Registry::new();
        qm.register_into(&registry);
        let text = registry.render();
        assert!(
            text.contains("spe_node_items_in_total{node=\"map\",query=\"q1\"} 5"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE spe_node_process_ns histogram"),
            "{text}"
        );
    }
}
