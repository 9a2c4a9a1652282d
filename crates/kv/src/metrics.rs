//! Store-level metrics: operation latency histograms.
//!
//! Every [`Db`](crate::Db) records into its own handles whether or
//! not anything scrapes them;
//! [`Db::register_metrics`](crate::Db::register_metrics) additionally
//! lands them in a shared `strata-obs` registry under `kv_*` names.

use strata_obs::{Histogram, Registry};

pub(crate) struct KvMetrics {
    pub(crate) get_ns: Histogram,
    pub(crate) put_ns: Histogram,
    pub(crate) flush_ns: Histogram,
    pub(crate) compact_ns: Histogram,
}

impl KvMetrics {
    pub(crate) fn new() -> Self {
        KvMetrics {
            get_ns: Histogram::new(),
            put_ns: Histogram::new(),
            flush_ns: Histogram::new(),
            compact_ns: Histogram::new(),
        }
    }

    pub(crate) fn register_into(&self, registry: &Registry) {
        registry.register_histogram("kv_get_ns", "Point-lookup latency", &[], &self.get_ns);
        registry.register_histogram(
            "kv_put_ns",
            "Write latency including the log append and any compaction it triggers",
            &[],
            &self.put_ns,
        );
        registry.register_histogram(
            "kv_flush_ns",
            "Explicit log fsync latency",
            &[],
            &self.flush_ns,
        );
        registry.register_histogram(
            "kv_compact_ns",
            "Explicit log compaction latency",
            &[],
            &self.compact_ns,
        );
    }
}
