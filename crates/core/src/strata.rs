//! The framework facade: shared broker, key-value store, and
//! pipeline creation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use strata_kv::{Db, DbOptions};
use strata_pubsub::Broker;

use crate::config::StrataConfig;
use crate::error::Result;
use crate::pipeline::PipelineBuilder;

/// A STRATA instance: one broker (the connector substrate), one
/// key-value store (the at-rest substrate), and any number of expert
/// pipelines on top. Cheap to clone; clones share everything.
#[derive(Clone)]
pub struct Strata {
    config: StrataConfig,
    broker: Broker,
    kv: Db,
    pipeline_seq: Arc<AtomicU64>,
}

impl std::fmt::Debug for Strata {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Strata")
            .field("broker", &self.broker)
            .field("kv", &self.kv)
            .finish()
    }
}

impl Strata {
    /// Creates an instance with the given configuration. The
    /// key-value store lives in memory unless
    /// [`StrataConfig::kv_dir`] points somewhere.
    ///
    /// # Errors
    ///
    /// Key-value store open failures.
    pub fn new(config: StrataConfig) -> Result<Self> {
        let kv = match config.kv_dir_value() {
            Some(dir) => Db::open(dir, DbOptions::default())?,
            None => Db::open_in_memory(DbOptions::default())?,
        };
        let broker = Broker::new();
        // The broker's registry is the instance-wide one: the store
        // (here), the pipelines (at deploy), and any net front-end (at
        // bind) all land their metrics in it.
        kv.register_metrics(broker.registry());
        Ok(Strata {
            config,
            broker,
            kv,
            pipeline_seq: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Table 1 `store(k, v)`: persists a value in the key-value
    /// store. Reachable from every module and every user function.
    ///
    /// # Errors
    ///
    /// Storage failures.
    pub fn store(&self, key: impl AsRef<[u8]>, value: impl AsRef<[u8]>) -> Result<()> {
        Ok(self.kv.put(key, value)?)
    }

    /// Table 1 `get(k)`: retrieves a value from the key-value store.
    ///
    /// # Errors
    ///
    /// Storage failures.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Result<Option<Vec<u8>>> {
        Ok(self.kv.get(key)?)
    }

    /// Convenience: stores a float as its decimal representation
    /// (thresholds, calibration constants).
    ///
    /// # Errors
    ///
    /// Storage failures.
    pub fn store_float(&self, key: impl AsRef<[u8]>, value: f64) -> Result<()> {
        self.store(key, value.to_string())
    }

    /// Convenience: reads a float stored by
    /// [`store_float`](Strata::store_float).
    ///
    /// # Errors
    ///
    /// Storage failures; an unparsable value reads as `None`.
    pub fn get_float(&self, key: impl AsRef<[u8]>) -> Result<Option<f64>> {
        Ok(self
            .get(key)?
            .and_then(|bytes| String::from_utf8(bytes).ok())
            .and_then(|s| s.parse().ok()))
    }

    /// Direct access to the key-value store (for user functions that
    /// need scans or batches).
    pub fn kv(&self) -> &Db {
        &self.kv
    }

    /// Direct access to the connector broker (e.g. for external
    /// subscribers replaying a connector topic).
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// The instance configuration.
    pub fn config(&self) -> &StrataConfig {
        &self.config
    }

    /// The instance-wide metrics registry: broker, store, deployed
    /// pipelines, and any net front-end bound on this broker.
    pub fn registry(&self) -> &strata_obs::Registry {
        self.broker.registry()
    }

    /// One Prometheus text dump covering the whole instance: pipeline
    /// operators (`spe_*`), connector topics (`pubsub_*`), the
    /// key-value store (`kv_*`), and — once a server is bound — the
    /// transport (`net_*`).
    pub fn metrics_text(&self) -> String {
        self.broker.registry().render()
    }

    /// Starts composing a new pipeline. Pipeline names may repeat;
    /// connector topics are disambiguated per instance.
    ///
    /// The pipeline's queries run on the instance's micro-batched
    /// data plane, sized by [`StrataConfig::batch_size`]; batching
    /// changes throughput and latency only, never results (DESIGN.md
    /// §4e).
    pub fn pipeline(&self, name: impl Into<String>) -> PipelineBuilder {
        let instance = self.pipeline_seq.fetch_add(1, Ordering::Relaxed);
        PipelineBuilder::new(
            name.into(),
            instance,
            self.config.clone(),
            self.broker.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_get_round_trip() {
        let strata = Strata::new(StrataConfig::default()).unwrap();
        strata.store("threshold/low", "100").unwrap();
        assert_eq!(strata.get("threshold/low").unwrap(), Some(b"100".to_vec()));
        assert_eq!(strata.get("missing").unwrap(), None);
    }

    #[test]
    fn float_helpers_round_trip() {
        let strata = Strata::new(StrataConfig::default()).unwrap();
        strata.store_float("pi", 3.25).unwrap();
        assert_eq!(strata.get_float("pi").unwrap(), Some(3.25));
        strata.store("junk", "not-a-number").unwrap();
        assert_eq!(strata.get_float("junk").unwrap(), None);
    }

    #[test]
    fn clones_share_the_store() {
        let strata = Strata::new(StrataConfig::default()).unwrap();
        let clone = strata.clone();
        strata.store("k", "v").unwrap();
        assert_eq!(clone.get("k").unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn metrics_text_covers_store_operations() {
        let strata = Strata::new(StrataConfig::default()).unwrap();
        strata.store("k", "v").unwrap();
        let _ = strata.get("k").unwrap();
        let text = strata.metrics_text();
        assert!(text.contains("kv_put_ns_count 1"), "{text}");
        assert!(text.contains("kv_get_ns_count 1"), "{text}");
        assert!(text.contains("chaos_faults_total"), "{text}");
    }

    #[test]
    fn pipelines_get_distinct_instances() {
        let strata = Strata::new(StrataConfig::default()).unwrap();
        let a = strata.pipeline("same-name");
        let b = strata.pipeline("same-name");
        assert_eq!(a.name(), b.name());
    }
}
