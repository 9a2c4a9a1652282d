//! Framework configuration.

use std::path::PathBuf;
use std::time::Duration;

/// How STRATA's modules exchange data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectorMode {
    /// The paper's architecture: modules run as separate queries
    /// bridged by pub/sub topics (the *Raw Data Connector* and
    /// *Event Connector*), which decouples their lifecycles and lets
    /// independent pipelines share the data.
    PubSub,
    /// All modules fused into one query with direct channels —
    /// the ablation baseline quantifying the connector overhead.
    Direct,
    /// Like [`PubSub`](ConnectorMode::PubSub), but the broker lives
    /// in another process: connector topics are reached over TCP
    /// through a `strata-net` broker server at `addr`. This is the
    /// deployment the paper actually ran — connectors in a shared
    /// Kafka cluster, modules on separate machines.
    Remote {
        /// Address of the broker server, e.g. `"10.0.0.5:9009"`.
        addr: String,
    },
}

/// Configuration of a [`Strata`](crate::Strata) instance, builder
/// style.
///
/// ```
/// use strata::{ConnectorMode, StrataConfig};
/// use std::time::Duration;
/// let config = StrataConfig::default()
///     .qos(Duration::from_secs(3))
///     .connector_mode(ConnectorMode::PubSub)
///     .batch_size(64);
/// ```
#[derive(Debug, Clone)]
pub struct StrataConfig {
    qos: Duration,
    connector_mode: ConnectorMode,
    kv_dir: Option<PathBuf>,
    batch_size: usize,
}

impl Default for StrataConfig {
    fn default() -> Self {
        StrataConfig {
            // The paper's QoS threshold: the ~3 s recoat gap between
            // layers, within which a layer's result must be out.
            qos: Duration::from_secs(3),
            connector_mode: ConnectorMode::PubSub,
            kv_dir: None,
            // One OT image row region per channel wakeup amortizes
            // channel synchronization ~10× (see BENCH_spe_batch.json)
            // while the engine's flush deadline keeps per-layer
            // latency far below the 3 s QoS gap.
            batch_size: 64,
        }
    }
}

impl StrataConfig {
    /// Sets the latency QoS threshold reported per result (default:
    /// the 3 s recoat gap of the paper's machine).
    pub fn qos(mut self, qos: Duration) -> Self {
        self.qos = qos;
        self
    }

    /// Chooses how modules exchange data (default
    /// [`ConnectorMode::PubSub`]).
    pub fn connector_mode(mut self, mode: ConnectorMode) -> Self {
        self.connector_mode = mode;
        self
    }

    /// Persists the key-value store under `dir` (default: in-memory).
    pub fn kv_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.kv_dir = Some(dir.into());
        self
    }

    /// Sets the SPE micro-batch size used by all pipeline queries
    /// (default 64; clamped to ≥ 1). `1` restores item-at-a-time
    /// processing — lowest latency, lowest throughput. Results are
    /// identical at every batch size; only performance changes.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// The configured QoS threshold.
    pub fn qos_threshold(&self) -> Duration {
        self.qos
    }

    /// The configured connector mode.
    pub fn connector_mode_value(&self) -> ConnectorMode {
        self.connector_mode.clone()
    }

    pub(crate) fn kv_dir_value(&self) -> Option<&PathBuf> {
        self.kv_dir.as_ref()
    }

    pub(crate) fn batch_size_value(&self) -> usize {
        self.batch_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = StrataConfig::default();
        assert_eq!(c.qos_threshold(), Duration::from_secs(3));
        assert_eq!(c.connector_mode_value(), ConnectorMode::PubSub);
    }

    #[test]
    fn builder_sets_fields() {
        let c = StrataConfig::default()
            .qos(Duration::from_millis(500))
            .connector_mode(ConnectorMode::Direct)
            .batch_size(0);
        assert_eq!(c.qos_threshold(), Duration::from_millis(500));
        assert_eq!(c.connector_mode_value(), ConnectorMode::Direct);
        assert_eq!(c.batch_size_value(), 1, "clamped");
    }

    #[test]
    fn batching_defaults_are_on() {
        let c = StrataConfig::default();
        assert_eq!(c.batch_size_value(), 64);
    }

    #[test]
    fn remote_mode_carries_the_address() {
        let c = StrataConfig::default().connector_mode(ConnectorMode::Remote {
            addr: "127.0.0.1:9009".into(),
        });
        assert_eq!(
            c.connector_mode_value(),
            ConnectorMode::Remote {
                addr: "127.0.0.1:9009".into()
            }
        );
    }
}
