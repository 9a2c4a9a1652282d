//! Store configuration.

use crate::error::{Error, Result};

pub use strata_chaos::frame::SyncPolicy;

/// Tuning knobs for a [`Db`](crate::Db), built in builder style.
///
/// ```
/// use strata_kv::DbOptions;
/// let opts = DbOptions::default()
///     .memtable_bytes(4 * 1024 * 1024)
///     .block_bytes(8 * 1024)
///     .bloom_bits_per_key(10)
///     .compaction_trigger(6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbOptions {
    memtable_bytes: usize,
    block_bytes: usize,
    bloom_bits_per_key: u32,
    compaction_trigger: usize,
    wal: bool,
    sync: SyncPolicy,
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            memtable_bytes: 4 * 1024 * 1024,
            block_bytes: 4 * 1024,
            bloom_bits_per_key: 10,
            compaction_trigger: 4,
            wal: true,
            sync: SyncPolicy::Never,
        }
    }
}

impl DbOptions {
    /// Sets the memtable size that triggers a flush to an SSTable.
    pub fn memtable_bytes(mut self, bytes: usize) -> Self {
        self.memtable_bytes = bytes;
        self
    }

    /// Sets the target size of one SSTable data block.
    pub fn block_bytes(mut self, bytes: usize) -> Self {
        self.block_bytes = bytes;
        self
    }

    /// Sets the bloom filter density; `0` disables bloom filters
    /// (used by the ablation benchmark).
    pub fn bloom_bits_per_key(mut self, bits: u32) -> Self {
        self.bloom_bits_per_key = bits;
        self
    }

    /// Sets how many SSTables may accumulate before a size-tiered
    /// compaction merges them.
    pub fn compaction_trigger(mut self, tables: usize) -> Self {
        self.compaction_trigger = tables;
        self
    }

    /// Enables or disables the write-ahead log (disk mode only).
    /// Disabling trades crash durability for write throughput.
    pub fn wal(mut self, enabled: bool) -> Self {
        self.wal = enabled;
        self
    }

    /// Sets when the WAL is `fsync`ed (disk mode only). See
    /// [`SyncPolicy`] for the durability each variant buys.
    pub fn sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync = policy;
        self
    }

    /// Validates the option set.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for zero sizes or a compaction
    /// trigger below 2.
    pub fn validate(&self) -> Result<()> {
        if self.memtable_bytes == 0 {
            return Err(Error::InvalidConfig("memtable_bytes must be > 0".into()));
        }
        if self.block_bytes == 0 {
            return Err(Error::InvalidConfig("block_bytes must be > 0".into()));
        }
        if self.compaction_trigger < 2 {
            return Err(Error::InvalidConfig(
                "compaction_trigger must be ≥ 2".into(),
            ));
        }
        if self.sync == SyncPolicy::EveryN(0) {
            return Err(Error::InvalidConfig(
                "SyncPolicy::EveryN requires n > 0".into(),
            ));
        }
        Ok(())
    }

    pub(crate) fn memtable_bytes_value(&self) -> usize {
        self.memtable_bytes
    }

    pub(crate) fn block_bytes_value(&self) -> usize {
        self.block_bytes
    }

    pub(crate) fn bloom_bits_per_key_value(&self) -> u32 {
        self.bloom_bits_per_key
    }

    pub(crate) fn compaction_trigger_value(&self) -> usize {
        self.compaction_trigger
    }

    pub(crate) fn wal_enabled(&self) -> bool {
        self.wal
    }

    pub(crate) fn sync_policy_value(&self) -> SyncPolicy {
        self.sync
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(DbOptions::default().validate().is_ok());
    }

    #[test]
    fn rejects_degenerate_options() {
        assert!(DbOptions::default().memtable_bytes(0).validate().is_err());
        assert!(DbOptions::default().block_bytes(0).validate().is_err());
        assert!(DbOptions::default()
            .compaction_trigger(1)
            .validate()
            .is_err());
        assert!(DbOptions::default()
            .sync_policy(SyncPolicy::EveryN(0))
            .validate()
            .is_err());
        assert!(DbOptions::default()
            .sync_policy(SyncPolicy::EveryN(1))
            .validate()
            .is_ok());
    }

    #[test]
    fn builder_sets_fields() {
        let opts = DbOptions::default()
            .memtable_bytes(1)
            .block_bytes(2)
            .bloom_bits_per_key(0)
            .compaction_trigger(9)
            .wal(false);
        assert_eq!(opts.memtable_bytes_value(), 1);
        assert_eq!(opts.block_bytes_value(), 2);
        assert_eq!(opts.bloom_bits_per_key_value(), 0);
        assert_eq!(opts.compaction_trigger_value(), 9);
        assert!(!opts.wal_enabled());
    }
}
