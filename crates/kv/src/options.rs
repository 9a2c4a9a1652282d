//! Store configuration.

use crate::error::{Error, Result};

pub use strata_chaos::frame::SyncPolicy;

/// Options for a [`Db`](crate::Db), built in builder style.
///
/// ```
/// use strata_kv::{DbOptions, SyncPolicy};
/// let opts = DbOptions::default().sync_policy(SyncPolicy::Always);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DbOptions {
    pub(crate) sync: SyncPolicy,
}

impl DbOptions {
    /// Sets when the log is `fsync`ed (disk mode only). See
    /// [`SyncPolicy`] for the durability each variant buys.
    pub fn sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync = policy;
        self
    }

    /// Validates the option set.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for `SyncPolicy::EveryN(0)`.
    pub fn validate(&self) -> Result<()> {
        if self.sync == SyncPolicy::EveryN(0) {
            return Err(Error::InvalidConfig(
                "SyncPolicy::EveryN requires n > 0".into(),
            ));
        }
        Ok(())
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
        assert!(DbOptions::default()
            .sync_policy(SyncPolicy::EveryN(0))
            .validate()
            .is_err());
        assert!(DbOptions::default()
            .sync_policy(SyncPolicy::EveryN(1))
            .validate()
            .is_ok());
    }
}
