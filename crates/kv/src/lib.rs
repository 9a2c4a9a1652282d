//! `strata-kv` — an embedded key-value store.
//!
//! This crate is the key-value substrate of the STRATA reproduction,
//! standing in for the RocksDB instance of the paper's prototype
//! (§4: "the key-value store runs in RocksDB"). STRATA persists
//! at-rest knowledge in it — e.g. the thermal-energy thresholds the
//! `detectEvent` operator reads, computed from historical jobs — and
//! every pipeline module may call `store`/`get` against it (Table 1).
//!
//! That knowledge is a handful of keys, so the store is a sorted map
//! ([`strata_chaos::frame::LogMap`]) kept in one write-ahead log,
//! `wal.log` ([`wal`] gives its frame layout):
//!
//! * every put, delete and [`WriteBatch`] is appended to the log as one
//!   CRC-framed frame before the map sees it, and `fsync`ed per the
//!   [`SyncPolicy`];
//! * opening replays the log, cutting away a torn final frame;
//! * once superseded entries outweigh the live ones, the log is
//!   rewritten to the live entries and renamed into place;
//! * point reads and range scans read the map.
//!
//! # Example
//!
//! ```
//! use strata_kv::{Db, DbOptions};
//!
//! let db = Db::open_in_memory(DbOptions::default())?;
//! db.put(b"threshold/job-17/low", b"1200")?;
//! assert_eq!(db.get(b"threshold/job-17/low")?.as_deref(), Some(b"1200".as_ref()));
//! db.delete(b"threshold/job-17/low")?;
//! assert_eq!(db.get(b"threshold/job-17/low")?, None);
//! # Ok::<(), strata_kv::Error>(())
//! ```

pub mod batch;
pub mod db;
pub mod error;
pub(crate) mod metrics;
pub mod options;
pub mod wal;

pub use batch::WriteBatch;
pub use db::Db;
pub use error::{Error, Result};
pub use options::{DbOptions, SyncPolicy};
