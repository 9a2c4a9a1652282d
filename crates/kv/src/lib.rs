//! `strata-kv` — an embedded LSM-tree key-value store.
//!
//! This crate is the key-value substrate of the STRATA reproduction,
//! standing in for the RocksDB instance of the paper's prototype
//! (§4: "the key-value store runs in RocksDB"). STRATA persists
//! at-rest knowledge in it — e.g. the thermal-energy thresholds the
//! `detectEvent` operator reads, computed from historical jobs — and
//! every pipeline module may call `store`/`get` against it (Table 1).
//!
//! The design is a compact log-structured merge tree:
//!
//! * writes go to a write-ahead log ([`wal`]) and a sorted in-memory
//!   [`memtable`];
//! * a full memtable is flushed into an immutable **SSTable**
//!   ([`sstable`]): sorted blocks, a sparse block index, and a bloom
//!   filter ([`bloom`]) to skip tables on point lookups;
//! * reads consult the memtable, then SSTables newest-first;
//! * background-free, size-tiered [`compaction`](db) merges tables
//!   when their count passes a threshold, dropping shadowed versions
//!   and (on full merges) tombstones;
//! * range scans merge all sources with a [`MergeIterator`](crate::iterator::MergeIterator).
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
pub mod bloom;
pub mod db;
pub mod error;
pub mod iterator;
pub mod memtable;
pub(crate) mod metrics;
pub mod options;
pub mod sstable;
pub mod wal;

pub use batch::WriteBatch;
pub use db::Db;
pub use error::{Error, Result};
pub use options::{DbOptions, SyncPolicy};
