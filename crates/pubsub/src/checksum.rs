//! CRC-32 checksumming shared by the on-disk wire format and the
//! network transport (`strata-net`).
//!
//! [`crc32`] is the workspace's single slicing-by-8 IEEE CRC-32 from
//! `strata-chaos`, re-exported here. The segment and offset framing
//! in this crate, the TCP message framing in `strata-net` and the kv
//! WAL and SSTable blocks all use it, so a record's bytes are covered
//! by the same algorithm at rest and in flight.

pub use strata_chaos::crc32;
