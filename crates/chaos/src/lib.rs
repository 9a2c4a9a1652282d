//! `strata-chaos`: deterministic fault injection for crash-safety
//! testing.
//!
//! Long builds mean long-running monitoring pipelines; the only way
//! to *know* the storage and transport layers survive crashes is to
//! inject the crashes. This crate provides the three pieces the rest
//! of the workspace threads through its write paths:
//!
//! * a process-wide **failpoint registry** ([`Scenario`], [`hit`],
//!   [`fail_point`]) — zero-cost unless built with the `failpoints`
//!   feature, deterministic via hit counters and seeded RNGs;
//! * a **chaos I/O facade** ([`ChaosFile`], [`fsync_dir`],
//!   [`simulate_crash`]) — torn writes, short writes, failed fsyncs,
//!   injected error kinds, and power-loss simulation that truncates a
//!   file to its last synced length;
//! * **net-level faults** ([`ChaosStream`]) — sever or delay a
//!   `TcpStream` at an exact byte boundary;
//! * the workspace's one **CRC-32** ([`crc32`]), which every frame on
//!   disk and on the wire carries so readers can detect those faults;
//! * one **frame** layer ([`frame`]) that every durable log and the
//!   net codec share: the envelope, the torn-tail recovery rule, its
//!   counter, and the `SyncPolicy` appender.
//!
//! Point names are dotted paths owned by the instrumented crate
//! (`kv.wal.write`, `pubsub.segment.sync`, `net.server.send`, …); the
//! facades append the final `.write`/`.sync`/`.recv`/`.send` segment.
//!
//! ```
//! use strata_chaos::{Fault, Scenario};
//!
//! let scenario = Scenario::setup();
//! scenario.fail_nth("kv.wal.sync", 3, Fault::Io(std::io::ErrorKind::Other));
//! // ... run the workload; the third WAL fsync fails, deterministically.
//! drop(scenario); // disarms everything
//! ```

pub mod checksum;
pub mod frame;
pub mod net;
pub mod registry;
pub mod vfs;

pub use checksum::crc32;
pub use net::ChaosStream;
pub use registry::{fail_point, fired, hit, is_compiled, total_fired, Fault, Scenario};
pub use vfs::{fsync_dir, simulate_crash, ChaosFile};
