//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the subset the workspace uses — `crossbeam::channel` with
//! bounded/unbounded MPMC channels, blocking/timed/non-blocking
//! receive and iteration — all implemented over `std::sync` primitives.

pub mod channel;
