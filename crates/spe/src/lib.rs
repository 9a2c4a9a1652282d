//! `strata-spe` — a Liebre-style, scale-up stream processing engine.
//!
//! This crate implements the stream-processing substrate that the
//! [STRATA](https://doi.org/10.1145/3564695.3564778) framework builds
//! on. It follows the execution model of Liebre, the lightweight SPE
//! used in the paper's prototype: continuous queries are Directed
//! Acyclic Graphs of *operators* connected by bounded in-memory
//! channels, each operator runs on its own thread, and time is *event
//! time* driven by watermarks.
//!
//! # Native operators
//!
//! The engine provides the native operators the paper relies on
//! (§2 of the paper):
//!
//! * **Map / FlatMap / Filter** — stateless, one tuple at a time.
//! * **Aggregate** — stateful, sliding event-time windows of size `WS`
//!   and advance `WA`, with optional group-by. For each group-by value,
//!   windows cover `[ℓ·WA, ℓ·WA + WS)` for `ℓ ∈ ℕ`.
//! * **Join** — stateful, matches pairs `⟨tL, tR⟩` with
//!   `|tL.τ − tR.τ| ≤ WS` that satisfy a user predicate, with optional
//!   group-by.
//! * **Union** — merges homogeneous streams.
//!
//! # Quick example
//!
//! ```
//! use strata_spe::prelude::*;
//!
//! let mut qb = QueryBuilder::new("doubler");
//! let src = qb.source("numbers", IteratorSource::new(0u64..10));
//! let doubled = qb.map("double", &src, |x: u64| x * 2);
//! let out = qb.collect_sink("collect", &doubled);
//! let running = qb.build().expect("valid query").run();
//! running.join().expect("query ran to completion");
//! let collected = out.take();
//! assert_eq!(collected, (0..10).map(|x| x * 2).collect::<Vec<_>>());
//! ```
//!
//! # Threads, backpressure and termination
//!
//! Every node (source, operator, sink) runs on a dedicated thread.
//! Each non-source node has one bounded inbox that all of its inputs
//! feed, tagged by input; a fast producer blocks on a full inbox,
//! which propagates backpressure to the sources. Data moves in
//! micro-batches ([`Batch`]; a single item is a batch of one), and
//! watermarks and end-of-stream travel in-band behind the data they
//! follow. Termination is cooperative: when a [`source::Source`]
//! finishes (or the query is [stopped](query::RunningQuery::stop)), an
//! *end-of-stream* marker flows through the graph, flushing stateful
//! operators on the way, and every thread exits. A node that stops for
//! any other reason — including a panic — still ends each input it
//! fed, so the rest of the graph drains.

pub mod builder;
pub mod element;
pub mod error;
pub mod metrics;
pub mod operator;
pub mod operators;
pub mod query;
pub mod sink;
pub mod source;
pub mod time;
pub mod window;

mod runtime;

pub use builder::{QueryBuilder, Stream};
pub use element::{Batch, Element};
pub use error::{Error, Result};
pub use metrics::{NodeMetrics, NodeMetricsSnapshot, QueryMetrics, QueryMetricsSnapshot};
pub use query::{Query, RunningQuery};
pub use sink::CollectHandle;
pub use source::{IteratorSource, Source, SourceContext, TimedBatchSource};
pub use time::{Timestamp, Timestamped};
pub use window::WindowSpec;

/// Convenience re-exports for building queries.
pub mod prelude {
    pub use crate::builder::{QueryBuilder, Stream};
    pub use crate::element::{Batch, Element};
    pub use crate::error::{Error, Result};
    pub use crate::operators::aggregate::WindowBounds;
    pub use crate::operators::RoutePolicy;
    pub use crate::query::{Query, RunningQuery};
    pub use crate::sink::CollectHandle;
    pub use crate::source::{IteratorSource, Source, SourceContext, TimedBatchSource};
    pub use crate::time::{Timestamp, Timestamped};
    pub use crate::window::WindowSpec;
}
