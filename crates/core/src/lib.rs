//! `strata` — a framework for scalable, low-latency, data-driven
//! monitoring of additive-manufacturing (PBF-LB) processes.
//!
//! This crate reproduces the STRATA framework of *Towards
//! Data-Driven Additive Manufacturing Processes* (Middleware '22
//! Industrial Track). STRATA lets an AM expert submit **custom data
//! pipelines** alongside a printing job: the pipelines retrieve live
//! data from the PBF-LB machine, analyze it on the fly, and report
//! results with sub-second latency so the expert can continue,
//! re-adjust, or terminate the process before the next layer starts.
//!
//! # Architecture (paper §4, Figure 2)
//!
//! ```text
//!  PBF-LB machine
//!      │ raw data (OT images, printing parameters)
//!  ┌───▼──────────────┐   addSource
//!  │ Raw Data         │──────────────┐
//!  │ Collector        │              │ publishes
//!  └──────────────────┘   ┌──────────▼─────────┐
//!                         │ Raw Data Connector │  (pub/sub topic)
//!                         └──────────┬─────────┘
//!  ┌──────────────────┐   subscribes │
//!  │ Event Monitor    │◄─────────────┘
//!  │ fuse · partition │
//!  │ · detectEvent    │──────────────┐
//!  └──────────────────┘   ┌──────────▼─────────┐
//!                         │ Event Connector    │  (pub/sub topic)
//!                         └──────────┬─────────┘
//!  ┌──────────────────┐              │
//!  │ Event Aggregator │◄─────────────┘
//!  │ correlateEvents  │───► expert (reports, QoS-checked latency)
//!  └──────────────────┘
//!        ▲ │
//!        │ ▼
//!  ┌──────────────────┐
//!  │ Key-Value Store  │  store(k,v) / get(k) — reachable from every module
//!  └──────────────────┘
//! ```
//!
//! Each module runs as its own stream-processing query
//! ([`strata-spe`](strata_spe)); the connectors are topics of an
//! in-process broker ([`strata-pubsub`](strata_pubsub)); the
//! key-value store is an LSM tree ([`strata-kv`](strata_kv)). Every
//! API method of Table 1 compiles to compositions of *native*
//! operators (Map/FlatMap/Filter/Aggregate/Join), which is what makes
//! pipelines parallelizable and portable.
//!
//! # Quick start
//!
//! ```
//! use strata::{Strata, StrataConfig};
//! use strata_amsim::{MachineConfig, PbfLbMachine};
//! use std::sync::Arc;
//!
//! // A small simulated machine (the paper's geometry, fewer pixels).
//! let machine = Arc::new(PbfLbMachine::new(
//!     MachineConfig::paper_build(1).image_px(200).timing(50, 3),
//! )?);
//!
//! let strata = Strata::new(StrataConfig::default())?;
//! let mut pipeline = strata.pipeline("quick");
//! let ot = pipeline.add_source(
//!     "ot",
//!     strata::collector::OtImageCollector::new(Arc::clone(&machine))
//!         .layers(0..3)
//!         .paced(0.0),
//! );
//! // Count bright pixels per layer, report to the expert.
//! let events = pipeline.detect_event("bright", &ot, |tuple: &strata::AmTuple| {
//!     let image = tuple.payload().image("image")?;
//!     let bright = image.pixels().iter().filter(|&&p| p > 100).count() as i64;
//!     let mut out = tuple.derive();
//!     out.payload_mut().set_int("bright_pixels", bright);
//!     Some(vec![out])
//! });
//! let reports = pipeline.deliver("expert", &events);
//! let running = pipeline.deploy()?;
//! let mut seen = 0;
//! while let Ok(report) = reports.recv_timeout(std::time::Duration::from_secs(10)) {
//!     assert!(report.tuple.payload().int("bright_pixels").unwrap() > 0);
//!     seen += 1;
//!     if seen == 3 { break; }
//! }
//! running.shutdown()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The complete use-case of the paper (Algorithm 1: OT thermal-energy
//! monitoring with DBSCAN clustering) ships in [`usecase::thermal`].

pub mod codec;
pub mod collector;
pub mod config;
pub mod connector;
pub mod dashboard;
pub mod error;
pub mod expert;
pub mod pipeline;
pub mod report;
pub mod strata;
pub mod tuple;
pub mod usecase;

pub use config::{ConnectorMode, StrataConfig};
pub use dashboard::Dashboard;
pub use error::{Error, Result};
pub use pipeline::{AmStream, DeployedPipeline, PipelineBuilder};
pub use report::{ExpertReport, LatencySummary};
pub use strata::Strata;
pub use tuple::{AmTuple, Key, Metadata, Payload, Value};
