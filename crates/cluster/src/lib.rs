//! `strata-cluster` — clustering algorithms for AM defect detection.
//!
//! The STRATA use-case (paper §5) clusters specimen portions melted
//! with too-low or too-high thermal energy, *within and across
//! layers*, and reports clusters bigger than a volume threshold. The
//! paper chooses **DBSCAN** (Ester et al., KDD'96) over the k-means
//! of earlier defect-detection work because the number of clusters is
//! unknown in advance and defects have arbitrary shapes.
//!
//! This crate provides:
//!
//! * [`dbscan()`] — grid-accelerated DBSCAN over 3-D points (the
//!   [`grid`] index sorts the points into ε-wide `x`/`y` columns, so a
//!   query costs one distance per point in its 9 columns; each point is
//!   queried once);
//! * [`naive`] — the textbook O(n²) DBSCAN, kept as the correctness
//!   oracle for property tests and as the ablation baseline;
//! * [`kmeans()`] — k-means++ (the paper's comparator from prior work
//!   on pore classification);
//! * [`summary`] — per-cluster size, centroid and bounding box, the
//!   figures `correlateEvents` reports;
//! * [`tracker`] — stable cluster identities from one correlation
//!   window to the next, matched by bounding-box overlap;
//! * [`quality`] — silhouette and Davies–Bouldin metrics making the
//!   DBSCAN-vs-k-means accuracy comparison quantitative.
//!
//! # Example
//!
//! ```
//! use strata_cluster::{dbscan, DbscanParams, Point};
//!
//! let points = vec![
//!     Point::new(0.0, 0.0, 0.0),
//!     Point::new(0.5, 0.0, 0.0),
//!     Point::new(0.0, 0.5, 0.0),
//!     Point::new(100.0, 100.0, 0.0), // isolated → noise
//! ];
//! let labels = dbscan(&points, &DbscanParams::new(1.0, 3)?);
//! assert_eq!(labels[0], labels[1]);
//! assert!(labels[3].is_noise());
//! # Ok::<(), strata_cluster::Error>(())
//! ```

pub mod dbscan;
pub mod error;
pub mod grid;
pub mod kmeans;
pub mod naive;
pub mod point;
pub mod quality;
pub mod summary;
pub mod tracker;

pub use dbscan::{dbscan, DbscanParams, Label};
pub use error::{Error, Result};
pub use kmeans::{kmeans, KmeansParams, KmeansResult};
pub use point::Point;
pub use quality::{davies_bouldin, silhouette};
pub use summary::ClusterSummary;
pub use tracker::ClusterTracker;
