//! Grid-accelerated DBSCAN (Ester et al., KDD 1996).

use crate::error::{Error, Result};
use crate::grid::GridIndex;
use crate::point::Point;

/// DBSCAN parameters: neighborhood radius ε and the core-point
/// density threshold `min_pts` (a point's ε-neighborhood, itself
/// included, must hold at least `min_pts` points for the point to be
/// *core*).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscanParams {
    eps: f64,
    min_pts: usize,
}

impl DbscanParams {
    /// Creates validated parameters.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParams`] unless `eps > 0` (and finite) and
    /// `min_pts ≥ 1`.
    pub fn new(eps: f64, min_pts: usize) -> Result<Self> {
        if !eps.is_finite() || eps <= 0.0 {
            return Err(Error::InvalidParams(format!(
                "eps must be positive and finite, got {eps}"
            )));
        }
        if min_pts == 0 {
            return Err(Error::InvalidParams("min_pts must be ≥ 1".into()));
        }
        Ok(DbscanParams { eps, min_pts })
    }

    /// The neighborhood radius ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The core-point density threshold.
    pub fn min_pts(&self) -> usize {
        self.min_pts
    }
}

/// A point's cluster assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Not density-reachable from any core point.
    Noise,
    /// Member of the cluster with the given dense id (0, 1, …, in
    /// discovery order).
    Cluster(u32),
}

impl Label {
    /// `true` for [`Label::Noise`].
    pub fn is_noise(&self) -> bool {
        matches!(self, Label::Noise)
    }

    /// The cluster id, if any.
    pub fn cluster(&self) -> Option<u32> {
        match self {
            Label::Cluster(id) => Some(*id),
            Label::Noise => None,
        }
    }
}

/// Runs DBSCAN over `points`, returning one [`Label`] per point (same
/// order as the input).
///
/// Semantics follow the original algorithm exactly: core points are
/// those with at least `min_pts` points within ε (themselves
/// included); clusters are maximal sets of density-connected points;
/// border points join the cluster of the first core point that
/// reaches them; the rest is noise. Cluster ids follow seed order.
/// Each point's neighborhood is queried once, through the column grid
/// index, so the runtime is O(n · candidates per query).
pub fn dbscan(points: &[Point], params: &DbscanParams) -> Vec<Label> {
    let mut labels = vec![None::<Label>; points.len()];
    if points.is_empty() {
        return Vec::new();
    }
    let grid = GridIndex::build(points, params.eps);
    let mut next_cluster = 0u32;
    let mut pending: Vec<u32> = Vec::new();
    let mut neighbors: Vec<u32> = Vec::new();

    for seed in 0..points.len() {
        if labels[seed].is_some() {
            continue;
        }
        grid.neighbors_into(seed, &mut neighbors);
        if neighbors.len() < params.min_pts {
            labels[seed] = Some(Label::Noise);
            continue;
        }
        // `seed` is a core point: grow a new cluster from it. Points
        // are labelled as they are reached, and only unlabelled ones
        // are queued, so each is queried once. No other cluster grows
        // meanwhile, so the visit order does not change any label.
        let cluster = Label::Cluster(next_cluster);
        next_cluster += 1;
        labels[seed] = Some(cluster);
        claim(&neighbors, cluster, &mut labels, &mut pending);
        while let Some(idx) = pending.pop() {
            grid.neighbors_into(idx as usize, &mut neighbors);
            if neighbors.len() >= params.min_pts {
                claim(&neighbors, cluster, &mut labels, &mut pending); // idx is core.
            }
        }
    }
    labels
        .into_iter()
        .map(|l| l.expect("every point labeled"))
        .collect()
}

/// Puts the `neighbors` of a core point into `cluster`: unlabelled
/// ones are queued to be expanded in turn, and noise becomes a border
/// point (it was queried already and is not core).
fn claim(neighbors: &[u32], cluster: Label, labels: &mut [Option<Label>], pending: &mut Vec<u32>) {
    for &j in neighbors {
        let label = &mut labels[j as usize];
        match label {
            None => {
                *label = Some(cluster);
                pending.push(j);
            }
            Some(Label::Noise) => *label = Some(cluster),
            Some(Label::Cluster(_)) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(cx: f64, cy: f64, n: usize, spread: f64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let angle = i as f64 * 2.399963; // golden angle: deterministic spread
                let r = spread * (i as f64 / n as f64);
                Point::new(cx + r * angle.cos(), cy + r * angle.sin(), 0.0)
            })
            .collect()
    }

    #[test]
    fn rejects_bad_params() {
        assert!(DbscanParams::new(0.0, 3).is_err());
        assert!(DbscanParams::new(-1.0, 3).is_err());
        assert!(DbscanParams::new(f64::NAN, 3).is_err());
        assert!(DbscanParams::new(1.0, 0).is_err());
        assert!(DbscanParams::new(1.0, 1).is_ok());
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(dbscan(&[], &DbscanParams::new(1.0, 3).unwrap()).is_empty());
    }

    #[test]
    fn two_blobs_and_noise() {
        let mut points = blob(0.0, 0.0, 30, 1.0);
        points.extend(blob(50.0, 50.0, 30, 1.0));
        points.push(Point::new(25.0, 25.0, 0.0)); // lone outlier
        let labels = dbscan(&points, &DbscanParams::new(1.0, 4).unwrap());
        let c0 = labels[0].cluster().expect("blob 1 clustered");
        let c1 = labels[30].cluster().expect("blob 2 clustered");
        assert_ne!(c0, c1);
        assert!(labels[..30].iter().all(|l| *l == Label::Cluster(c0)));
        assert!(labels[30..60].iter().all(|l| *l == Label::Cluster(c1)));
        assert!(labels[60].is_noise());
    }

    #[test]
    fn chain_connectivity_respects_eps() {
        // A chain with 0.9 spacing is one cluster at eps=1, but
        // splits when a 1.5 gap interrupts it.
        let mut points: Vec<Point> = (0..10)
            .map(|i| Point::new(i as f64 * 0.9, 0.0, 0.0))
            .collect();
        points.extend((0..10).map(|i| Point::new(9.0 * 0.9 + 1.5 + i as f64 * 0.9, 0.0, 0.0)));
        let labels = dbscan(&points, &DbscanParams::new(1.0, 2).unwrap());
        let first = labels[0].cluster().unwrap();
        let second = labels[10].cluster().unwrap();
        assert_ne!(first, second);
        assert!(labels[..10].iter().all(|l| l.cluster() == Some(first)));
        assert!(labels[10..].iter().all(|l| l.cluster() == Some(second)));
    }

    #[test]
    fn min_pts_one_makes_everything_core() {
        let points = vec![Point::new(0.0, 0.0, 0.0), Point::new(100.0, 0.0, 0.0)];
        let labels = dbscan(&points, &DbscanParams::new(1.0, 1).unwrap());
        assert!(labels.iter().all(|l| !l.is_noise()));
        assert_ne!(labels[0], labels[1]);
    }

    #[test]
    fn clusters_span_the_z_axis() {
        // Same (x, y) across 5 consecutive layers 0.04 apart: one 3-D
        // cluster when eps covers the layer pitch.
        let points: Vec<Point> = (0..5)
            .map(|l| Point::new(1.0, 1.0, l as f64 * 0.04))
            .collect();
        let labels = dbscan(&points, &DbscanParams::new(0.05, 2).unwrap());
        assert!(labels.iter().all(|l| *l == Label::Cluster(0)));
    }

    #[test]
    fn cluster_ids_are_dense() {
        let mut points = blob(0.0, 0.0, 20, 0.5);
        points.extend(blob(10.0, 0.0, 20, 0.5));
        points.extend(blob(20.0, 0.0, 20, 0.5));
        let labels = dbscan(&points, &DbscanParams::new(1.0, 3).unwrap());
        let mut ids: Vec<u32> = labels.iter().filter_map(Label::cluster).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
