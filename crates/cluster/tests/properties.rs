//! Property-based tests of the clustering invariants.
//!
//! DBSCAN's labels are fixed once the seed order is: a border point
//! joins the cluster of the earliest seed that reaches it, and cluster
//! ids follow seed order, whatever order each neighborhood is found
//! in. So the grid-accelerated implementation must return exactly the
//! textbook oracle's labels, on arbitrary clouds and on windows shaped
//! like the ones `correlateEvents` clusters.

use std::collections::HashMap;

use proptest::prelude::*;
use strata_cluster::naive::dbscan_naive;
use strata_cluster::{dbscan, DbscanParams, Label, Point};

fn cloud_strategy() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(
        (0.0f64..50.0, 0.0f64..50.0, 0.0f64..2.0).prop_map(|(x, y, z)| Point::new(x, y, z)),
        0..250,
    )
}

/// The layer pitch of the use-case's windows, in mm.
const PITCH: f64 = 0.04;

/// One entry of a layered window: column-ish `(i, j)` position in
/// half-ε steps, layer, shape and a fraction for jitter.
type Placement = (i32, i32, u32, u8, f64);

/// Up to 250 placements over 41 layers (a window of depth L = 40)
/// around the origin, so coordinates go negative.
fn layered_strategy() -> impl Strategy<Value = Vec<Placement>> {
    proptest::collection::vec(
        (-12i32..12, -12i32..12, 0u32..41, 0u8..5, 0.0f64..1.0),
        0..250,
    )
}

/// The points of a layered window at radius `eps`. Shapes: 0 a free
/// point; 1 a point on a column edge (`x` a multiple of ε); 2 and 3
/// pairs exactly ε apart along `x` (both on column edges) and along
/// `y`; 4 the same `(x, y)` on two adjacent layers. With ε a multiple
/// of 1/64 every edge and offset is exact in binary.
fn layered_window(eps: f64, placements: &[Placement]) -> Vec<Point> {
    let mut points = Vec::new();
    for &(i, j, layer, shape, f) in placements {
        let (i, j, z) = (f64::from(i), f64::from(j), f64::from(layer) * PITCH);
        let (x, y) = ((i + f) * eps / 2.0, (j + f) * eps / 2.0);
        match shape {
            0 => points.push(Point::new(x, y, z)),
            1 => points.push(Point::new(i * eps, y, z)),
            2 => {
                points.push(Point::new(i * eps, y, z));
                points.push(Point::new((i + 1.0) * eps, y, z));
            }
            3 => {
                let y = j * eps / 2.0;
                points.push(Point::new(x, y, z));
                points.push(Point::new(x, y + eps, z));
            }
            _ => {
                points.push(Point::new(x, y, z));
                points.push(Point::new(x, y, z + PITCH));
            }
        }
    }
    points
}

/// Indexes of core points, brute force.
fn core_points(points: &[Point], params: &DbscanParams) -> Vec<usize> {
    let eps_sq = params.eps() * params.eps();
    (0..points.len())
        .filter(|&i| {
            points
                .iter()
                .filter(|q| q.distance_sq(&points[i]) <= eps_sq)
                .count()
                >= params.min_pts()
        })
        .collect()
}

/// The cluster partition restricted to `subset`, canonicalized to
/// first-seen ids.
fn canonical_partition(labels: &[Label], subset: &[usize]) -> Vec<i64> {
    let mut mapping: HashMap<u32, i64> = HashMap::new();
    subset
        .iter()
        .map(|&i| match labels[i] {
            Label::Noise => -1,
            Label::Cluster(id) => {
                let next = mapping.len() as i64;
                *mapping.entry(id).or_insert(next)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Grid DBSCAN returns exactly the O(n²) oracle's labels: the same
    /// noise, the same cluster ids and the same border assignment.
    #[test]
    fn grid_matches_oracle(points in cloud_strategy(), eps in 0.2f64..3.0, min_pts in 1usize..6) {
        let params = DbscanParams::new(eps, min_pts).unwrap();
        prop_assert_eq!(dbscan(&points, &params), dbscan_naive(&points, &params));
    }

    /// The same on deep, layered windows with ε from 3/64 mm (just
    /// over the layer pitch) to about 1.2 mm.
    #[test]
    fn grid_matches_oracle_on_layered_windows(
        placements in layered_strategy(),
        eps_64ths in 3u32..80,
        min_pts in 1usize..6,
    ) {
        let eps = f64::from(eps_64ths) / 64.0;
        let points = layered_window(eps, &placements);
        let params = DbscanParams::new(eps, min_pts).unwrap();
        prop_assert_eq!(dbscan(&points, &params), dbscan_naive(&points, &params));
    }

    /// Core points are never labeled noise; with min_pts = 1 nothing
    /// is noise.
    #[test]
    fn core_points_are_clustered(points in cloud_strategy(), eps in 0.2f64..3.0) {
        let params = DbscanParams::new(eps, 3).unwrap();
        let labels = dbscan(&points, &params);
        for &i in &core_points(&points, &params) {
            prop_assert!(!labels[i].is_noise(), "core point {} marked noise", i);
        }
        let all_core = DbscanParams::new(eps, 1).unwrap();
        prop_assert!(dbscan(&points, &all_core).iter().all(|l| !l.is_noise()));
    }

    /// Two core points within ε of each other always share a cluster.
    #[test]
    fn density_connectivity_is_transitive(points in cloud_strategy(), eps in 0.5f64..3.0) {
        let params = DbscanParams::new(eps, 4).unwrap();
        let labels = dbscan(&points, &params);
        let cores = core_points(&points, &params);
        let eps_sq = eps * eps;
        for (a_pos, &a) in cores.iter().enumerate() {
            for &b in &cores[a_pos + 1..] {
                if points[a].distance_sq(&points[b]) <= eps_sq {
                    prop_assert_eq!(
                        labels[a].cluster(),
                        labels[b].cluster(),
                        "ε-close core points {} and {} split",
                        a,
                        b
                    );
                }
            }
        }
    }

    /// Rigid translation of the whole cloud never changes the
    /// clustering structure.
    #[test]
    fn translation_invariance(
        points in cloud_strategy(),
        dx in -100.0f64..100.0,
        dy in -100.0f64..100.0,
    ) {
        let params = DbscanParams::new(1.0, 3).unwrap();
        let base = dbscan(&points, &params);
        let moved: Vec<Point> = points
            .iter()
            .map(|p| Point::new(p.x + dx, p.y + dy, p.z))
            .collect();
        let shifted = dbscan(&moved, &params);
        // Same noise set; same partition over all points (border
        // assignment is order-dependent but the visit order is the
        // input order, which translation preserves).
        let all: Vec<usize> = (0..points.len()).collect();
        prop_assert_eq!(
            canonical_partition(&base, &all),
            canonical_partition(&shifted, &all)
        );
    }
}
