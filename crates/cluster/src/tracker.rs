//! Cluster identities across correlation windows: a defect that keeps
//! growing layer after layer keeps its id, so the expert can watch it
//! evolve instead of re-identifying clusters per window.

use crate::summary::ClusterSummary;

/// Carries cluster identities from one window's clusters to the
/// next.
///
/// The tracker clusters nothing and keeps no window: it is handed the
/// clusters of each window and remembers only the last ones. Each
/// cluster inherits the id of the first previous cluster, in id
/// order, that no earlier cluster of the same call has taken and
/// whose bounding box overlaps its own; otherwise it gets a fresh id.
#[derive(Debug, Default)]
pub struct ClusterTracker {
    /// The previous window's clusters under their tracked ids, in id
    /// order.
    previous: Vec<ClusterSummary>,
    next_id: u64,
}

impl ClusterTracker {
    /// Returns the tracked id of each of `clusters`, in the order
    /// given, and remembers them for the next call.
    pub fn track(&mut self, mut clusters: Vec<ClusterSummary>) -> Vec<u64> {
        let mut taken = vec![false; self.previous.len()];
        for cluster in &mut clusters {
            let inherited = self
                .previous
                .iter()
                .zip(&mut taken)
                .find(|(prev, taken)| !**taken && prev.bbox_overlaps(cluster));
            cluster.id = match inherited {
                Some((prev, taken)) => {
                    *taken = true;
                    prev.id
                }
                None => {
                    self.next_id += 1;
                    self.next_id - 1
                }
            };
        }
        let ids = clusters.iter().map(|c| c.id).collect();
        clusters.sort_by_key(|c| c.id);
        self.previous = clusters;
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    /// A dense 3×3 patch around (cx, cy), 0.1 apart, on layers
    /// `0..layers` at a 0.04 pitch.
    fn patch(cx: f64, cy: f64, layers: u32) -> ClusterSummary {
        let points = (0..layers).flat_map(|l| {
            (0..9).map(move |k| {
                Point::new(
                    cx + (k / 3) as f64 * 0.1,
                    cy + (k % 3) as f64 * 0.1,
                    l as f64 * 0.04,
                )
            })
        });
        ClusterSummary::from_members(u64::MAX, points)
    }

    #[test]
    fn cluster_keeps_identity_across_layers() {
        let mut tracker = ClusterTracker::default();
        let id = tracker.track(vec![patch(1.0, 1.0, 1)]);
        for layers in 2..6 {
            assert_eq!(tracker.track(vec![patch(1.0, 1.0, layers)]), id);
        }
    }

    #[test]
    fn disjoint_defects_get_distinct_ids() {
        let mut tracker = ClusterTracker::default();
        let ids = tracker.track(vec![patch(1.0, 1.0, 1), patch(50.0, 50.0, 1)]);
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn new_defect_gets_a_fresh_id_while_old_one_persists() {
        let mut tracker = ClusterTracker::default();
        let old = tracker.track(vec![patch(1.0, 1.0, 1)])[0];
        let ids = tracker.track(vec![patch(50.0, 50.0, 2), patch(1.0, 1.0, 2)]);
        assert_eq!(ids[1], old);
        assert_ne!(ids[0], old);
        // Fresh ids are never reused.
        let again = tracker.track(vec![patch(90.0, 90.0, 1)]);
        assert!(!ids.contains(&again[0]));
    }
}
