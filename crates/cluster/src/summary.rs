//! Cluster summaries: what `correlateEvents` reports to the expert.

use crate::point::Point;

/// Aggregate description of one cluster: size, extent, and the layer
/// span it covers — the paper's use-case reports clusters "bigger
/// than a certain volume" together with an image for inspection.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// Cluster identity: a DBSCAN label, or the id a
    /// [`ClusterTracker`](crate::tracker::ClusterTracker) carried over.
    pub id: u64,
    /// Number of member points.
    pub size: usize,
    /// Mean of the member points.
    pub centroid: Point,
    /// Axis-aligned bounding box, minimum corner.
    pub min: Point,
    /// Axis-aligned bounding box, maximum corner.
    pub max: Point,
}

impl ClusterSummary {
    /// Summarizes a non-empty set of member points under identity
    /// `id`, summing the members in the order given.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty; clusters are non-empty by
    /// construction.
    pub fn from_members(id: u64, members: impl IntoIterator<Item = Point>) -> Self {
        let mut members = members.into_iter().peekable();
        let first = *members.peek().expect("a cluster has at least one member");
        let (mut min, mut max) = (first, first);
        let mut sum = (0.0f64, 0.0f64, 0.0f64);
        let mut size = 0usize;
        for p in members {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            min.z = min.z.min(p.z);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
            max.z = max.z.max(p.z);
            sum.0 += p.x;
            sum.1 += p.y;
            sum.2 += p.z;
            size += 1;
        }
        let n = size as f64;
        ClusterSummary {
            id,
            size,
            centroid: Point::new(sum.0 / n, sum.1 / n, sum.2 / n),
            min,
            max,
        }
    }

    /// Whether the bounding boxes of `self` and `other` intersect
    /// (inclusive), used to carry identities across window slides.
    pub fn bbox_overlaps(&self, other: &ClusterSummary) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
            && self.min.z <= other.max.z
            && other.min.z <= self.max.z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarizes_members() {
        let members = [
            Point::new(0.0, 0.0, 0.0),
            Point::new(2.0, 2.0, 2.0),
            Point::new(1.0, 1.0, 1.0),
        ];
        let s = ClusterSummary::from_members(9, members);
        assert_eq!(s.id, 9);
        assert_eq!(s.size, 3);
        assert_eq!(s.centroid, Point::new(1.0, 1.0, 1.0));
        assert_eq!(s.min, Point::new(0.0, 0.0, 0.0));
        assert_eq!(s.max, Point::new(2.0, 2.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_clusters_are_rejected() {
        let _ = ClusterSummary::from_members(0, []);
    }

    #[test]
    fn overlap_detection() {
        let a =
            ClusterSummary::from_members(0, [Point::new(0.0, 0.0, 0.0), Point::new(2.0, 2.0, 2.0)]);
        let b =
            ClusterSummary::from_members(1, [Point::new(1.0, 1.0, 1.0), Point::new(3.0, 3.0, 3.0)]);
        let c =
            ClusterSummary::from_members(2, [Point::new(5.0, 5.0, 5.0), Point::new(6.0, 6.0, 6.0)]);
        assert!(a.bbox_overlaps(&b));
        assert!(b.bbox_overlaps(&a));
        assert!(!a.bbox_overlaps(&c));
    }
}
