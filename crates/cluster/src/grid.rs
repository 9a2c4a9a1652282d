//! A column-sorted grid index for ε-neighborhood queries.
//!
//! The plane is cut into square columns of edge ε along `x` and `y`;
//! `z` is not binned. All neighbors of a point lie in its own column
//! or the 8 around it, so a query scans those 9 columns instead of all
//! n points — the standard grid acceleration for DBSCAN on spatial
//! data (cf. the grid/partitioning ideas in Lisco and IP.LSH.DBSCAN
//! cited by the paper).
//!
//! Leaving `z` whole fits the windows `correlateEvents` clusters: at
//! the use-case's ε of 0.8 mm and 0.04 mm layer pitch the ε-ball spans
//! ±20 layers, so a column's whole depth is a candidate anyway.
//!
//! The build sorts a copy of the points by column, `x` first. Then
//! the three columns `(cx + dx, cy − 1 ..= cy + 1)` are adjacent in
//! that order and form one slice, so each occupied column's 9
//! neighbors are 3 slices, found once per column at build time. A
//! query looks up nothing: it scans its column's 3 slices, one
//! distance per candidate.

use std::collections::HashMap;

use crate::point::Point;

/// Integer column coordinates in the `x`/`y` plane.
type Column = (i64, i64);

/// A slice `start..end` of [`GridIndex::sorted`].
type Span = (u32, u32);

/// A column grid over a point set, with column edge equal to the query
/// radius.
#[derive(Debug)]
pub struct GridIndex<'a> {
    points: &'a [Point],
    /// The points, sorted by column.
    sorted: Vec<Point>,
    /// `sorted[k]`'s index into `points`.
    ids: Vec<u32>,
    /// The column of each of `points`, as an index into `neighborhoods`.
    column: Vec<u32>,
    /// For each occupied column, the spans of `sorted` that hold it and
    /// its 8 neighbors.
    neighborhoods: Vec<[Span; 3]>,
    eps_sq: f64,
}

impl<'a> GridIndex<'a> {
    /// Builds the index for `points` with query radius `eps`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `eps > 0`; the public constructors in
    /// [`dbscan()`](crate::dbscan()) validate it.
    pub fn build(points: &'a [Point], eps: f64) -> Self {
        debug_assert!(eps > 0.0);
        let column_of =
            |p: &Point| -> Column { ((p.x / eps).floor() as i64, (p.y / eps).floor() as i64) };
        let mut keyed: Vec<(Column, u32)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (column_of(p), i as u32))
            .collect();
        keyed.sort_unstable();

        let mut runs: HashMap<Column, Span> = HashMap::new();
        for (k, &(c, _)) in keyed.iter().enumerate() {
            runs.entry(c).or_insert((k as u32, k as u32)).1 = k as u32 + 1;
        }
        let mut column = vec![0u32; points.len()];
        let mut neighborhoods = Vec::with_capacity(runs.len());
        for (k, &(c, i)) in keyed.iter().enumerate() {
            if k == 0 || keyed[k - 1].0 != c {
                neighborhoods.push([-1, 0, 1].map(|dx| {
                    // The occupied rows of column `cx + dx`, in sorted
                    // order: one slice from the first to the last.
                    let mut rows = (-1..=1).filter_map(|dy| runs.get(&(c.0 + dx, c.1 + dy)));
                    let first = rows.next().copied().unwrap_or((0, 0));
                    (first.0, rows.next_back().map_or(first.1, |&(_, end)| end))
                }));
            }
            column[i as usize] = neighborhoods.len() as u32 - 1;
        }

        GridIndex {
            points,
            sorted: keyed.iter().map(|&(_, i)| points[i as usize]).collect(),
            ids: keyed.into_iter().map(|(_, i)| i).collect(),
            column,
            neighborhoods,
            eps_sq: eps * eps,
        }
    }

    /// Replaces the contents of `out` with the indexes of all points
    /// within `eps` of `points[query]`, including `query` itself
    /// (DBSCAN counts the point toward its own neighborhood). The order
    /// is unspecified. Reusing one buffer across queries saves an
    /// allocation per query.
    pub fn neighbors_into(&self, query: usize, out: &mut Vec<u32>) {
        out.clear();
        let p = self.points[query];
        for &(start, end) in &self.neighborhoods[self.column[query] as usize] {
            let (start, end) = (start as usize, end as usize);
            // Write every candidate, advance only on a hit: no branch
            // to mispredict in the loop.
            let base = out.len();
            out.resize(base + end - start, 0);
            let slots = &mut out[base..];
            let mut hits = 0;
            for (q, &id) in self.sorted[start..end].iter().zip(&self.ids[start..end]) {
                slots[hits] = id;
                hits += usize::from(q.distance_sq(&p) <= self.eps_sq);
            }
            out.truncate(base + hits);
        }
    }

    /// [`neighbors_into`](Self::neighbors_into) into a fresh `Vec`.
    pub fn neighbors_of(&self, query: usize) -> Vec<u32> {
        let mut out = Vec::new();
        self.neighbors_into(query, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_all_and_only_in_range_neighbors() {
        let points = vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(0.9, 0.0, 0.0),  // in range of 0 (d=0.9)
            Point::new(1.5, 0.0, 0.0),  // out of range of 0, in range of 1
            Point::new(10.0, 0.0, 0.0), // isolated
            Point::new(0.0, 0.0, 5.0),  // same column as 0, out of range in z
        ];
        let grid = GridIndex::build(&points, 1.0);
        let mut n0 = grid.neighbors_of(0);
        n0.sort_unstable();
        assert_eq!(n0, vec![0, 1]);
        let mut n1 = grid.neighbors_of(1);
        n1.sort_unstable();
        assert_eq!(n1, vec![0, 1, 2]);
        assert_eq!(grid.neighbors_of(3), vec![3]);
        assert_eq!(grid.neighbors_of(4), vec![4]);
    }

    #[test]
    fn negative_coordinates_are_handled() {
        let points = vec![Point::new(-0.1, -0.1, 0.0), Point::new(0.1, 0.1, 0.0)];
        let grid = GridIndex::build(&points, 1.0);
        assert_eq!(grid.neighbors_of(0).len(), 2, "straddles cell boundary");
    }

    #[test]
    fn matches_brute_force_on_random_points() {
        // Deterministic LCG so the test needs no rng dependency here.
        let mut seed = 0x2545F491_4F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 1000) as f64 / 100.0
        };
        let points: Vec<Point> = (0..300)
            .map(|_| Point::new(next() - 5.0, next() - 5.0, next()))
            .collect();
        let eps = 0.8;
        let grid = GridIndex::build(&points, eps);
        // One buffer for every query, never emptied by the caller: each
        // query must replace what the previous one left.
        let mut reused = vec![u32::MAX; 7];
        for i in 0..points.len() {
            let mut expected: Vec<u32> = points
                .iter()
                .enumerate()
                .filter(|(_, q)| q.distance_sq(&points[i]) <= eps * eps)
                .map(|(j, _)| j as u32)
                .collect();
            expected.sort_unstable();
            let mut got = grid.neighbors_of(i);
            got.sort_unstable();
            assert_eq!(got, expected, "point {i}");
            grid.neighbors_into(i, &mut reused);
            reused.sort_unstable();
            assert_eq!(reused, expected, "point {i}, reused buffer");
        }
    }
}
