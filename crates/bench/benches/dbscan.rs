//! Criterion micro-benchmarks of the clustering substrate: the
//! grid-accelerated vs naive DBSCAN ablation, DBSCAN on a window shaped
//! like `correlateEvents`' deep windows, and DBSCAN vs the k-means
//! baseline the paper's use-case replaces.
//!
//! ```text
//! cargo bench -p strata-bench --bench dbscan [-- <filter>]
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use strata_cluster::naive::dbscan_naive;
use strata_cluster::{dbscan, kmeans, DbscanParams, KmeansParams, Point};

/// Deterministic uniform draws from `[0, 100)` in steps of 0.001, by
/// an xorshift generator.
fn xorshift(mut seed: u64) -> impl FnMut() -> f64 {
    move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed % 100_000) as f64 / 1_000.0
    }
}

/// A defect-like point cloud: dense blobs on a sparse background.
fn defect_cloud(n: usize) -> Vec<Point> {
    let mut next = xorshift(0x1234_5678_9ABC_DEF0);
    let mut points = Vec::with_capacity(n);
    // 80% blob members around 10 centers, 20% background noise.
    let centers: Vec<(f64, f64)> = (0..10).map(|_| (next(), next())).collect();
    for i in 0..n {
        if i % 5 == 0 {
            points.push(Point::new(next(), next(), next() / 50.0));
        } else {
            let (cx, cy) = centers[i % centers.len()];
            points.push(Point::new(
                cx + (next() - 50.0) / 100.0,
                cy + (next() - 50.0) / 100.0,
                next() / 50.0,
            ));
        }
    }
    points
}

/// A correlation window like `deep_window_live`'s at L = 40: 41 layers
/// 0.04 mm apart. Each layer holds 20 defect blobs of 4 events on a
/// 0.25 mm cell lattice, drifting slowly from layer to layer, and 13
/// events scattered over a 20 mm plate: 3,813 points.
fn layered_window() -> Vec<Point> {
    const LAYERS: u32 = 41;
    const PITCH_MM: f64 = 0.04;
    const CELL_MM: f64 = 0.25;
    let mut next = xorshift(0x0DDB_A11C_E5EE_D5EE);
    let snap = |mm: f64| (mm / CELL_MM).round() * CELL_MM;
    let centers: Vec<(f64, f64)> = (0..20)
        .map(|_| (2.0 + next() * 0.16, 2.0 + next() * 0.16))
        .collect();
    let mut points = Vec::new();
    for layer in 0..LAYERS {
        let z = f64::from(layer) * PITCH_MM;
        let drift = f64::from(layer) * 0.01;
        for &(cx, cy) in &centers {
            for _ in 0..4 {
                let x = cx + drift + (next() - 50.0) / 100.0;
                let y = cy - drift + (next() - 50.0) / 100.0;
                points.push(Point::new(snap(x), snap(y), z));
            }
        }
        for _ in 0..13 {
            points.push(Point::new(snap(next() / 5.0), snap(next() / 5.0), z));
        }
    }
    points
}

fn bench_dbscan_grid_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("dbscan");
    let params = DbscanParams::new(0.8, 4).unwrap();
    for n in [1_000usize, 5_000] {
        let points = defect_cloud(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("grid", n), &points, |b, pts| {
            b.iter(|| dbscan(pts, &params).len())
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &points, |b, pts| {
            b.iter(|| dbscan_naive(pts, &params).len())
        });
    }
    let window = layered_window();
    let params = DbscanParams::new(0.8, 3).unwrap();
    group.throughput(Throughput::Elements(window.len() as u64));
    group.bench_function("layered_window", |b| {
        b.iter(|| dbscan(&window, &params).len())
    });
    group.finish();
}

fn bench_dbscan_vs_kmeans(c: &mut Criterion) {
    let mut group = c.benchmark_group("clustering_baseline");
    let points = defect_cloud(5_000);
    group.throughput(Throughput::Elements(points.len() as u64));
    let db = DbscanParams::new(0.8, 4).unwrap();
    group.bench_function("dbscan", |b| b.iter(|| dbscan(&points, &db).len()));
    let km = KmeansParams::new(10).unwrap().max_iterations(20);
    group.bench_function("kmeans_k10", |b| b.iter(|| kmeans(&points, &km).iterations));
    group.finish();
}

criterion_group!(benches, bench_dbscan_grid_vs_naive, bench_dbscan_vs_kmeans);
criterion_main!(benches);
