//! Criterion: Mean Shift clustering cost vs segment count, plus the
//! k-means/DBSCAN alternatives for context, and checkpoint-shaped inputs
//! where most flat-kernel neighbourhoods cover the whole set.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mosaic_clustering::dbscan::Dbscan;
use mosaic_clustering::kmeans::KMeans;
use mosaic_clustering::{Kernel, MeanShift};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn points(n: usize) -> Vec<[f64; 2]> {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    (0..n)
        .map(|i| {
            let cluster = (i % 3) as f64;
            [cluster * 2.0 + rng.gen_range(-0.05..0.05), cluster * 3.0 + rng.gen_range(-0.05..0.05)]
        })
        .collect()
}

/// Checkpoint-shaped features: every step writes the same volume, and the
/// op durations spread over about twice the bandwidth `h`.
fn checkpoint_points(n: usize, h: f64) -> Vec<[f64; 2]> {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    (0..n).map(|_| [1.0 + rng.gen_range(0.0..2.0 * h), 8.5]).collect()
}

fn bench_clustering(c: &mut Criterion) {
    let mut group = c.benchmark_group("clustering");
    for n in [32usize, 128, 512, 2048] {
        let pts = points(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("meanshift_flat", n), &pts, |b, pts| {
            b.iter(|| MeanShift::new(0.15).fit(black_box(pts)))
        });
        group.bench_with_input(BenchmarkId::new("meanshift_gaussian", n), &pts, |b, pts| {
            b.iter(|| MeanShift::new(0.15).kernel(Kernel::Gaussian).fit(black_box(pts)))
        });
        group.bench_with_input(BenchmarkId::new("kmeans_k3", n), &pts, |b, pts| {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            b.iter(|| KMeans::new(3).fit(black_box(pts), &mut rng))
        });
        group.bench_with_input(BenchmarkId::new("dbscan", n), &pts, |b, pts| {
            b.iter(|| Dbscan::new(0.15, 2).fit(black_box(pts)))
        });
    }
    for n in [256usize, 512] {
        let pts = checkpoint_points(n, 0.15);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("meanshift_checkpoint_flat", n), &pts, |b, pts| {
            b.iter(|| MeanShift::new(0.15).fit(black_box(pts)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_clustering);
criterion_main!(benches);
