//! Property-based tests for the clustering substrate: structural invariants
//! that must hold for any input, not just the curated fixtures.

use mosaic_clustering::dbscan::Dbscan;
use mosaic_clustering::kmeans::KMeans;
use mosaic_clustering::metrics::{inertia, rand_index};
use mosaic_clustering::point::{dist, dist2};
use mosaic_clustering::scale::{scale_uniform, ScaleKind};
use mosaic_clustering::{Clustering, Kernel, MeanShift};
use proptest::prelude::*;
use rand::SeedableRng;

fn arb_points() -> impl Strategy<Value = Vec<[f64; 2]>> {
    prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 0..80)
        .prop_map(|v| v.into_iter().map(|(a, b)| [a, b]).collect())
}

/// The executable spec of [`MeanShift::fit`]: plain mode seeking in which
/// every step scans all points. `fit` must match it bit for bit.
fn reference_fit<const D: usize>(ms: &MeanShift, points: &[[f64; D]]) -> Clustering<D> {
    if points.is_empty() {
        return Clustering { labels: Vec::new(), centers: Vec::new() };
    }
    let eps = ms.tol * ms.bandwidth;
    let mut converged: Vec<[f64; D]> = Vec::with_capacity(points.len());
    for start in points {
        let mut pos = *start;
        for _ in 0..ms.max_iter {
            let Some(next) = reference_step(ms, &pos, points) else { break };
            let moved = dist(&next, &pos);
            pos = next;
            if moved < eps {
                break;
            }
        }
        converged.push(pos);
    }
    let merge2 = (ms.merge_frac * ms.bandwidth).powi(2);
    let mut centers: Vec<[f64; D]> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    let mut labels = Vec::with_capacity(points.len());
    for mode in &converged {
        match centers.iter().position(|c| dist2(mode, c) <= merge2) {
            Some(i) => {
                let n = counts[i] as f64;
                for d in 0..D {
                    centers[i][d] = (centers[i][d] * n + mode[d]) / (n + 1.0);
                }
                counts[i] += 1;
                labels.push(i);
            }
            None => {
                centers.push(*mode);
                counts.push(1);
                labels.push(centers.len() - 1);
            }
        }
    }
    Clustering { labels, centers }
}

/// One full-scan step: the kernel-weighted mean of the points in range.
fn reference_step<const D: usize>(
    ms: &MeanShift,
    pos: &[f64; D],
    points: &[[f64; D]],
) -> Option<[f64; D]> {
    let h2 = ms.bandwidth * ms.bandwidth;
    let range2 = match ms.kernel {
        Kernel::Flat => h2,
        Kernel::Gaussian => 9.0 * h2,
    };
    let mut num = [0.0; D];
    let mut den = 0.0;
    for p in points {
        let d2 = dist2(pos, p);
        if d2 > range2 {
            continue;
        }
        let w = match ms.kernel {
            Kernel::Flat => 1.0,
            Kernel::Gaussian => (-d2 / (2.0 * h2)).exp(),
        };
        for i in 0..D {
            num[i] += w * p[i];
        }
        den += w;
    }
    if den == 0.0 {
        return None;
    }
    for v in num.iter_mut() {
        *v /= den;
    }
    Some(num)
}

/// Labels plus the bit pattern of every center coordinate, so `NaN`s and
/// signed zeros compare exactly.
fn fit_bits<const D: usize>(c: &Clustering<D>) -> (Vec<usize>, Vec<[u64; D]>) {
    (c.labels.clone(), c.centers.iter().map(|p| p.map(f64::to_bits)).collect())
}

/// One or more blobs, each small enough to sit inside one ball of radius
/// `h` from any of its points.
fn tight_blobs() -> impl Strategy<Value = (f64, Vec<[f64; 2]>)> {
    (
        1.0f64..10.0,
        prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 1..4),
        prop::collection::vec((any::<prop::sample::Index>(), 0.0f64..1.0, 0.0f64..1.0), 0..80),
    )
        .prop_map(|(h, centers, offsets)| {
            let pts = offsets
                .into_iter()
                .map(|(c, dx, dy)| {
                    let (x, y) = centers[c.index(centers.len())];
                    [x + 0.6 * h * dx, y + 0.6 * h * dy]
                })
                .collect();
            (h, pts)
        })
}

/// Checkpoint-shaped features: one volume for every point, durations
/// spread over 0.5–2.5 bandwidths.
fn checkpoint_shaped() -> impl Strategy<Value = (f64, Vec<[f64; 2]>)> {
    (0.05f64..2.0, 0.5f64..2.5, 0.0f64..10.0, prop::collection::vec(0.0f64..1.0, 0..120)).prop_map(
        |(h, spread, volume, us)| {
            (h, us.into_iter().map(|u| [1.0 + spread * h * u, volume]).collect())
        },
    )
}

/// A few distinct points, each repeated many times in shuffled order.
fn duplicates() -> impl Strategy<Value = Vec<[f64; 2]>> {
    (
        prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..6),
        prop::collection::vec(any::<prop::sample::Index>(), 0..80),
    )
        .prop_map(|(base, picks)| {
            picks
                .into_iter()
                .map(|i| {
                    let (x, y) = base[i.index(base.len())];
                    [x, y]
                })
                .collect()
        })
}

/// Arbitrary points with a few coordinates replaced by `NaN` or `±inf`.
fn non_finite_points() -> impl Strategy<Value = Vec<[f64; 2]>> {
    (arb_points(), prop::collection::vec((any::<prop::sample::Index>(), 0usize..6), 1..4)).prop_map(
        |(mut points, holes)| {
            if !points.is_empty() {
                for (i, kind) in holes {
                    let at = i.index(points.len());
                    let value = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind % 3];
                    points[at][kind / 3] = value;
                }
            }
            points
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn meanshift_fit_matches_reference_on_arbitrary_points(
        points in arb_points(),
        h in 0.5f64..300.0,
    ) {
        let ms = MeanShift::new(h);
        prop_assert_eq!(fit_bits(&ms.fit(&points)), fit_bits(&reference_fit(&ms, &points)));
    }

    #[test]
    fn meanshift_fit_matches_reference_on_tight_blobs(case in tight_blobs()) {
        let (h, points) = case;
        let ms = MeanShift::new(h);
        prop_assert_eq!(fit_bits(&ms.fit(&points)), fit_bits(&reference_fit(&ms, &points)));
    }

    #[test]
    fn meanshift_fit_matches_reference_on_checkpoint_shapes(case in checkpoint_shaped()) {
        let (h, points) = case;
        let ms = MeanShift::new(h);
        prop_assert_eq!(fit_bits(&ms.fit(&points)), fit_bits(&reference_fit(&ms, &points)));
    }

    #[test]
    fn meanshift_fit_matches_reference_on_duplicates(
        points in duplicates(),
        h in 0.1f64..20.0,
    ) {
        let ms = MeanShift::new(h);
        prop_assert_eq!(fit_bits(&ms.fit(&points)), fit_bits(&reference_fit(&ms, &points)));
    }

    #[test]
    fn meanshift_fit_matches_reference_with_gaussian_kernel(
        points in arb_points(),
        shaped in checkpoint_shaped(),
        h in 0.5f64..100.0,
    ) {
        let ms = MeanShift::new(h).kernel(Kernel::Gaussian);
        prop_assert_eq!(fit_bits(&ms.fit(&points)), fit_bits(&reference_fit(&ms, &points)));
        let (h, points) = shaped;
        let ms = MeanShift::new(h).kernel(Kernel::Gaussian);
        prop_assert_eq!(fit_bits(&ms.fit(&points)), fit_bits(&reference_fit(&ms, &points)));
    }

    #[test]
    fn meanshift_fit_matches_reference_on_non_finite_points(
        points in non_finite_points(),
        h in 0.5f64..300.0,
    ) {
        for kernel in [Kernel::Flat, Kernel::Gaussian] {
            let ms = MeanShift::new(h).kernel(kernel);
            prop_assert_eq!(fit_bits(&ms.fit(&points)), fit_bits(&reference_fit(&ms, &points)));
        }
    }

    #[test]
    fn meanshift_labels_are_valid_and_total(points in arb_points()) {
        let c = MeanShift::new(5.0).fit(&points);
        prop_assert_eq!(c.labels.len(), points.len());
        for &l in &c.labels {
            prop_assert!(l < c.centers.len());
        }
        // Every cluster has at least one member.
        let sizes = c.cluster_sizes();
        prop_assert!(sizes.iter().all(|&s| s >= 1));
        prop_assert_eq!(sizes.iter().sum::<usize>(), points.len());
    }

    #[test]
    fn meanshift_centers_are_finite(points in arb_points()) {
        let c = MeanShift::new(2.0).fit(&points);
        for center in &c.centers {
            prop_assert!(center.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn meanshift_is_deterministic(points in arb_points()) {
        let ms = MeanShift::new(3.0);
        prop_assert_eq!(ms.fit(&points), ms.fit(&points));
    }

    #[test]
    fn kmeans_partitions_everything(points in arb_points(), k in 1usize..6) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let c = KMeans::new(k).fit(&points, &mut rng);
        prop_assert_eq!(c.labels.len(), points.len());
        if !points.is_empty() {
            prop_assert!(c.n_clusters() <= k.min(points.len()));
            for &l in &c.labels {
                prop_assert!(l < c.centers.len());
            }
        }
    }

    #[test]
    fn kmeans_inertia_never_worse_than_single_cluster(points in arb_points()) {
        prop_assume!(points.len() >= 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let k1 = KMeans::new(1).fit(&points, &mut rng);
        let k3 = KMeans::new(3).fit(&points, &mut rng);
        // More clusters can only reduce (or match) within-cluster scatter,
        // modulo Lloyd's local optima — allow small slack.
        prop_assert!(inertia(&points, &k3) <= inertia(&points, &k1) * 1.0001 + 1e-9);
    }

    #[test]
    fn dbscan_noise_label_is_consistent(points in arb_points()) {
        let c = Dbscan::new(1.5, 3).fit(&points);
        prop_assert_eq!(c.labels.len(), points.len());
        for &l in &c.labels {
            prop_assert!(l == Clustering::<2>::NOISE || l < c.centers.len());
        }
    }

    #[test]
    fn rand_index_is_symmetric_and_reflexive(points in arb_points()) {
        prop_assume!(points.len() >= 2);
        let a = MeanShift::new(3.0).fit(&points).labels;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let b = KMeans::new(2).fit(&points, &mut rng).labels;
        prop_assert_eq!(rand_index(&a, &b), rand_index(&b, &a));
        prop_assert_eq!(rand_index(&a, &a), 1.0);
    }

    #[test]
    fn scaling_preserves_point_count_and_finiteness(points in arb_points()) {
        for kind in [ScaleKind::Log, ScaleKind::MinMax, ScaleKind::ZScore, ScaleKind::Identity] {
            let out = scale_uniform(&points, kind);
            prop_assert_eq!(out.len(), points.len());
            for p in &out {
                prop_assert!(p.iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn minmax_output_is_in_unit_box(points in arb_points()) {
        let out = scale_uniform(&points, ScaleKind::MinMax);
        for p in &out {
            prop_assert!(p.iter().all(|&v| (-1e-9..=1.0 + 1e-9).contains(&v)));
        }
    }

    #[test]
    fn meanshift_respects_bandwidth_separation(gap in 20.0f64..100.0) {
        // Two blobs farther apart than 3x the bandwidth must never merge.
        let mut points = Vec::new();
        for i in 0..8 {
            let o = i as f64 * 0.1;
            points.push([o, o]);
            points.push([gap + o, gap - o]);
        }
        let c = MeanShift::new(3.0).fit(&points);
        prop_assert!(c.n_clusters() >= 2, "gap {gap} merged into {}", c.n_clusters());
    }
}
