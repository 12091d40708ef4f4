//! Mean Shift clustering (Fukunaga & Hostetler 1975) — the algorithm MOSAIC
//! uses to group trace segments that "share comparable duration and data
//! size" (§III-B3a). Clusters of size > 1 indicate periodic operations.
//!
//! The implementation is the classic mode-seeking procedure: every point
//! ascends the kernel density estimate by repeatedly moving to the
//! kernel-weighted mean of its neighbourhood, and points whose ascents
//! converge to the same mode form one cluster. It is exact (no binning or
//! seeding heuristics) and deterministic. A plain step scans all `n`
//! points, so the worst case stays `O(n² · iterations)`; two shortcuts skip
//! scans whose result is already known, without changing a single bit of
//! the output:
//!
//! * **Covering ball (flat kernel).** One `O(n)` pre-pass per
//!   [`MeanShift::fit`] records the per-axis bounding box `[lo, hi]` and
//!   the flat mean of all points, summed in index order with exactly the
//!   operations a step uses. Before a step, the squared distance from the
//!   position to the farthest box corner is computed with [`dist2`]. If it
//!   is within `h²`, the step would include every point with weight 1.0 in
//!   index order, so its result *is* the cached mean. This is exact, not
//!   approximate, because IEEE rounding is monotone: for `lo ≤ p ≤ hi` on
//!   an axis, `fl(pos − p)` lies between `fl(pos − hi)` and `fl(pos − lo)`,
//!   so its square is at most the corner's square, and `fl(acc + s)` never
//!   decreases when `acc` or `s` grows. Hence the computed `dist2(pos, p)`
//!   is at most the computed corner distance for every point. The pre-pass
//!   runs only when every coordinate is finite; otherwise every step scans.
//! * **Step memo (both kernels).** A step is a pure function of its
//!   position, so within one `fit` its result is cached under the
//!   position's bit pattern. Ascents that land on an already-visited
//!   position (many do: every ascent that covers the whole set next steps
//!   from the same global mean) cost a lookup instead of a scan.
//!
//! Checkpoint traffic is where this pays: a trace writes the same volume
//! every step, so its features are effectively one-dimensional and most
//! neighbourhoods hold the whole set.

use crate::point::{dist, dist2, Clustering};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Kernel profile used to weight neighbourhood points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Kernel {
    /// Uniform weight inside the bandwidth, zero outside. This is the
    /// classic "flat" Mean Shift and the default; it makes "comparable
    /// duration and volume" a hard window, matching how the paper describes
    /// its empirically set thresholds.
    #[default]
    Flat,
    /// Gaussian weight `exp(-d²/2h²)`, truncated at `3h` for speed.
    Gaussian,
}

/// Mean Shift configuration. Build with [`MeanShift::new`], then chain
/// setters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeanShift {
    /// Kernel bandwidth `h` — the radius within which two segments count as
    /// "comparable".
    pub bandwidth: f64,
    /// Kernel profile.
    pub kernel: Kernel,
    /// Convergence threshold on the shift length, as a fraction of the
    /// bandwidth.
    pub tol: f64,
    /// Iteration cap per point (converges in a handful for real data).
    pub max_iter: usize,
    /// Two converged modes closer than `merge_frac · bandwidth` are fused.
    pub merge_frac: f64,
}

impl MeanShift {
    /// Mean Shift with the given bandwidth and default settings
    /// (flat kernel, `tol = 1e-3`, `max_iter = 300`, `merge_frac = 0.5`).
    pub fn new(bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        MeanShift { bandwidth, kernel: Kernel::Flat, tol: 1e-3, max_iter: 300, merge_frac: 0.5 }
    }

    /// Set the kernel profile.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Set the convergence tolerance (fraction of bandwidth).
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Set the iteration cap.
    pub fn max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Set the mode-merge radius (fraction of bandwidth).
    pub fn merge_frac(mut self, merge_frac: f64) -> Self {
        self.merge_frac = merge_frac;
        self
    }

    /// One mean-shift step from `pos`: the kernel-weighted mean of the
    /// points in range, or `None` if the neighbourhood is empty. The
    /// shortcuts in [`Seeker::step`] must return exactly this.
    fn step<const D: usize>(&self, pos: &[f64; D], points: &[[f64; D]]) -> Option<[f64; D]> {
        let h2 = self.bandwidth * self.bandwidth;
        // Gaussian support truncated at 3h: weights beyond are < e^-4.5.
        let range2 = match self.kernel {
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
            let w = match self.kernel {
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

    /// Run Mean Shift on `points`.
    ///
    /// Returns one label per point plus the converged mode of each cluster.
    /// Empty input yields an empty clustering. The result is bit-identical
    /// to plain mode seeking with a full scan per step; see the module docs
    /// for the scans it skips.
    pub fn fit<const D: usize>(&self, points: &[[f64; D]]) -> Clustering<D> {
        if points.is_empty() {
            return Clustering { labels: Vec::new(), centers: Vec::new() };
        }
        let eps = self.tol * self.bandwidth;

        // Mode-seek from every point.
        let mut seeker = Seeker::new(self, points);
        let mut converged: Vec<[f64; D]> = Vec::with_capacity(points.len());
        for start in points {
            let mut pos = *start;
            for _ in 0..self.max_iter {
                let Some(next) = seeker.step(&pos) else { break };
                let moved = dist(&next, &pos);
                pos = next;
                if moved < eps {
                    break;
                }
            }
            converged.push(pos);
        }

        // Fuse modes closer than merge_frac · h; first-come order keeps the
        // procedure deterministic.
        let merge2 = (self.merge_frac * self.bandwidth).powi(2);
        let mut centers: Vec<[f64; D]> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        let mut labels = Vec::with_capacity(points.len());
        for mode in &converged {
            let found =
                centers.iter().enumerate().find(|(_, c)| dist2(mode, c) <= merge2).map(|(i, _)| i);
            match found {
                Some(i) => {
                    // Running average keeps the fused mode centered.
                    // lint: allow(panic, "i comes from centers.iter().enumerate(); counts grows in lockstep with centers")
                    let n = counts[i] as f64;
                    for d in 0..D {
                        // lint: allow(panic, "i comes from centers.iter().enumerate(); d < D indexes [f64; D]")
                        centers[i][d] = (centers[i][d] * n + mode[d]) / (n + 1.0);
                    }
                    // lint: allow(panic, "i comes from centers.iter().enumerate(); counts grows in lockstep with centers")
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

    /// Estimate a bandwidth from the data: `factor` times the median
    /// nearest-neighbour distance. A robust default when the caller has no
    /// domain-derived scale. Returns `None` for fewer than 2 points.
    pub fn estimate_bandwidth<const D: usize>(points: &[[f64; D]], factor: f64) -> Option<f64> {
        if points.len() < 2 {
            return None;
        }
        let mut nn: Vec<f64> = points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                points
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, q)| dist2(p, q))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        nn.sort_by(f64::total_cmp);
        let median = nn[nn.len() / 2].sqrt();
        // All points may coincide; fall back to a nominal scale.
        Some(if median > 0.0 { factor * median } else { factor })
    }
}

/// The flat mean of a whole point set and the box that bounds it: the
/// answer of every flat-kernel step whose ball covers the box.
struct Cover<const D: usize> {
    lo: [f64; D],
    hi: [f64; D],
    mean: [f64; D],
}

impl<const D: usize> Cover<D> {
    /// `None` when `points` is empty or holds a non-finite coordinate.
    fn new(points: &[[f64; D]]) -> Option<Self> {
        let first = points.first()?;
        let (mut lo, mut hi) = (*first, *first);
        let mut num = [0.0; D];
        let mut den = 0.0;
        for p in points {
            if !p.iter().all(|v| v.is_finite()) {
                return None;
            }
            for (((l, h), n), &v) in lo.iter_mut().zip(&mut hi).zip(&mut num).zip(p) {
                *l = l.min(v);
                *h = h.max(v);
                // Same operations, same order as a flat `step`.
                *n += 1.0 * v;
            }
            den += 1.0;
        }
        for v in num.iter_mut() {
            *v /= den;
        }
        Some(Cover { lo, hi, mean: num })
    }

    /// `true` when every point lies within `range2` of `pos` as [`dist2`]
    /// computes it: the farthest box corner does.
    fn covers(&self, pos: &[f64; D], range2: f64) -> bool {
        let mut corner = [0.0; D];
        for i in 0..D {
            corner[i] = if (pos[i] - self.lo[i]).abs() >= (pos[i] - self.hi[i]).abs() {
                self.lo[i]
            } else {
                self.hi[i]
            };
        }
        dist2(pos, &corner) <= range2
    }
}

/// Mean Shift steps over one point set, answering each from the covering
/// ball or the memo before falling back to a full scan.
struct Seeker<'a, const D: usize> {
    ms: &'a MeanShift,
    points: &'a [[f64; D]],
    /// Present only for the flat kernel over finite points.
    cover: Option<Cover<D>>,
    /// Scanned step results keyed on the bits of the start position.
    memo: BTreeMap<[u64; D], Option<[f64; D]>>,
}

impl<'a, const D: usize> Seeker<'a, D> {
    fn new(ms: &'a MeanShift, points: &'a [[f64; D]]) -> Self {
        let cover = match ms.kernel {
            Kernel::Flat => Cover::new(points),
            Kernel::Gaussian => None,
        };
        Seeker { ms, points, cover, memo: BTreeMap::new() }
    }

    /// Exactly `ms.step(pos, points)`.
    fn step(&mut self, pos: &[f64; D]) -> Option<[f64; D]> {
        if let Some(cover) = &self.cover {
            if cover.covers(pos, self.ms.bandwidth * self.ms.bandwidth) {
                return Some(cover.mean);
            }
        }
        let (ms, points) = (self.ms, self.points);
        *self.memo.entry(pos.map(f64::to_bits)).or_insert_with(|| ms.step(pos, points))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<[f64; 2]> {
        let mut pts = Vec::new();
        for i in 0..10 {
            let o = i as f64 * 0.01;
            pts.push([1.0 + o, 2.0 - o]);
            pts.push([10.0 - o, 20.0 + o]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs_flat() {
        let c = MeanShift::new(1.0).fit(&two_blobs());
        assert_eq!(c.n_clusters(), 2);
        assert_eq!(c.cluster_sizes(), vec![10, 10]);
        // Modes land near blob centers.
        assert!(dist(&c.centers[0], &[1.045, 1.955]) < 0.1);
        assert!(dist(&c.centers[1], &[9.955, 20.045]) < 0.1);
    }

    #[test]
    fn separates_two_blobs_gaussian() {
        let c = MeanShift::new(0.5).kernel(Kernel::Gaussian).fit(&two_blobs());
        assert_eq!(c.n_clusters(), 2);
    }

    #[test]
    fn singletons_remain_singletons() {
        let pts: Vec<[f64; 1]> = vec![[0.0], [100.0], [250.0]];
        let c = MeanShift::new(1.0).fit(&pts);
        assert_eq!(c.n_clusters(), 3);
        assert_eq!(c.cluster_sizes(), vec![1, 1, 1]);
    }

    #[test]
    fn one_big_bandwidth_gives_one_cluster() {
        let c = MeanShift::new(1000.0).fit(&two_blobs());
        assert_eq!(c.n_clusters(), 1);
        assert_eq!(c.cluster_sizes(), vec![20]);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<[f64; 2]> = Vec::new();
        let c = MeanShift::new(1.0).fit(&empty);
        assert_eq!(c.n_clusters(), 0);
        assert!(c.labels.is_empty());

        let single = vec![[3.0, 4.0]];
        let c = MeanShift::new(1.0).fit(&single);
        assert_eq!(c.n_clusters(), 1);
        assert_eq!(c.labels, vec![0]);
        assert_eq!(c.centers[0], [3.0, 4.0]);
    }

    #[test]
    fn identical_points_collapse_to_one_mode() {
        let pts = vec![[5.0, 5.0]; 50];
        let c = MeanShift::new(0.1).fit(&pts);
        assert_eq!(c.n_clusters(), 1);
        assert_eq!(c.cluster_sizes(), vec![50]);
    }

    #[test]
    fn deterministic_across_runs() {
        let pts = two_blobs();
        let ms = MeanShift::new(1.0);
        assert_eq!(ms.fit(&pts), ms.fit(&pts));
    }

    #[test]
    fn bandwidth_estimation() {
        let pts = two_blobs();
        let h = MeanShift::estimate_bandwidth(&pts, 3.0).unwrap();
        assert!(h > 0.0 && h < 5.0, "h = {h}");
        assert_eq!(MeanShift::estimate_bandwidth::<2>(&[], 3.0), None);
        assert_eq!(MeanShift::estimate_bandwidth(&[[1.0]], 3.0), None);
        // Coincident points fall back to the factor itself.
        assert_eq!(MeanShift::estimate_bandwidth(&[[1.0], [1.0]], 3.0), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let _ = MeanShift::new(0.0);
    }

    #[test]
    fn three_periodic_groups_plus_noise() {
        // Emulates the paper's scenario: checkpoint writes (long segments,
        // big volume), periodic reads (short segments, small volume), and a
        // couple of one-off operations.
        let mut pts: Vec<[f64; 2]> = Vec::new();
        for i in 0..20 {
            pts.push([60.0 + (i % 3) as f64 * 0.2, 8.0 + (i % 2) as f64 * 0.1]);
        }
        for i in 0..15 {
            pts.push([5.0 + (i % 4) as f64 * 0.05, 2.0]);
        }
        pts.push([300.0, 12.0]);
        pts.push([1500.0, 1.0]);
        let c = MeanShift::new(2.0).fit(&pts);
        let sizes = c.cluster_sizes();
        let periodic: Vec<_> = sizes.iter().filter(|&&s| s > 1).collect();
        assert_eq!(periodic.len(), 2, "sizes: {sizes:?}");
        assert_eq!(sizes.iter().filter(|&&s| s == 1).count(), 2);
    }
}
