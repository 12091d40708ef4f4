//! Point geometry and the common clustering result type.

/// Squared Euclidean distance between two `D`-dimensional points.
#[inline]
pub fn dist2<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    let mut acc = 0.0;
    for i in 0..D {
        // lint: allow(panic, "i < D indexes two [f64; D] arrays")
        let d = a[i] - b[i];
        acc += d * d;
    }
    acc
}

/// Euclidean distance.
#[inline]
pub fn dist<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    dist2(a, b).sqrt()
}

/// Component-wise mean of a non-empty set of points selected by `idxs`.
pub fn centroid<const D: usize>(points: &[[f64; D]], idxs: &[usize]) -> [f64; D] {
    debug_assert!(!idxs.is_empty());
    let mut c = [0.0; D];
    for &i in idxs {
        for d in 0..D {
            c[d] += points[i][d];
        }
    }
    for v in c.iter_mut() {
        *v /= idxs.len() as f64;
    }
    c
}

/// Result of a clustering run: a label per input point and one representative
/// point (mode or centroid) per cluster.
///
/// Labels are dense `0..n_clusters`. DBSCAN additionally uses
/// [`Clustering::NOISE`] for unclustered points.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering<const D: usize> {
    /// `labels[i]` is the cluster of input point `i` (or [`Clustering::NOISE`]).
    pub labels: Vec<usize>,
    /// Representative point (mode / centroid) of each cluster.
    pub centers: Vec<[f64; D]>,
}

impl<const D: usize> Clustering<D> {
    /// Label for points not assigned to any cluster (DBSCAN noise).
    pub const NOISE: usize = usize::MAX;

    /// Number of clusters found.
    #[inline]
    pub fn n_clusters(&self) -> usize {
        self.centers.len()
    }

    /// Number of member points per cluster (noise excluded).
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.centers.len()];
        for &l in &self.labels {
            if l != Self::NOISE {
                sizes[l] += 1;
            }
        }
        sizes
    }

    /// Indices of the members of cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.labels.iter().enumerate().filter_map(|(i, &l)| (l == c).then_some(i)).collect()
    }

    /// Member indices of every cluster, built in one pass over the labels:
    /// entry `c` equals [`Clustering::members`]`(c)`. Noise is left out.
    pub fn member_lists(&self) -> Vec<Vec<usize>> {
        let mut lists = vec![Vec::new(); self.centers.len()];
        for (i, &l) in self.labels.iter().enumerate() {
            if let Some(list) = lists.get_mut(l) {
                list.push(i);
            }
        }
        lists
    }

    /// Iterate clusters as `(center, member indices)`, skipping empty ones.
    pub fn clusters(&self) -> impl Iterator<Item = ([f64; D], Vec<usize>)> + '_ {
        self.centers
            .iter()
            .zip(self.member_lists())
            .filter_map(|(&center, m)| (!m.is_empty()).then_some((center, m)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(dist2(&a, &b), 25.0);
        assert_eq!(dist(&a, &b), 5.0);
        assert_eq!(dist(&a, &a), 0.0);
    }

    #[test]
    fn centroid_averages() {
        let pts = [[0.0, 0.0], [2.0, 4.0], [4.0, 2.0]];
        assert_eq!(centroid(&pts, &[0, 1, 2]), [2.0, 2.0]);
        assert_eq!(centroid(&pts, &[1]), [2.0, 4.0]);
    }

    #[test]
    fn clustering_accessors() {
        let c = Clustering::<2> {
            labels: vec![0, 1, 0, Clustering::<2>::NOISE],
            centers: vec![[0.0, 0.0], [5.0, 5.0]],
        };
        assert_eq!(c.n_clusters(), 2);
        assert_eq!(c.cluster_sizes(), vec![2, 1]);
        assert_eq!(c.members(0), vec![0, 2]);
        let all: Vec<_> = c.clusters().collect();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn member_lists_match_members_and_clusters_skip_empty() {
        let c = Clustering::<1> {
            labels: vec![2, 0, Clustering::<1>::NOISE, 2, 0, 2],
            centers: vec![[0.0], [1.0], [2.0]],
        };
        let lists = c.member_lists();
        assert_eq!(lists, vec![vec![1, 4], vec![], vec![0, 3, 5]]);
        for (k, list) in lists.iter().enumerate() {
            assert_eq!(*list, c.members(k));
        }
        let all: Vec<_> = c.clusters().collect();
        assert_eq!(all, vec![([0.0], vec![1, 4]), ([2.0], vec![0, 3, 5])]);
    }
}
