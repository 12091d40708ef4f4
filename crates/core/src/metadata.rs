//! Metadata-impact characterization (§III-B3c).
//!
//! MOSAIC bins the trace's metadata requests (opens, closes, and the seeks
//! assumed co-located with opens) into one-second buckets over
//! `[0, runtime]` and inspects the per-second request-rate profile:
//!
//! * `high_spike` — more than 250 requests in a single second, at least
//!   once (the thresholds derive from mdworkbench measurements of a Lustre
//!   MDS comparable to Blue Waters', which saturates near 3000 req/s);
//! * `multiple_spikes` — at least 5 seconds with 50+ requests;
//! * `high_density` — at least 5 spikes *and* an average of 50+ requests
//!   per second across the execution;
//! * `insignificant_load` — fewer total metadata operations than ranks.
//!
//! Only the *occupied* seconds are materialized ([`occupied_seconds`]):
//! one pass folds runs of events in the same second, and only input out of
//! time order is sorted and folded again. Characterization therefore costs
//! `O(m log m)` at worst in the number `m` of metadata events, and nothing
//! per second of runtime: a 12 h trace with 20 events touches 20 buckets,
//! and a header claiming 10⁹ s of runtime allocates nothing extra. Every
//! empty second holds 0 requests, so it never raises the peak and never
//! reaches a positive spike threshold; only when `spike_requests == 0` does
//! each empty second count as a spike, and those are added as
//! `bins - occupied`. Request sums saturate at `u64::MAX` rather than wrap.

use crate::category::MetadataLabel;
use crate::config::CategorizerConfig;
use mosaic_darshan::ops::MetaEvent;
use serde::{Deserialize, Serialize};

/// Metadata verdict with the evidence kept for reporting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetadataResult {
    /// Assigned labels (non-exclusive; empty only when there were requests
    /// but none of the high-load patterns matched).
    pub labels: Vec<MetadataLabel>,
    /// Total metadata requests.
    pub total_requests: u64,
    /// Peak requests observed in one second.
    pub peak_rps: u64,
    /// Number of seconds with at least `spike_requests` requests.
    pub spike_count: usize,
    /// Mean requests per second over the execution.
    pub mean_rps: f64,
}

impl MetadataResult {
    /// `true` if a given label was assigned.
    pub fn has(&self, label: MetadataLabel) -> bool {
        self.labels.contains(&label)
    }
}

/// Number of one-second buckets covering `[0, runtime]` (at least one).
fn bin_count(runtime: f64) -> usize {
    // lint: allow(cast, "f64-to-usize `as` saturates; NaN and negatives go to 0 and .max(1) floors")
    (runtime.ceil() as usize).max(1)
}

/// Bin metadata events into one-second buckets over `[0, runtime]`,
/// keeping only the occupied ones: `(second, requests)` pairs in ascending
/// `second` order, one pair per distinct second. NaN and negative times
/// land in second 0, times past the runtime in the last second.
pub fn occupied_seconds(meta: &[MetaEvent], runtime: f64) -> Vec<(usize, u64)> {
    let last = bin_count(runtime) - 1;
    let mut pairs = Vec::new();
    for e in meta {
        // lint: allow(cast, "f64-to-usize `as` saturates; clamped below by max(0.0), above by min(last)")
        push_folded(&mut pairs, (e.time.max(0.0) as usize).min(last), e.count);
    }
    // Producers sort by time, so the pairs are usually in order already;
    // but a NaN time sorts last yet bins to 0.
    if !pairs.is_sorted_by_key(|&(second, _)| second) {
        let mut runs = std::mem::take(&mut pairs);
        runs.sort_unstable_by_key(|&(second, _)| second);
        for (second, count) in runs {
            push_folded(&mut pairs, second, count);
        }
    }
    pairs
}

/// Add `count` requests at `second`, merging into the last pair when it
/// holds the same second.
fn push_folded(pairs: &mut Vec<(usize, u64)>, second: usize, count: u64) {
    match pairs.last_mut() {
        Some(kept) if kept.0 == second => kept.1 = kept.1.saturating_add(count),
        _ => pairs.push((second, count)),
    }
}

/// Characterize the metadata impact of one trace.
pub fn characterize(
    meta: &[MetaEvent],
    runtime: f64,
    nprocs: u32,
    config: &CategorizerConfig,
) -> MetadataResult {
    let total_requests = meta.iter().fold(0u64, |sum, e| sum.saturating_add(e.count));
    let occupied = occupied_seconds(meta, runtime);
    let peak_rps = occupied.iter().map(|&(_, c)| c).max().unwrap_or(0);
    let mut spike_count = occupied.iter().filter(|&&(_, c)| c >= config.spike_requests).count();
    if config.spike_requests == 0 {
        // Every empty second holds 0 >= 0 requests.
        spike_count += bin_count(runtime) - occupied.len();
    }
    let mean_rps = total_requests as f64 / runtime.max(1.0);

    let mut labels = Vec::new();
    if total_requests < u64::from(nprocs) {
        labels.push(MetadataLabel::InsignificantLoad);
        return MetadataResult { labels, total_requests, peak_rps, spike_count, mean_rps };
    }
    if peak_rps > config.high_spike_requests {
        labels.push(MetadataLabel::HighSpike);
    }
    if spike_count >= config.min_spikes {
        labels.push(MetadataLabel::MultipleSpikes);
        if mean_rps >= config.density_mean_rps {
            labels.push(MetadataLabel::HighDensity);
        }
    }
    MetadataResult { labels, total_requests, peak_rps, spike_count, mean_rps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_darshan::ops::MetaKind;

    fn ev(time: f64, count: u64) -> MetaEvent {
        MetaEvent { time, kind: MetaKind::Open, count }
    }

    fn cfg() -> CategorizerConfig {
        CategorizerConfig::default()
    }

    #[test]
    fn insignificant_when_fewer_requests_than_ranks() {
        let r = characterize(&[ev(1.0, 63)], 100.0, 64, &cfg());
        assert_eq!(r.labels, vec![MetadataLabel::InsignificantLoad]);
        // Exactly nprocs requests: no longer insignificant.
        let r = characterize(&[ev(1.0, 64)], 100.0, 64, &cfg());
        assert!(!r.has(MetadataLabel::InsignificantLoad));
    }

    #[test]
    fn high_spike_above_250_in_one_second() {
        let r = characterize(&[ev(5.2, 251)], 100.0, 4, &cfg());
        assert!(r.has(MetadataLabel::HighSpike));
        assert_eq!(r.peak_rps, 251);
        let r = characterize(&[ev(5.2, 250)], 100.0, 4, &cfg());
        assert!(!r.has(MetadataLabel::HighSpike));
    }

    #[test]
    fn spikes_in_same_second_accumulate() {
        // Two bursts of 130 in the same second cross the 250 threshold.
        let r = characterize(&[ev(5.1, 130), ev(5.9, 130)], 100.0, 4, &cfg());
        assert!(r.has(MetadataLabel::HighSpike));
    }

    #[test]
    fn multiple_spikes_needs_five() {
        let four: Vec<MetaEvent> = (0..4).map(|i| ev(i as f64 * 10.0, 60)).collect();
        let r = characterize(&four, 100.0, 4, &cfg());
        assert!(!r.has(MetadataLabel::MultipleSpikes));
        let five: Vec<MetaEvent> = (0..5).map(|i| ev(i as f64 * 10.0, 60)).collect();
        let r = characterize(&five, 100.0, 4, &cfg());
        assert!(r.has(MetadataLabel::MultipleSpikes));
        assert_eq!(r.spike_count, 5);
    }

    #[test]
    fn high_density_needs_spikes_and_mean() {
        // 5 spikes but low mean over a long run: multiple_spikes only.
        let sparse: Vec<MetaEvent> = (0..5).map(|i| ev(i as f64 * 100.0, 60)).collect();
        let r = characterize(&sparse, 1000.0, 4, &cfg());
        assert!(r.has(MetadataLabel::MultipleSpikes));
        assert!(!r.has(MetadataLabel::HighDensity));
        // Dense: 60 req/s average over a 10 s run with 6 spikes.
        let dense: Vec<MetaEvent> = (0..10).map(|i| ev(i as f64, 60)).collect();
        let r = characterize(&dense, 10.0, 4, &cfg());
        assert!(r.has(MetadataLabel::HighDensity));
        assert!(r.mean_rps >= 50.0);
    }

    #[test]
    fn occupied_second_binning() {
        let pairs = occupied_seconds(&[ev(0.2, 3), ev(0.8, 2), ev(7.5, 1)], 10.0);
        assert_eq!(pairs, vec![(0, 5), (7, 1)]);
        // Events past runtime clamp into the last bin.
        assert_eq!(occupied_seconds(&[ev(99.0, 4)], 10.0), vec![(9, 4)]);
        // A trailing NaN time folds into second 0 with the leading events.
        let pairs = occupied_seconds(&[ev(0.5, 1), ev(3.0, 2), ev(f64::NAN, 4)], 10.0);
        assert_eq!(pairs, vec![(0, 5), (3, 2)]);
        assert!(occupied_seconds(&[], 10.0).is_empty());
    }

    #[test]
    fn zero_spike_threshold_counts_every_empty_second() {
        let config = CategorizerConfig { spike_requests: 0, ..cfg() };
        let r = characterize(&[ev(1.0, 0), ev(2.5, 7)], 10.0, 1, &config);
        assert_eq!(r.spike_count, 10);
        let r = characterize(&[], 10.0, 1, &config);
        assert_eq!(r.spike_count, 10);
    }

    #[test]
    fn empty_meta_is_insignificant() {
        let r = characterize(&[], 100.0, 4, &cfg());
        assert_eq!(r.labels, vec![MetadataLabel::InsignificantLoad]);
        assert_eq!(r.total_requests, 0);
    }

    #[test]
    fn spike_threshold_boundary_is_inclusive() {
        // A "spike" is >= 50 requests (inclusive); 49 is not.
        let at_49: Vec<MetaEvent> = (0..5).map(|i| ev(i as f64 * 10.0, 49)).collect();
        assert!(!characterize(&at_49, 100.0, 4, &cfg()).has(MetadataLabel::MultipleSpikes));
        let at_50: Vec<MetaEvent> = (0..5).map(|i| ev(i as f64 * 10.0, 50)).collect();
        assert!(characterize(&at_50, 100.0, 4, &cfg()).has(MetadataLabel::MultipleSpikes));
    }

    #[test]
    fn density_mean_uses_full_runtime() {
        // 6 spikes of 100 over 600 s: mean 1 req/s — spiky but not dense.
        let sparse: Vec<MetaEvent> = (0..6).map(|i| ev(i as f64 * 100.0, 100)).collect();
        let r = characterize(&sparse, 600.0, 4, &cfg());
        assert!(r.has(MetadataLabel::MultipleSpikes));
        assert!(!r.has(MetadataLabel::HighDensity));
        assert!((r.mean_rps - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quiet_but_significant_load_gets_no_labels() {
        // More requests than ranks, but no spikes: empty label set.
        let r = characterize(&[ev(1.0, 10), ev(50.0, 10)], 100.0, 4, &cfg());
        assert!(r.labels.is_empty());
    }
}
