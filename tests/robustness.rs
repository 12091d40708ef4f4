//! Robustness properties: parsers never panic on hostile input, and the
//! categorizer satisfies its algebraic invariants on arbitrary views.

use mosaic_core::category::{MetadataLabel, OpKindTag, TemporalityLabel};
use mosaic_core::merge::{merge_all, merge_concurrent};
use mosaic_core::metadata::{self, MetadataResult};
use mosaic_core::{Categorizer, CategorizerConfig};
use mosaic_darshan::counter::{PosixCounter as C, PosixFCounter as F};
use mosaic_darshan::job::JobHeader;
use mosaic_darshan::log::{TraceLog, TraceLogBuilder};
use mosaic_darshan::ops::{MetaEvent, MetaKind, OpKind, Operation, OperationView};
use mosaic_darshan::{dxt, mdf, text};
use mosaic_pipeline::executor::{process, PipelineConfig, PipelineResult, RunOutcome};
use mosaic_pipeline::source::{TraceInput, VecSource};
use proptest::prelude::*;

// ---- parsers must reject, never panic --------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mdf_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        let _ = mdf::from_bytes(&bytes);
    }

    #[test]
    fn mdx_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..4096)) {
        let _ = dxt::from_bytes(&bytes);
    }

    #[test]
    fn text_parser_never_panics(input in "\\PC{0,2000}") {
        let _ = text::parse(&input);
    }

    #[test]
    fn mdf_parser_never_panics_on_mutated_valid_prefix(
        cut in 0usize..1000,
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // A valid header followed by garbage exercises the structured
        // decoding paths rather than just the magic check.
        let log = mosaic_darshan::log::TraceLogBuilder::new(
            mosaic_darshan::job::JobHeader::new(1, 2, 3, 0, 100).with_exe("/bin/x"),
        )
        .finish();
        let mut bytes = mdf::to_bytes(&log);
        let cut = cut.min(bytes.len());
        bytes.truncate(cut);
        bytes.extend(junk);
        let _ = mdf::from_bytes(&bytes);
    }
}

// ---- merge invariants --------------------------------------------------

fn arb_ops() -> impl Strategy<Value = Vec<Operation>> {
    prop::collection::vec((0.0f64..10_000.0, 0.0f64..500.0, 0u64..1 << 32, 1u32..128), 0..120)
        .prop_map(|raw| {
            raw.into_iter()
                .map(|(start, len, bytes, ranks)| Operation {
                    kind: OpKind::Write,
                    start,
                    end: start + len,
                    bytes,
                    ranks,
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn concurrent_merge_output_is_sorted_and_disjoint(ops in arb_ops()) {
        let merged = merge_concurrent(&ops);
        for w in merged.windows(2) {
            prop_assert!(w[0].start <= w[1].start);
            prop_assert!(w[0].end < w[1].start, "overlap survived: {w:?}");
        }
    }

    #[test]
    fn concurrent_merge_is_idempotent(ops in arb_ops()) {
        let once = merge_concurrent(&ops);
        let twice = merge_concurrent(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn merging_conserves_bytes_and_ranks(ops in arb_ops()) {
        let bytes: u64 = ops.iter().map(|o| o.bytes).sum();
        let ranks: u64 = ops.iter().map(|o| o.ranks as u64).sum();
        let merged = merge_all(&ops, 10_500.0, &CategorizerConfig::default());
        prop_assert_eq!(merged.iter().map(|o| o.bytes).sum::<u64>(), bytes);
        prop_assert_eq!(merged.iter().map(|o| o.ranks as u64).sum::<u64>(), ranks);
    }

    #[test]
    fn merging_preserves_time_hull(ops in arb_ops()) {
        prop_assume!(!ops.is_empty());
        let lo = ops.iter().map(|o| o.start).fold(f64::INFINITY, f64::min);
        let hi = ops.iter().map(|o| o.end).fold(0.0f64, f64::max);
        let merged = merge_all(&ops, 10_500.0, &CategorizerConfig::default());
        prop_assert!((merged.first().unwrap().start - lo).abs() < 1e-9);
        prop_assert!((merged.last().unwrap().end - hi).abs() < 1e-9);
    }
}

// ---- categorizer invariants ---------------------------------------------

fn arb_view() -> impl Strategy<Value = OperationView> {
    (
        100.0f64..100_000.0,
        1u32..2048,
        prop::collection::vec((0.0f64..1.0, 0.0f64..0.2, 0u64..1 << 34), 0..40),
        prop::collection::vec((0.0f64..1.0, 0.0f64..0.2, 0u64..1 << 34), 0..40),
    )
        .prop_map(|(runtime, nprocs, raw_reads, raw_writes)| {
            let mk = |kind: OpKind, raw: Vec<(f64, f64, u64)>| {
                let mut ops: Vec<Operation> = raw
                    .into_iter()
                    .map(|(s, l, bytes)| Operation {
                        kind,
                        start: s * runtime,
                        end: (s + l).min(1.0) * runtime,
                        bytes,
                        ranks: nprocs,
                    })
                    .collect();
                ops.sort_by(|a, b| a.start.total_cmp(&b.start));
                ops
            };
            OperationView {
                runtime,
                nprocs,
                reads: mk(OpKind::Read, raw_reads),
                writes: mk(OpKind::Write, raw_writes),
                meta: vec![],
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn categorizer_never_panics_and_is_total(view in arb_view()) {
        let report = Categorizer::default().categorize(&view);
        // Exactly one temporality label per direction, always.
        for kind in [OpKindTag::Read, OpKindTag::Write] {
            let labels = TemporalityLabel::ALL
                .iter()
                .filter(|&&label| {
                    report.has(mosaic_core::Category::Temporality { kind, label })
                })
                .count();
            prop_assert_eq!(labels, 1, "direction {:?}", kind);
        }
    }

    #[test]
    fn significance_threshold_is_respected(view in arb_view()) {
        let config = CategorizerConfig::default();
        let threshold = config.insignificant_bytes;
        let report = Categorizer::new(config).categorize(&view);
        for (kind, ops) in [(OpKindTag::Read, &view.reads), (OpKindTag::Write, &view.writes)] {
            let total: u64 = ops.iter().map(|o| o.bytes).sum();
            let insig = report.has(mosaic_core::Category::Temporality {
                kind,
                label: TemporalityLabel::Insignificant,
            });
            prop_assert_eq!(total < threshold, insig, "kind {:?} total {}", kind, total);
        }
    }

    #[test]
    fn temporality_is_time_scale_invariant(view in arb_view(), scale_exp in -3i32..8) {
        // Powers of two keep every float product exact, so the property is
        // strict; arbitrary scales could flip decisions that sit exactly on
        // the 2x-dominance boundary through rounding.
        let scale = (2.0f64).powi(scale_exp);
        let scaled = OperationView {
            runtime: view.runtime * scale,
            nprocs: view.nprocs,
            reads: view
                .reads
                .iter()
                .map(|o| Operation { start: o.start * scale, end: o.end * scale, ..*o })
                .collect(),
            writes: view
                .writes
                .iter()
                .map(|o| Operation { start: o.start * scale, end: o.end * scale, ..*o })
                .collect(),
            meta: vec![],
        };
        let categorizer = Categorizer::default();
        let a = categorizer.categorize(&view);
        let b = categorizer.categorize(&scaled);
        prop_assert_eq!(a.read.temporality.label, b.read.temporality.label);
        prop_assert_eq!(a.write.temporality.label, b.write.temporality.label);
    }

    #[test]
    fn reports_always_roundtrip_json(view in arb_view()) {
        let report = Categorizer::default().categorize(&view);
        let parsed = mosaic_core::TraceReport::from_json(&report.to_json()).unwrap();
        prop_assert_eq!(parsed, report);
    }
}

/// Named regression for the committed proptest seed `bb844bc1…` (see
/// `tests/robustness.proptest-regressions`). The shrunk case is a chain of
/// six overlapping reads where only one carries bytes, scaled by the
/// decidedly non-power-of-two factor `59.38165539475814`. At that scale the
/// merged read interval's fraction-of-runtime lands exactly on the
/// 2×-dominance boundary between temporality labels, and f64 rounding can
/// push it to either side — which is why the live property
/// (`temporality_is_time_scale_invariant`) now restricts itself to
/// power-of-two scales, where every product is exact. This test pins the
/// weaker guarantees that must hold even at the hostile scale: the
/// categorizer stays total (exactly one temporality label per direction)
/// and power-of-two scaling of this exact view remains strictly invariant.
#[test]
fn regression_non_power_of_two_scale_on_boundary_view() {
    let raw = [
        (40.180_654_076_512_894, 56.981_909_748_251_05, 0u64),
        (54.551_798_380_312_974, 69.179_056_891_784_43, 104_857_600),
        (67.226_972_903_747_95, 83.212_590_262_719_33, 0),
        (81.309_842_379_837_16, 85.727_400_500_151_49, 0),
        (83.705_708_641_753_13, 96.441_578_417_198_81, 0),
        (90.759_335_358_299_62, 100.0, 0),
    ];
    let view = OperationView {
        runtime: 100.0,
        nprocs: 1,
        reads: raw
            .iter()
            .map(|&(start, end, bytes)| Operation {
                kind: OpKind::Read,
                start,
                end,
                bytes,
                ranks: 1,
            })
            .collect(),
        writes: vec![],
        meta: vec![],
    };
    let categorizer = Categorizer::default();
    let rescale = |view: &OperationView, scale: f64| OperationView {
        runtime: view.runtime * scale,
        nprocs: view.nprocs,
        reads: view
            .reads
            .iter()
            .map(|o| Operation { start: o.start * scale, end: o.end * scale, ..*o })
            .collect(),
        writes: vec![],
        meta: vec![],
    };

    let base = categorizer.categorize(&view);
    // Totality holds at the historical hostile scale — no panic, exactly one
    // temporality label per direction (whichever side of the boundary the
    // rounding picks).
    let hostile = categorizer.categorize(&rescale(&view, 59.381_655_394_758_14));
    for report in [&base, &hostile] {
        for kind in [OpKindTag::Read, OpKindTag::Write] {
            let labels = TemporalityLabel::ALL
                .iter()
                .filter(|&&label| report.has(mosaic_core::Category::Temporality { kind, label }))
                .count();
            assert_eq!(labels, 1, "direction {kind:?}");
        }
    }
    // Power-of-two scales stay exact even on this boundary-sitting view.
    for exp in [-3i32, -1, 1, 4, 8] {
        let scaled = categorizer.categorize(&rescale(&view, (2.0f64).powi(exp)));
        assert_eq!(scaled.read.temporality.label, base.read.temporality.label, "2^{exp}");
        assert_eq!(scaled.write.temporality.label, base.write.temporality.label, "2^{exp}");
    }
}

// ---- pipeline resilience -------------------------------------------------

#[test]
fn pipeline_survives_a_source_of_pure_garbage() {
    use mosaic_pipeline::source::ClosureSource;
    let source = ClosureSource::new(200, |i| TraceInput::bytes(vec![i as u8; i % 97]));
    let result = process(&source, &PipelineConfig::default());
    assert_eq!(result.funnel.total, 200);
    assert_eq!(result.funnel.format_corrupt, 200);
    assert!(result.outcomes.is_empty());
}

// ---- metadata: sparse binning against the dense spec ----------------------

/// Executable spec for `metadata::characterize`: one `u64` per second of
/// runtime, scanned in full. Only usable where the runtime is small enough
/// to allocate per second, and the counts small enough not to overflow.
fn reference_characterize(
    meta: &[MetaEvent],
    runtime: f64,
    nprocs: u32,
    config: &CategorizerConfig,
) -> MetadataResult {
    let total_requests: u64 = meta.iter().map(|e| e.count).sum();
    let bins = (runtime.ceil() as usize).max(1);
    let mut hist = vec![0u64; bins];
    for e in meta {
        hist[(e.time.max(0.0) as usize).min(bins - 1)] += e.count;
    }
    let peak_rps = hist.iter().copied().max().unwrap_or(0);
    let spike_count = hist.iter().filter(|&&c| c >= config.spike_requests).count();
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

/// Event times: NaN, ±inf, negatives, far past any runtime, and many events
/// crowded into the first few dozen seconds.
fn arb_meta_time() -> impl Strategy<Value = f64> {
    (0u8..10, 0.0f64..1.0, 0u32..40).prop_map(|(pick, frac, sec)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -100.0 * frac,
        4 => 2e5 + 1e6 * frac,
        5..=7 => f64::from(sec) + frac,
        _ => 1.2e5 * frac,
    })
}

/// Counts including 0, small bursts around the spike thresholds, and large
/// values that still cannot overflow a 64-event sum.
fn arb_meta_count() -> impl Strategy<Value = u64> {
    (0u8..4, 0u64..1 << 40).prop_map(|(pick, x)| match pick {
        0 => 0,
        1 => x % 100,
        2 => x % 400,
        _ => x,
    })
}

/// Runtimes including 0, negative, NaN, sub-second and up to ~1e5 s.
fn arb_meta_runtime() -> impl Strategy<Value = f64> {
    (0u8..10, 0.0f64..1.0).prop_map(|(pick, frac)| match pick {
        0 => 0.0,
        1 => -5.0,
        2 => f64::NAN,
        3 => 0.5,
        4 => 100.0 * frac,
        5 => 40.0,
        _ => 1e5 * frac,
    })
}

fn meta_config(pick: u8) -> CategorizerConfig {
    let default = CategorizerConfig::default();
    match pick {
        0 => CategorizerConfig { spike_requests: 0, ..default },
        1 => CategorizerConfig { spike_requests: 1, ..default },
        _ => default,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sparse_metadata_matches_dense_spec(
        raw in prop::collection::vec((arb_meta_time(), arb_meta_count()), 0..64),
        runtime in arb_meta_runtime(),
        nprocs in 1u32..200,
        config_pick in 0u8..3,
        sort_by_time in 0u8..2,
    ) {
        let mut meta: Vec<MetaEvent> = raw
            .into_iter()
            .map(|(time, count)| MetaEvent { time, kind: MetaKind::Open, count })
            .collect();
        if sort_by_time == 1 {
            // What the producers hand over: sorted, with NaN last.
            meta.sort_by(|a, b| a.time.total_cmp(&b.time));
        }
        let config = meta_config(config_pick);
        let got = metadata::characterize(&meta, runtime, nprocs, &config);
        let want = reference_characterize(&meta, runtime, nprocs, &config);
        prop_assert_eq!(&got.labels, &want.labels);
        prop_assert_eq!(got.total_requests, want.total_requests);
        prop_assert_eq!(got.peak_rps, want.peak_rps);
        prop_assert_eq!(got.spike_count, want.spike_count);
        prop_assert_eq!(got.mean_rps.to_bits(), want.mean_rps.to_bits());
    }
}

// ---- metadata: hostile headers and counts through the pipeline -------------

fn process_one(log: &TraceLog) -> PipelineResult {
    let input = TraceInput::bytes(mdf::to_bytes(log));
    process(&VecSource::new(vec![input]), &PipelineConfig::default())
}

fn only_outcome(result: &PipelineResult) -> &RunOutcome {
    assert_eq!(result.funnel.total, 1);
    assert_eq!(result.outcomes.len(), 1, "funnel: {:?}", result.funnel);
    &result.outcomes[0]
}

/// A valid header claiming 10⁹ s of runtime once sized a per-second vector
/// from the wire: 8 GB for one empty trace.
#[test]
fn runtime_bomb_header_does_not_allocate_per_second() {
    let header = || JobHeader::new(1, 2, 3, 0, 1_000_000_000).with_exe("/bin/bomb");
    let empty = TraceLogBuilder::new(header()).finish();
    let result = process_one(&empty);
    let report = &only_outcome(&result).report;
    assert_eq!(report.metadata.labels, vec![MetadataLabel::InsignificantLoad]);
    assert_eq!(report.metadata.total_requests, 0);
    assert_eq!(report.metadata.spike_count, 0);

    let mut builder = TraceLogBuilder::new(header());
    for (i, t) in [10.0, 10.5, 5e8].into_iter().enumerate() {
        let r = builder.begin_record(&format!("/in/{i}"), -1);
        builder.record_mut(r).set(C::Opens, 200).setf(F::OpenStartTimestamp, t);
    }
    let result = process_one(&builder.finish());
    let metadata = &only_outcome(&result).report.metadata;
    assert_eq!((metadata.total_requests, metadata.peak_rps), (600, 400));
    assert_eq!(metadata.spike_count, 2);
    assert_eq!(metadata.labels, vec![MetadataLabel::HighSpike]);

    let events = [MetaEvent { time: 3.0, kind: MetaKind::Open, count: 60 }];
    for runtime in [f64::INFINITY, 1e300] {
        let r = metadata::characterize(&events, runtime, 1, &CategorizerConfig::default());
        assert_eq!((r.peak_rps, r.spike_count), (60, 1));
        let zero = CategorizerConfig { spike_requests: 0, ..CategorizerConfig::default() };
        let r = metadata::characterize(&events, runtime, 1, &zero);
        assert_eq!(r.spike_count, usize::MAX, "every second of a saturated runtime spikes");
    }
}

/// `end_time - start_time` over the full `i64` range once overflowed in the
/// header's runtime (a panic in debug builds, a wrap to -1 s in release).
#[test]
fn extreme_header_times_do_not_overflow_runtime() {
    let header = JobHeader::new(1, 2, 3, i64::MIN, i64::MAX).with_exe("/bin/wide");
    assert_eq!(header.runtime(), 2f64.powi(64));
    let result = process_one(&TraceLogBuilder::new(header).finish());
    let outcome = only_outcome(&result);
    assert_eq!((outcome.start_time, outcome.end_time), (i64::MIN, i64::MAX));
    assert_eq!(outcome.report.metadata.labels, vec![MetadataLabel::InsignificantLoad]);
}

/// Three records each claiming `i64::MAX` opens once overflowed the
/// metadata request sums.
#[test]
fn huge_metadata_counts_saturate() {
    let mut builder =
        TraceLogBuilder::new(JobHeader::new(1, 2, 3, 0, 1000).with_exe("/bin/opener"));
    for i in 0..3 {
        let r = builder.begin_record(&format!("/in/{i}"), -1);
        builder.record_mut(r).set(C::Opens, i64::MAX).setf(F::OpenStartTimestamp, 1.0);
    }
    let log = builder.finish();
    assert_eq!(OperationView::from_log(&log).total_meta_requests(), u64::MAX);
    let result = process_one(&log);
    let metadata = &only_outcome(&result).report.metadata;
    assert_eq!((metadata.total_requests, metadata.peak_rps), (u64::MAX, u64::MAX));
    assert_eq!(metadata.spike_count, 1);
    assert_eq!(metadata.labels, vec![MetadataLabel::HighSpike]);
}
