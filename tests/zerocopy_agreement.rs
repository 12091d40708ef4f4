//! Property pins for the one ingest path.
//!
//! **Parsing.** [`TraceView::parse`] is the only structural MDF parser
//! (`mdf::from_bytes` is `parse` + `to_log`). On every input — arbitrary
//! garbage, mutated real traces, structurally valid logs with hostile
//! counter values — it must never panic, and whenever it accepts, the
//! borrowed validation `validate_view` must agree with the owned
//! `validate::validate` on the materialized log. Serialization must
//! round-trip exactly.
//!
//! **Merging and temporality.** The merge passes and the chunk
//! apportioning exist once, in `mosaic_core::columnar`; the row-in/row-out
//! `mosaic_core::merge` functions are adapters over it. The `reference_*`
//! functions below are the row-oriented spec those columns must reproduce
//! bit for bit (`to_bits()` on every start, end and chunk sum), including
//! on NaN/±inf/negative times, zero bytes and degenerate runtimes.

use mosaic_core::columnar::{chunk_volumes_columnar, OpColumns};
use mosaic_core::merge::{merge_all, merge_concurrent, merge_neighbors};
use mosaic_core::CategorizerConfig;
use mosaic_darshan::job::JobHeader;
use mosaic_darshan::log::TraceLog;
use mosaic_darshan::ops::{OpKind, Operation};
use mosaic_darshan::record::PosixRecord;
use mosaic_darshan::synthutil::Crc32;
use mosaic_darshan::validate;
use mosaic_darshan::view::{validate_view, TraceView};
use mosaic_darshan::{mdf, TraceLogBuilder};
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// The parse contract, applied to one byte buffer: `parse` returns (no
/// panic), and an accepted view validates exactly like its owned log.
fn assert_parse_contract(bytes: &[u8]) -> TestCaseResult {
    if let Ok(view) = TraceView::parse(bytes) {
        let log = view.to_log();
        prop_assert_eq!(validate_view(&view), validate::validate(&log), "validity reports differ");
        prop_assert_eq!(view.n_records(), log.records().len());
        prop_assert_eq!(view.exe, log.header().exe.as_str());
        prop_assert_eq!(view.app_key(), log.header().app_key());
    }
    Ok(())
}

/// A small but real trace to mutate: mixed ranks, read activity, meta ops.
fn seed_trace_bytes() -> Vec<u8> {
    let mut b = TraceLogBuilder::new(
        JobHeader::new(7, 99, 16, 1_600_000_000, 1_600_003_600).with_exe("/apps/ior/ior -a POSIX"),
    );
    for i in 0..4i64 {
        let r = b.begin_record(&format!("/scratch/out.{i}"), i as i32 - 1);
        b.record_mut(r)
            .set(mosaic_darshan::counter::PosixCounter::Reads, 8 * (i + 1))
            .set(mosaic_darshan::counter::PosixCounter::BytesRead, 4096 * (i + 1))
            .set(mosaic_darshan::counter::PosixCounter::Opens, 2)
            .setf(mosaic_darshan::counter::PosixFCounter::ReadStartTimestamp, i as f64)
            .setf(mosaic_darshan::counter::PosixFCounter::ReadEndTimestamp, i as f64 + 0.25);
    }
    mdf::to_bytes(&b.finish())
}

/// Structurally valid logs with adversarial contents: arbitrary counters
/// (including negatives and near-overflow magnitudes), arbitrary ranks,
/// records with and without name-table entries.
fn arb_log() -> impl Strategy<Value = TraceLog> {
    let arb_record = (
        any::<u64>(),
        -3i32..70,
        prop::collection::vec(any::<i64>(), mosaic_darshan::counter::N_POSIX_COUNTERS),
        prop::collection::vec(-1.0e9f64..1.0e9, mosaic_darshan::counter::N_POSIX_FCOUNTERS),
        any::<bool>(),
    );
    (
        any::<u64>(),
        any::<u32>(),
        0u32..2048,
        -1000i64..2_000_000_000,
        0i64..2_000_000_000,
        prop::collection::vec(arb_record, 0..12),
    )
        .prop_map(|(job_id, uid, nprocs, start, end, recs)| {
            let header = JobHeader::new(job_id, uid, nprocs, start, end).with_exe("/bin/prop");
            let mut names = BTreeMap::new();
            let records: Vec<PosixRecord> = recs
                .into_iter()
                .map(|(id, rank, counters, fcounters, named)| {
                    let mut rec = PosixRecord::new(id, rank);
                    rec.counters.copy_from_slice(&counters);
                    rec.fcounters.copy_from_slice(&fcounters);
                    if named {
                        names.insert(id, format!("/prop/{id}"));
                    }
                    rec
                })
                .collect();
            TraceLog::from_parts(header, records, names)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        assert_parse_contract(&bytes)?;
    }

    #[test]
    fn magic_prefixed_garbage_never_panics(
        tail in prop::collection::vec(any::<u8>(), 0..1024),
    ) {
        // Forcing the magic past the first check exercises the checksum and
        // header decoding paths instead of bailing at byte 0.
        let mut bytes = mdf::MAGIC.to_vec();
        bytes.extend(tail);
        assert_parse_contract(&bytes)?;
    }

    #[test]
    fn truncated_and_extended_real_traces_never_panic(
        cut in 0usize..2000,
        junk in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        let mut bytes = seed_trace_bytes();
        let cut = cut.min(bytes.len());
        bytes.truncate(cut);
        bytes.extend(junk);
        assert_parse_contract(&bytes)?;
    }

    #[test]
    fn bit_flipped_real_traces_are_rejected(pos in 0usize..2000, mask in 1u8..=255) {
        let mut bytes = seed_trace_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= mask;
        // The magic or the CRC catches every single-byte flip.
        prop_assert!(TraceView::parse(&bytes).is_err());
        assert_parse_contract(&bytes)?;
    }

    #[test]
    fn recrced_corruptions_reach_structural_checks(
        pos in 0usize..2000,
        mask in 1u8..=255,
    ) {
        // Flip a payload byte, then repair the CRC footer: the parser gets
        // past the checksum and must decide on the *structural* checks
        // (record counts, module tags, name-table shape, trailing bytes).
        let mut bytes = seed_trace_bytes();
        let pos = pos % (bytes.len() - 4);
        bytes[pos] ^= mask;
        let crc = Crc32::checksum(&bytes[..bytes.len() - 4]);
        let footer = bytes.len() - 4;
        bytes[footer..].copy_from_slice(&crc.to_le_bytes());
        assert_parse_contract(&bytes)?;
    }

    #[test]
    fn adversarial_valid_logs_roundtrip_and_validate_identically(log in arb_log()) {
        let bytes = mdf::to_bytes(&log);
        // A well-formed serialization is accepted, however hostile the
        // counter values are, and decodes to exactly the log written.
        prop_assert!(TraceView::parse(&bytes).is_ok());
        prop_assert_eq!(mdf::from_bytes(&bytes), Ok(log.clone()));
        assert_parse_contract(&bytes)?;
    }
}

// ---------------------------------------------------------------------------
// Merging and temporality: the row-oriented reference spec
// ---------------------------------------------------------------------------

/// Fuse `b` into `a` (interval hull, byte sum, rank sum).
fn fuse(a: &mut Operation, b: &Operation) {
    a.start = a.start.min(b.start);
    a.end = a.end.max(b.end);
    a.bytes = a.bytes.saturating_add(b.bytes);
    a.ranks = a.ranks.saturating_add(b.ranks);
}

/// Concurrent merging: fuse every group of transitively overlapping
/// operations into a single operation.
///
/// Input need not be sorted; output is sorted by start time.
fn reference_merge_concurrent(ops: &[Operation]) -> Vec<Operation> {
    let mut sorted: Vec<Operation> = ops.to_vec();
    sorted.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.end.total_cmp(&b.end)));
    let mut out: Vec<Operation> = Vec::with_capacity(sorted.len());
    for op in sorted {
        match out.last_mut() {
            Some(last) if op.start <= last.end => fuse(last, &op),
            _ => out.push(op),
        }
    }
    out
}

/// Neighbor merging: fuse consecutive operations whose gap is below
/// `max(neighbor_gap_runtime_frac · runtime, neighbor_gap_op_frac ·
/// duration(previous merged op))`.
///
/// Expects concurrent-merged (sorted, non-overlapping) input.
fn reference_merge_neighbors(
    ops: &[Operation],
    runtime: f64,
    config: &CategorizerConfig,
) -> Vec<Operation> {
    let runtime_gap = config.neighbor_gap_runtime_frac * runtime.max(0.0);
    let mut out: Vec<Operation> = Vec::with_capacity(ops.len());
    for op in ops {
        match out.last_mut() {
            Some(last) => {
                let gap = op.start - last.end;
                let op_gap = config.neighbor_gap_op_frac * last.duration();
                if gap <= runtime_gap.max(op_gap) {
                    fuse(last, op);
                } else {
                    out.push(*op);
                }
            }
            None => out.push(*op),
        }
    }
    out
}

/// Both passes in order: the full §III-B2 pre-processing for one direction.
fn reference_merge_all(
    ops: &[Operation],
    runtime: f64,
    config: &CategorizerConfig,
) -> Vec<Operation> {
    reference_merge_neighbors(&reference_merge_concurrent(ops), runtime, config)
}

/// Apportion operation bytes over `chunks` equal time chunks of
/// `[0, runtime]`.
fn reference_chunk_volumes(ops: &[Operation], runtime: f64, chunks: usize) -> Vec<f64> {
    let mut sums = vec![0.0; chunks];
    if runtime <= 0.0 || chunks == 0 {
        return sums;
    }
    let width = runtime / chunks as f64;
    for op in ops {
        if op.bytes == 0 {
            continue;
        }
        // Ops entirely outside the job window carry no in-window bytes;
        // apportioning them would dump phantom volume into an edge chunk.
        if op.start > runtime || op.end < 0.0 {
            continue;
        }
        let s = op.start.max(0.0);
        let e = op.end.min(runtime).max(s);
        if e <= s {
            // Instantaneous operation: all bytes in its containing chunk.
            let c = ((s / width) as usize).min(chunks - 1);
            sums[c] += op.bytes as f64;
            continue;
        }
        let density = op.bytes as f64 / (e - s);
        let first = ((s / width) as usize).min(chunks - 1);
        let last = ((e / width) as usize).min(chunks - 1);
        #[allow(clippy::needless_range_loop)] // index math over a time window
        for c in first..=last {
            let lo = s.max(c as f64 * width);
            let hi = e.min((c + 1) as f64 * width);
            if hi > lo {
                sums[c] += density * (hi - lo);
            }
        }
    }
    sums
}

/// The production chunk apportioning, fed rows.
fn chunk_volumes(ops: &[Operation], runtime: f64, chunks: usize) -> Vec<f64> {
    let mut cols = OpColumns::default();
    cols.load_ops(ops);
    chunk_volumes_columnar(&cols, runtime, chunks)
}

/// Operations as comparable bit patterns: `==` on `f64` would call two NaNs
/// different and `0.0`/`-0.0` equal.
fn op_bits(ops: &[Operation]) -> Vec<(OpKind, u64, u64, u64, u32)> {
    ops.iter().map(|o| (o.kind, o.start.to_bits(), o.end.to_bits(), o.bytes, o.ranks)).collect()
}

fn sum_bits(sums: &[f64]) -> Vec<u64> {
    sums.iter().map(|s| s.to_bits()).collect()
}

/// Production merge passes and chunk sums against the reference, bit for
/// bit, pass by pass.
fn assert_matches_reference(
    ops: &[Operation],
    runtime: f64,
    chunks: usize,
    config: &CategorizerConfig,
) -> TestCaseResult {
    let concurrent = reference_merge_concurrent(ops);
    prop_assert_eq!(op_bits(&merge_concurrent(ops)), op_bits(&concurrent), "concurrent pass");
    prop_assert_eq!(
        op_bits(&merge_neighbors(ops, runtime, config)),
        op_bits(&reference_merge_neighbors(ops, runtime, config)),
        "neighbor pass on raw input"
    );
    prop_assert_eq!(
        op_bits(&merge_neighbors(&concurrent, runtime, config)),
        op_bits(&reference_merge_neighbors(&concurrent, runtime, config)),
        "neighbor pass on concurrent-merged input"
    );
    let merged = reference_merge_all(ops, runtime, config);
    prop_assert_eq!(op_bits(&merge_all(ops, runtime, config)), op_bits(&merged), "both passes");
    prop_assert_eq!(
        sum_bits(&chunk_volumes(ops, runtime, chunks)),
        sum_bits(&reference_chunk_volumes(ops, runtime, chunks)),
        "chunk sums of the raw operations"
    );
    prop_assert_eq!(
        sum_bits(&chunk_volumes(&merged, runtime, chunks)),
        sum_bits(&reference_chunk_volumes(&merged, runtime, chunks)),
        "chunk sums of the merged operations"
    );
    Ok(())
}

/// A time value: mostly on a coarse grid (so equal starts and touching
/// endpoints are common), sometimes off it, negative, NaN or infinite.
fn arb_time() -> impl Strategy<Value = f64> {
    (0u8..16, -50.0f64..1050.0).prop_map(|(pick, x)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => -x.abs(),
        5 | 6 => x,
        _ => (x / 25.0).round() * 25.0,
    })
}

/// One direction's operation: hostile times, zero and saturating byte
/// counts, shared-rank and huge rank counts.
fn arb_op(kind: OpKind) -> impl Strategy<Value = Operation> {
    (arb_time(), arb_time(), 0u8..8, any::<u64>(), 0u8..8, any::<u32>()).prop_map(
        move |(start, end, bytes_pick, raw_bytes, ranks_pick, raw_ranks)| Operation {
            kind,
            start,
            end,
            bytes: match bytes_pick {
                0 | 1 => 0,
                2 => u64::MAX - (raw_bytes >> 60),
                _ => raw_bytes >> 34,
            },
            ranks: if ranks_pick == 0 { u32::MAX - (raw_ranks >> 28) } else { raw_ranks >> 24 },
        },
    )
}

/// A runtime: ordinary, zero, negative, NaN or infinite.
fn arb_runtime() -> impl Strategy<Value = f64> {
    (0u8..10, 1.0f64..2000.0).prop_map(|(pick, x)| match pick {
        0 => 0.0,
        1 => -x,
        2 => f64::NAN,
        3 => f64::INFINITY,
        _ => x,
    })
}

fn arb_config() -> impl Strategy<Value = CategorizerConfig> {
    (0.0f64..0.05, 0.0f64..0.05).prop_map(|(runtime_frac, op_frac)| CategorizerConfig {
        neighbor_gap_runtime_frac: runtime_frac,
        neighbor_gap_op_frac: op_frac,
        ..CategorizerConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn columnar_merge_and_chunks_match_the_reference(
        ops in prop::collection::vec(arb_op(OpKind::Write), 0..40),
        runtime in arb_runtime(),
        chunks in 0usize..9,
        config in arb_config(),
    ) {
        assert_matches_reference(&ops, runtime, chunks, &config)?;
    }

    #[test]
    fn read_direction_keeps_its_kind(
        ops in prop::collection::vec(arb_op(OpKind::Read), 1..24),
        runtime in arb_runtime(),
    ) {
        assert_matches_reference(&ops, runtime, 4, &CategorizerConfig::default())?;
        prop_assert!(merge_all(&ops, runtime, &CategorizerConfig::default())
            .iter()
            .all(|o| o.kind == OpKind::Read));
    }
}

// Named boundary cases of the columnar interval layout.

fn op(start: f64, end: f64, bytes: u64) -> Operation {
    Operation { kind: OpKind::Write, start, end, bytes, ranks: 1 }
}

fn check(ops: &[Operation], runtime: f64) {
    assert_matches_reference(ops, runtime, 4, &CategorizerConfig::default())
        .unwrap_or_else(|e| panic!("{e:?}"));
}

#[test]
fn empty_and_single_interval_match_the_reference() {
    check(&[], 100.0);
    check(&[op(10.0, 20.0, 64)], 100.0);
}

#[test]
fn intervals_straddling_chunk_edges_match_the_reference() {
    // Ops crossing every quartile edge, plus one instantaneous op exactly
    // on an edge and two clipped at the window boundaries.
    check(
        &[
            op(20.0, 30.0, 100), // straddles the 25 s edge
            op(45.0, 55.0, 100), // straddles the 50 s edge
            op(70.0, 80.0, 100), // straddles the 75 s edge
            op(25.0, 25.0, 7),   // instantaneous exactly on an edge
            op(95.0, 120.0, 40), // clipped at runtime
            op(-5.0, 5.0, 40),   // clipped at zero
        ],
        100.0,
    );
}

#[test]
fn overlapping_and_touching_ops_match_the_reference() {
    check(
        &[
            op(5.0, 6.0, 2),
            op(0.0, 1.0, 1),
            op(0.5, 2.0, 4),
            op(2.0, 3.0, 8),    // touching endpoint: closed-interval fuse
            op(6.004, 7.0, 16), // within the neighbor gap for runtime 10_000
        ],
        10_000.0,
    );
}

#[test]
fn equal_start_ties_preserve_extraction_order() {
    // Stable-sort equivalence: equal (start, end) pairs with different
    // payloads must fuse in extraction order.
    check(&[op(1.0, 2.0, 10), op(1.0, 2.0, 20), op(1.0, 1.5, 5), op(1.0, 2.0, 40)], 100.0);
}
