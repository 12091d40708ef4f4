//! Columnar (struct-of-arrays) interval storage and merging — the one
//! implementation of the §III-B2 merge passes and of temporality's chunk
//! apportioning.
//!
//! One direction's intervals live as four parallel vectors ([`OpColumns`])
//! inside a reusable per-thread [`TraceArena`], so that
//!
//! * concurrent-overlap merging walks contiguous `starts`/`ends` arrays,
//! * the quartile-chunk temporality scan streams the same arrays, and
//! * per-trace allocations collapse to arena `clear()`s that keep capacity.
//!
//! Row-oriented callers reach the same code: [`crate::merge`]'s functions
//! and [`crate::Categorizer::categorize`] load their `Operation`s with
//! [`OpColumns::load_ops`].
//!
//! **Ordering contract:** [`merge_concurrent_columnar`] does one stable
//! index sort of its input by `(start, end)`. Wire-fed traces arrive in
//! record-extraction order ([`ColumnarTrace::load`]); row-fed ones are
//! already stable-sorted by `start` ([`OperationView::from_log`]). Because
//! `(start, end)` refines `start`, both orders sort to the same sequence,
//! so the two front doors merge identically. A row-oriented reference spec
//! in the integration tests (`tests/zerocopy_agreement.rs`) pins the
//! arithmetic bit for bit.
//!
//! [`OperationView::from_log`]: mosaic_darshan::OperationView::from_log
//!
//! Arena ownership rule: an arena borrows nothing and owns all its buffers;
//! a loaded [`ColumnarTrace`] is valid until the next `load`, and anything
//! that must outlive the trace (the report) is built from copies.

use crate::config::CategorizerConfig;
use mosaic_darshan::convert::{nonneg_u64, usize_to_u64};
use mosaic_darshan::counter::{PosixCounter as C, PosixFCounter as F};
use mosaic_darshan::ops::{MetaEvent, MetaKind, OpKind, Operation};
use mosaic_darshan::validate::ValidityReport;
use mosaic_darshan::view::TraceView;

/// One direction's intervals in struct-of-arrays layout. The four vectors
/// always have equal length; element `i` of each describes one operation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpColumns {
    /// Operation start times (seconds relative to job start).
    pub starts: Vec<f64>,
    /// Operation end times.
    pub ends: Vec<f64>,
    /// Bytes moved per operation.
    pub bytes: Vec<u64>,
    /// Participating ranks per operation.
    pub ranks: Vec<u32>,
}

impl OpColumns {
    /// Number of operations.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// `true` when no operations are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Drop all operations, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.starts.clear();
        self.ends.clear();
        self.bytes.clear();
        self.ranks.clear();
    }

    /// Heap bytes held by the four column buffers (capacity, not length —
    /// arenas keep capacity across `clear()`, and resident memory is what
    /// the `mosaic.arena.resident_bytes` gauge reports).
    pub fn resident_bytes(&self) -> u64 {
        usize_to_u64(self.starts.capacity().saturating_mul(std::mem::size_of::<f64>()))
            .saturating_add(usize_to_u64(
                self.ends.capacity().saturating_mul(std::mem::size_of::<f64>()),
            ))
            .saturating_add(usize_to_u64(
                self.bytes.capacity().saturating_mul(std::mem::size_of::<u64>()),
            ))
            .saturating_add(usize_to_u64(
                self.ranks.capacity().saturating_mul(std::mem::size_of::<u32>()),
            ))
    }

    /// Append one operation.
    #[inline]
    pub fn push(&mut self, start: f64, end: f64, bytes: u64, ranks: u32) {
        self.starts.push(start);
        self.ends.push(end);
        self.bytes.push(bytes);
        self.ranks.push(ranks);
    }

    fn truncate(&mut self, len: usize) {
        self.starts.truncate(len);
        self.ends.truncate(len);
        self.bytes.truncate(len);
        self.ranks.truncate(len);
    }

    /// Operation `i` as `(start, end, bytes, ranks)`.
    #[inline]
    fn op(&self, i: usize) -> (f64, f64, u64, u32) {
        // lint: allow(panic, "callers pass i < len; the four columns share that length")
        (self.starts[i], self.ends[i], self.bytes[i], self.ranks[i])
    }

    /// Overwrite operation `dst` (compaction helper).
    #[inline]
    fn set(&mut self, dst: usize, (start, end, bytes, ranks): (f64, f64, u64, u32)) {
        // lint: allow(panic, "callers pass dst < len; compaction never writes past the read head")
        self.starts[dst] = start;
        // lint: allow(panic, "callers pass dst < len; compaction never writes past the read head")
        self.ends[dst] = end;
        // lint: allow(panic, "callers pass dst < len; compaction never writes past the read head")
        self.bytes[dst] = bytes;
        // lint: allow(panic, "callers pass dst < len; compaction never writes past the read head")
        self.ranks[dst] = ranks;
    }

    /// Fuse an operation into operation `dst`: interval hull, byte sum,
    /// rank sum. The one definition of the merge step's fuse; the
    /// `min`/`max` receiver order fixes its NaN behaviour.
    #[inline]
    fn fuse(&mut self, dst: usize, (start, end, bytes, ranks): (f64, f64, u64, u32)) {
        // lint: allow(panic, "callers pass dst < len, the last merged operation")
        self.starts[dst] = self.starts[dst].min(start);
        // lint: allow(panic, "callers pass dst < len, the last merged operation")
        self.ends[dst] = self.ends[dst].max(end);
        // lint: allow(panic, "callers pass dst < len, the last merged operation")
        self.bytes[dst] = self.bytes[dst].saturating_add(bytes);
        // lint: allow(panic, "callers pass dst < len, the last merged operation")
        self.ranks[dst] = self.ranks[dst].saturating_add(ranks);
    }

    /// Materialize row-oriented operations (for segmentation/periodicity,
    /// which run on the short post-merge list).
    pub fn materialize(&self, kind: OpKind, out: &mut Vec<Operation>) {
        out.clear();
        out.reserve(self.len());
        let columns = self.starts.iter().zip(&self.ends).zip(&self.bytes).zip(&self.ranks);
        for (((&start, &end), &bytes), &ranks) in columns {
            out.push(Operation { kind, start, end, bytes, ranks });
        }
    }

    /// Load from row-oriented operations: how row-fed callers
    /// ([`crate::merge`], [`crate::Categorizer::categorize`]) reach the
    /// columnar core.
    pub fn load_ops(&mut self, ops: &[Operation]) {
        self.clear();
        for op in ops {
            self.push(op.start, op.end, op.bytes, op.ranks);
        }
    }
}

/// One trace's extracted operation view in columnar form — what the
/// zero-copy pipeline hands the categorizer instead of an
/// [`mosaic_darshan::OperationView`].
#[derive(Debug, Clone, Default)]
pub struct ColumnarTrace {
    /// Job wallclock runtime in seconds.
    pub runtime: f64,
    /// Number of processes in the job.
    pub nprocs: u32,
    /// Read operations, in record-extraction order (merging sorts).
    pub reads: OpColumns,
    /// Write operations, in record-extraction order.
    pub writes: OpColumns,
    /// Metadata events, sorted by time.
    pub meta: Vec<MetaEvent>,
    /// Total bytes moved by the surviving records (the dedup weight),
    /// accumulated during extraction so the wire bytes are walked once.
    pub weight: i64,
}

impl ColumnarTrace {
    /// Extract a borrowed trace into the columns, skipping the records the
    /// validity `report` flagged (the zero-copy equivalent of
    /// `delete_invalid` + [`mosaic_darshan::OperationView::from_log`]).
    ///
    /// Extraction order, the per-record op/meta conditions, and the final
    /// stable meta sort mirror `from_log`'s `push_record` exactly.
    pub fn load(&mut self, view: &TraceView<'_>, report: &ValidityReport) {
        self.runtime = view.runtime();
        self.nprocs = view.nprocs;
        self.reads.clear();
        self.writes.clear();
        self.meta.clear();
        let mut bytes_read: i64 = 0;
        let mut bytes_written: i64 = 0;
        let mut bad = report.record_errors.iter().map(|(i, _)| *i).peekable();
        for (i, rec) in view.records().enumerate() {
            if bad.peek() == Some(&i) {
                bad.next();
                continue;
            }
            let ranks = rec.rank_count(self.nprocs);
            if let Some((start, end)) = rec.read_interval() {
                self.reads.push(start, end, nonneg_u64(rec.bytes_read()), ranks);
            }
            if let Some((start, end)) = rec.write_interval() {
                self.writes.push(start, end, nonneg_u64(rec.bytes_written()), ranks);
            }
            let opens = nonneg_u64(rec.get(C::Opens));
            if opens > 0 {
                self.meta.push(MetaEvent {
                    time: rec.getf(F::OpenStartTimestamp),
                    kind: MetaKind::Open,
                    count: opens,
                });
            }
            let seeks = nonneg_u64(rec.get(C::Seeks));
            if seeks > 0 {
                self.meta.push(MetaEvent {
                    time: rec.getf(F::OpenStartTimestamp),
                    kind: MetaKind::Seek,
                    count: seeks,
                });
            }
            let stats = nonneg_u64(rec.get(C::Stats));
            if stats > 0 {
                self.meta.push(MetaEvent {
                    time: rec.getf(F::OpenStartTimestamp),
                    kind: MetaKind::Stat,
                    count: stats,
                });
            }
            let closes = nonneg_u64(rec.get(C::Closes));
            if closes > 0 {
                self.meta.push(MetaEvent {
                    time: rec.getf(F::CloseEndTimestamp),
                    kind: MetaKind::Close,
                    count: closes,
                });
            }
            bytes_read += rec.bytes_read();
            bytes_written += rec.bytes_written();
        }
        self.meta.sort_by(|a, b| a.time.total_cmp(&b.time));
        self.weight = bytes_read + bytes_written;
    }
}

/// Reusable merge scratch space: the sort-index buffer, the merged columns,
/// and a row-op buffer for the (short) post-merge segmentation input.
#[derive(Debug, Clone, Default)]
pub struct MergeScratch {
    idx: Vec<usize>,
    /// Output of the merge passes for the direction most recently processed.
    pub merged: OpColumns,
    /// Row-op materialization of `merged` (filled on demand).
    pub ops: Vec<Operation>,
}

/// A per-thread trace arena: the extracted columnar trace plus the merge
/// scratch. All buffers are owned; `load` + the merge passes only `clear()`
/// them, so steady-state processing allocates nothing per trace.
#[derive(Debug, Clone, Default)]
pub struct TraceArena {
    /// The extracted trace (input side).
    pub trace: ColumnarTrace,
    /// Merge/materialization scratch (working side).
    pub scratch: MergeScratch,
}

impl ColumnarTrace {
    /// Heap bytes held by the trace's column and meta buffers (capacity,
    /// not length).
    pub fn resident_bytes(&self) -> u64 {
        self.reads.resident_bytes().saturating_add(self.writes.resident_bytes()).saturating_add(
            usize_to_u64(self.meta.capacity().saturating_mul(std::mem::size_of::<MetaEvent>())),
        )
    }
}

impl MergeScratch {
    /// Heap bytes held by the scratch buffers (capacity, not length).
    pub fn resident_bytes(&self) -> u64 {
        usize_to_u64(self.idx.capacity().saturating_mul(std::mem::size_of::<usize>()))
            .saturating_add(self.merged.resident_bytes())
            .saturating_add(usize_to_u64(
                self.ops.capacity().saturating_mul(std::mem::size_of::<Operation>()),
            ))
    }
}

impl TraceArena {
    /// Total heap bytes resident in this arena — what one worker's
    /// steady-state trace processing keeps allocated.
    pub fn resident_bytes(&self) -> u64 {
        self.trace.resident_bytes().saturating_add(self.scratch.resident_bytes())
    }
}

/// Concurrent merging on columns: one stable index sort by `(start, end)`,
/// then a fuse-or-push walk — an operation that starts at or before the
/// last merged operation's end (closed intervals) fuses into it. The result
/// lands in `scratch.merged`.
pub fn merge_concurrent_columnar(input: &OpColumns, scratch: &mut MergeScratch) {
    scratch.idx.clear();
    scratch.idx.extend(0..input.len());
    scratch.idx.sort_by(|&a, &b| {
        // lint: allow(panic, "sort indices range over 0..input.len()")
        (input.starts[a].total_cmp(&input.starts[b])).then(input.ends[a].total_cmp(&input.ends[b]))
    });
    scratch.merged.clear();
    for &i in &scratch.idx {
        let op = input.op(i);
        let n = scratch.merged.len();
        // lint: allow(panic, "n - 1 < merged.len() when n > 0")
        if n > 0 && op.0 <= scratch.merged.ends[n - 1] {
            scratch.merged.fuse(n - 1, op);
        } else {
            scratch.merged.push(op.0, op.1, op.2, op.3);
        }
    }
}

/// Neighbor merging on columns, in place, as a two-pointer compaction:
/// an operation fuses into the previous merged one when the gap between
/// them is at most `max(neighbor_gap_runtime_frac · runtime,
/// neighbor_gap_op_frac · duration(previous merged op))`.
///
/// Expects concurrent-merged (sorted, non-overlapping) input.
pub fn merge_neighbors_columnar(cols: &mut OpColumns, runtime: f64, config: &CategorizerConfig) {
    let runtime_gap = config.neighbor_gap_runtime_frac * runtime.max(0.0);
    let mut w = 0usize; // cols[..w] is the merged prefix
    for i in 0..cols.len() {
        let op = cols.op(i);
        if w == 0 {
            cols.set(0, op);
            w = 1;
            continue;
        }
        let (last_start, last_end, _, _) = cols.op(w - 1);
        let gap = op.0 - last_end;
        let op_gap = config.neighbor_gap_op_frac * (last_end - last_start);
        if gap <= runtime_gap.max(op_gap) {
            cols.fuse(w - 1, op);
        } else {
            cols.set(w, op);
            w += 1;
        }
    }
    cols.truncate(w);
}

/// Both merge passes for one direction, the full §III-B2 pre-processing.
/// The result is `scratch.merged`.
pub fn merge_all_columnar(
    input: &OpColumns,
    runtime: f64,
    config: &CategorizerConfig,
    scratch: &mut MergeScratch,
) {
    merge_concurrent_columnar(input, scratch);
    merge_neighbors_columnar(&mut scratch.merged, runtime, config);
}

/// Apportion bytes over `chunks` equal time chunks of `[0, runtime]`,
/// streaming the three column arrays. Each operation's bytes are spread
/// uniformly over its (window-clipped) interval.
pub fn chunk_volumes_columnar(cols: &OpColumns, runtime: f64, chunks: usize) -> Vec<f64> {
    let mut sums = vec![0.0; chunks];
    if runtime <= 0.0 || chunks == 0 {
        return sums;
    }
    let width = runtime / chunks as f64;
    for i in 0..cols.len() {
        let (op_start, op_end, op_bytes, _) = cols.op(i);
        if op_bytes == 0 {
            continue;
        }
        // Ops entirely outside the job window carry no in-window bytes;
        // apportioning them would dump phantom volume into an edge chunk.
        if op_start > runtime || op_end < 0.0 {
            continue;
        }
        let s = op_start.max(0.0);
        let e = op_end.min(runtime).max(s);
        if e <= s {
            // Instantaneous operation: all bytes in its containing chunk.
            // lint: allow(cast, "f64-to-usize `as` saturates; s >= 0 and min(chunks - 1) clamps above")
            let c = ((s / width) as usize).min(chunks - 1);
            // lint: allow(panic, "c is clamped to chunks - 1 == sums.len() - 1")
            sums[c] += op_bytes as f64;
            continue;
        }
        let density = op_bytes as f64 / (e - s);
        // lint: allow(cast, "f64-to-usize `as` saturates; s >= 0 and min(chunks - 1) clamps above")
        let first = ((s / width) as usize).min(chunks - 1);
        // lint: allow(cast, "f64-to-usize `as` saturates; e >= s >= 0 and min(chunks - 1) clamps above")
        let last = ((e / width) as usize).min(chunks - 1);
        #[allow(clippy::needless_range_loop)] // index math over a time window
        for c in first..=last {
            let lo = s.max(c as f64 * width);
            let hi = e.min((c + 1) as f64 * width);
            if hi > lo {
                // lint: allow(panic, "c <= last, which is clamped to chunks - 1 == sums.len() - 1")
                sums[c] += density * (hi - lo);
            }
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::merge_all;
    use mosaic_darshan::job::JobHeader;
    use mosaic_darshan::log::TraceLogBuilder;
    use mosaic_darshan::mdf;
    use mosaic_darshan::ops::OperationView;
    use mosaic_darshan::validate;
    use mosaic_darshan::view::{validate_view, TraceView};

    fn cfg() -> CategorizerConfig {
        CategorizerConfig::default()
    }

    #[test]
    fn empty_trace_columns() {
        let cols = OpColumns::default();
        let mut scratch = MergeScratch::default();
        merge_all_columnar(&cols, 100.0, &cfg(), &mut scratch);
        assert!(scratch.merged.is_empty());
        assert_eq!(chunk_volumes_columnar(&cols, 100.0, 4), vec![0.0; 4]);
    }

    // ---- extraction agreement ----

    #[test]
    fn load_matches_from_log_extraction_and_weight() {
        let mut b = TraceLogBuilder::new(JobHeader::new(7, 3, 8, 0, 1000).with_exe("/bin/sim"));
        let r = b.begin_record("/in", -1);
        b.record_mut(r)
            .set(C::Reads, 8)
            .set(C::BytesRead, 800)
            .set(C::Opens, 8)
            .set(C::Seeks, 16)
            .set(C::Closes, 8)
            .setf(F::OpenStartTimestamp, 1.0)
            .setf(F::ReadStartTimestamp, 2.0)
            .setf(F::ReadEndTimestamp, 4.0)
            .setf(F::CloseEndTimestamp, 5.0);
        let w = b.begin_record("/out", 3);
        b.record_mut(w)
            .set(C::Writes, 1)
            .set(C::BytesWritten, 300)
            .set(C::Stats, 2)
            .setf(F::OpenStartTimestamp, 900.0)
            .setf(F::WriteStartTimestamp, 901.0)
            .setf(F::WriteEndTimestamp, 950.0);
        let bad = b.begin_record("/bad", 0);
        b.record_mut(bad).set(C::BytesRead, -5); // sanitized away
        let log = b.finish();
        let bytes = mdf::to_bytes(&log);

        // Row-fed: validate, delete, extract.
        let report = validate::validate(&log);
        let mut sanitized = log.clone();
        validate::delete_invalid(&mut sanitized, &report);
        let view_owned = OperationView::from_log(&sanitized);

        // Wire-fed: borrowed view, same report, extract.
        let tv = TraceView::parse(&bytes).unwrap();
        let vreport = validate_view(&tv);
        assert_eq!(vreport, report);
        let mut trace = ColumnarTrace::default();
        trace.load(&tv, &vreport);

        assert_eq!(trace.runtime, view_owned.runtime);
        assert_eq!(trace.nprocs, view_owned.nprocs);
        assert_eq!(trace.meta, view_owned.meta);
        assert_eq!(trace.weight, sanitized.io_weight());
        // Columns are in extraction order; the row view is start-sorted.
        // Compare through the merge, which sorts both the same way.
        let mut scratch = MergeScratch::default();
        merge_all_columnar(&trace.reads, trace.runtime, &cfg(), &mut scratch);
        let mut merged_cols = Vec::new();
        scratch.merged.materialize(OpKind::Read, &mut merged_cols);
        assert_eq!(merged_cols, merge_all(&view_owned.reads, view_owned.runtime, &cfg()));
        merge_all_columnar(&trace.writes, trace.runtime, &cfg(), &mut scratch);
        let mut merged_w = Vec::new();
        scratch.merged.materialize(OpKind::Write, &mut merged_w);
        assert_eq!(merged_w, merge_all(&view_owned.writes, view_owned.runtime, &cfg()));
    }

    #[test]
    fn arena_reuse_is_clean_across_traces() {
        // Load a big trace, then a small one: no state may leak through.
        let mut arena = TraceArena::default();
        let mk = |n: usize| {
            let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 4, 0, 100).with_exe("/bin/x"));
            for i in 0..n {
                let r = b.begin_record(&format!("/f{i}"), 0);
                b.record_mut(r)
                    .set(C::Reads, 1)
                    .set(C::BytesRead, 10)
                    .setf(F::ReadStartTimestamp, 1.0 + i as f64)
                    .setf(F::ReadEndTimestamp, 1.5 + i as f64);
            }
            mdf::to_bytes(&b.finish())
        };
        let big = mk(40);
        let small = mk(2);

        let tv = TraceView::parse(&big).unwrap();
        arena.trace.load(&tv, &validate_view(&tv));
        assert_eq!(arena.trace.reads.len(), 40);

        let tv = TraceView::parse(&small).unwrap();
        arena.trace.load(&tv, &validate_view(&tv));
        assert_eq!(arena.trace.reads.len(), 2);
        assert!(arena.trace.writes.is_empty());
        assert!(arena.trace.meta.is_empty());

        // Fresh-load equals arena-reuse load.
        let mut fresh = ColumnarTrace::default();
        let tv = TraceView::parse(&small).unwrap();
        fresh.load(&tv, &validate_view(&tv));
        assert_eq!(arena.trace.reads, fresh.reads);
        assert_eq!(arena.trace.weight, fresh.weight);
    }
}
