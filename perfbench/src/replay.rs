//! The traced replay: every trace of a corpus, sequentially, through the
//! layers' public functions in pipeline order, with a span around each call.
//!
//! Spans are recorded from the benchmark's own code, around the calls into
//! each layer; nothing inside the program is instrumented. They are held in
//! memory and written out once, at the end of the run.
//!
//! The replay is also the benchmark's per-trace reference: it yields each
//! trace's fate and a category set assembled from the sub-layer outputs,
//! which the pipeline's own results must equal (see [`fidelity`]).

use mosaic_core::category::{Category, OpKindTag, TemporalityLabel};
use mosaic_core::columnar::{self, MergeScratch, TraceArena};
use mosaic_core::metadata::{self, MetadataResult};
use mosaic_core::periodicity::{detect_periodic, PeriodicPattern};
use mosaic_core::segment::segment;
use mosaic_core::temporality;
use mosaic_core::{Categorizer, CategorizerConfig, TraceReport};
use mosaic_darshan::view::validate_view;
use mosaic_darshan::{EvictReason, OpKind, TraceView};
use std::collections::BTreeSet;
use std::time::Instant;

/// A layer of the program, as named in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's per-trace root span.
    Trace,
    /// `TraceView::parse`.
    Parse,
    /// `view::validate_view`.
    Validate,
    /// `columnar::ColumnarTrace::load`.
    Load,
    /// `columnar::merge_all_columnar`, once per direction.
    Merge,
    /// `temporality::characterize_columnar`, once per direction.
    Temporality,
    /// `segment::segment`, per significant direction.
    Segment,
    /// `periodicity::detect_periodic`, per significant direction.
    Periodicity,
    /// `metadata::characterize`.
    Metadata,
    /// `Categorizer::categorize_arena_timed`.
    Categorize,
    /// `executor::process`, once per corpus.
    Executor,
    /// The three analyze tables after the fan-out.
    Aggregate,
    /// `IncrementalAnalyzer::ingest`, per trace.
    Incremental,
}

impl Layer {
    /// Every layer, in span-file order.
    pub const ALL: [Layer; 13] = [
        Layer::Trace,
        Layer::Parse,
        Layer::Validate,
        Layer::Load,
        Layer::Merge,
        Layer::Temporality,
        Layer::Segment,
        Layer::Periodicity,
        Layer::Metadata,
        Layer::Categorize,
        Layer::Executor,
        Layer::Aggregate,
        Layer::Incremental,
    ];

    /// The layer's module-style name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Trace => "bench.trace",
            Layer::Parse => "darshan.parse",
            Layer::Validate => "darshan.validate",
            Layer::Load => "core.load",
            Layer::Merge => "core.merge",
            Layer::Temporality => "core.temporality",
            Layer::Segment => "core.segment",
            Layer::Periodicity => "core.periodicity",
            Layer::Metadata => "core.metadata",
            Layer::Categorize => "core.categorize",
            Layer::Executor => "pipeline.executor",
            Layer::Aggregate => "pipeline.aggregate",
            Layer::Incremental => "pipeline.incremental",
        }
    }

    /// What the span's two exact work counts mean for this layer.
    pub fn count_names(self) -> [&'static str; 2] {
        match self {
            Layer::Parse => ["wire_bytes", "rejected"],
            Layer::Validate => ["fatal", "records_dropped"],
            Layer::Load => ["ops", "meta_events"],
            Layer::Merge => ["ops_in", "ops_out"],
            Layer::Segment => ["segments", "-"],
            Layer::Periodicity => ["pair_work", "patterns"],
            Layer::Metadata => ["bins", "events"],
            Layer::Executor | Layer::Aggregate => ["traces", "-"],
            Layer::Incremental => ["valid", "-"],
            Layer::Trace | Layer::Temporality | Layer::Categorize => ["-", "-"],
        }
    }
}

/// One recorded span. `trace` identifies the input trace (`u32::MAX` for
/// corpus-level spans); `parent` is the index of the enclosing span in the
/// recorder, or `u32::MAX` for a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// The input trace.
    pub trace: u32,
    /// Index of the enclosing span.
    pub parent: u32,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Exact work counts; meanings per [`Layer::count_names`].
    pub counts: [u64; 2],
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span buffer.
pub struct Recorder {
    epoch: Instant,
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
}

/// No enclosing span / no input trace.
pub const NONE: u32 = u32::MAX;

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index for [`Recorder::close`].
    pub fn open(&mut self, layer: Layer, trace: u32, parent: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span { layer, trace, parent, start_ns, end_ns: start_ns, counts: [0; 2] });
        (self.spans.len() - 1) as u32
    }

    /// Close span `id` with its work counts.
    pub fn close(&mut self, id: u32, counts: [u64; 2]) {
        let end_ns = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.counts = counts;
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        layer: Layer,
        trace: u32,
        parent: u32,
        f: impl FnOnce() -> T,
        counts: impl FnOnce(&T) -> [u64; 2],
    ) -> T {
        let id = self.open(layer, trace, parent);
        let out = f();
        let c = counts(&out);
        self.close(id, c);
        out
    }

    /// Self time of every span: its duration minus the part of it that its
    /// child spans cover (children of one parent never overlap here).
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NONE {
                covered[span.parent as usize] += span.duration_ns();
            }
        }
        self.spans.iter().zip(covered).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
    }

    /// The span file: one JSON document, spans as arrays
    /// `[layer, trace, parent, start_ns, end_ns, self_ns, count0, count1]`.
    pub fn to_json(&self, header: &str) -> String {
        let self_ns = self.self_times();
        let mut out = String::with_capacity(64 + self.spans.len() * 48);
        out.push_str(&format!("{{{header},\"layers\":["));
        for (i, layer) in Layer::ALL.iter().enumerate() {
            let [a, b] = layer.count_names();
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!(
                "{sep}{{\"name\":\"{}\",\"counts\":[\"{a}\",\"{b}\"]}}",
                layer.name()
            ));
        }
        out.push_str("],\"fields\":[\"layer\",\"trace\",\"parent\",\"start_ns\",\"end_ns\",\"self_ns\",\"count0\",\"count1\"],\"spans\":[\n");
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let layer = Layer::ALL.iter().position(|l| *l == s.layer).unwrap_or(0);
            let trace = if s.trace == NONE { -1 } else { i64::from(s.trace) };
            let parent = if s.parent == NONE { -1 } else { i64::from(s.parent) };
            let sep = if i == 0 { "" } else { ",\n" };
            out.push_str(&format!(
                "{sep}[{layer},{trace},{parent},{},{},{own},{},{}]",
                s.start_ns, s.end_ns, s.counts[0], s.counts[1]
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// What the replay found for one trace.
#[derive(Debug, Clone, PartialEq)]
pub enum Replayed {
    /// Evicted by `darshan.parse` or `darshan.validate`, with the typed reason.
    Evicted(EvictReason),
    /// Categorized: the sub-layer outputs, and the real categorizer's report
    /// on the same loaded trace.
    Valid(Box<SubLayers>, Box<TraceReport>),
}

/// The sub-layer outputs of one valid trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SubLayers {
    /// Temporality label per direction (read, write).
    pub temporality: [TemporalityLabel; 2],
    /// Periodic patterns per direction (read, write).
    pub periodic: [Vec<PeriodicPattern>; 2],
    /// Metadata verdict.
    pub metadata: MetadataResult,
    /// The category set the sub-layer outputs imply.
    pub categories: BTreeSet<Category>,
}

/// Replay a corpus, recording spans into `rec`.
pub fn replay(corpus: &crate::corpus::Corpus, rec: &mut Recorder) -> Vec<Replayed> {
    let config = CategorizerConfig::default();
    let categorizer = Categorizer::new(config.clone());
    let mut arena = TraceArena::default();
    let mut scratch = MergeScratch::default();
    let mut out = Vec::with_capacity(corpus.len());
    for i in 0..corpus.len() {
        let t = i as u32;
        let root = rec.open(Layer::Trace, t, NONE);
        let bytes = corpus.bytes(i);
        let parsed = rec.time(
            Layer::Parse,
            t,
            root,
            || TraceView::parse(bytes),
            |r| [bytes.len() as u64, u64::from(r.is_err())],
        );
        let view = match parsed {
            Ok(view) => view,
            Err(err) => {
                rec.close(root, [0; 2]);
                out.push(Replayed::Evicted(EvictReason::from(&err)));
                continue;
            }
        };
        let report = rec.time(
            Layer::Validate,
            t,
            root,
            || validate_view(&view),
            |r| [u64::from(r.is_fatal()), r.record_errors.len() as u64],
        );
        if report.is_fatal() {
            rec.close(root, [0; 2]);
            out.push(Replayed::Evicted(report.evict_reason()));
            continue;
        }
        let id = rec.open(Layer::Load, t, root);
        arena.trace.load(&view, &report);
        let tr = &arena.trace;
        rec.close(id, [(tr.reads.len() + tr.writes.len()) as u64, tr.meta.len() as u64]);
        let sub = sub_layers(&arena.trace, &config, &mut scratch, rec, t, root);
        let (report, _) = rec.time(
            Layer::Categorize,
            t,
            root,
            || categorizer.categorize_arena_timed(&mut arena),
            |_| [0; 2],
        );
        rec.close(root, [0; 2]);
        out.push(Replayed::Valid(Box::new(sub), Box::new(report)));
    }
    out
}

/// The categorizer's steps one by one, mirroring
/// `Categorizer::categorize_arena_timed` (periodicity by Mean Shift, the
/// default method).
fn sub_layers(
    trace: &columnar::ColumnarTrace,
    config: &CategorizerConfig,
    scratch: &mut MergeScratch,
    rec: &mut Recorder,
    t: u32,
    root: u32,
) -> SubLayers {
    let runtime = trace.runtime;
    let mut categories = BTreeSet::new();
    let mut temporality = [TemporalityLabel::Insignificant; 2];
    let mut periodic: [Vec<PeriodicPattern>; 2] = [Vec::new(), Vec::new()];
    for (d, (kind, raw)) in
        [(OpKind::Read, &trace.reads), (OpKind::Write, &trace.writes)].into_iter().enumerate()
    {
        let tag = OpKindTag::from(kind);
        let id = rec.open(Layer::Merge, t, root);
        columnar::merge_all_columnar(raw, runtime, config, scratch);
        rec.close(id, [raw.len() as u64, scratch.merged.len() as u64]);
        let result = rec.time(
            Layer::Temporality,
            t,
            root,
            || temporality::characterize_columnar(&scratch.merged, runtime, config),
            |_| [0; 2],
        );
        temporality[d] = result.label;
        categories.insert(Category::Temporality { kind: tag, label: result.label });
        if result.label == TemporalityLabel::Insignificant {
            continue;
        }
        scratch.merged.materialize(kind, &mut scratch.ops);
        let segments = rec.time(
            Layer::Segment,
            t,
            root,
            || segment(&scratch.ops, runtime),
            |s| [s.len() as u64, 0],
        );
        let n = segments.len() as u64;
        let patterns = rec.time(
            Layer::Periodicity,
            t,
            root,
            || detect_periodic(&segments, config),
            |p| [n * n, p.len() as u64],
        );
        if !patterns.is_empty() {
            categories.insert(Category::Periodic { kind: tag });
        }
        for p in &patterns {
            categories.insert(Category::PeriodicMagnitude { kind: tag, magnitude: p.magnitude });
            categories.insert(if p.is_low_busy(config.busy_time_split) {
                Category::PeriodicLowBusyTime { kind: tag }
            } else {
                Category::PeriodicHighBusyTime { kind: tag }
            });
        }
        periodic[d] = patterns;
    }
    let bins = (runtime.ceil() as u64).max(1);
    let events = trace.meta.len() as u64;
    let metadata = rec.time(
        Layer::Metadata,
        t,
        root,
        || metadata::characterize(&trace.meta, runtime, trace.nprocs, config),
        |_| [bins, events],
    );
    for label in &metadata.labels {
        categories.insert(Category::Metadata(*label));
    }
    SubLayers { temporality, periodic, metadata, categories }
}

/// Do the sub-layer outputs explain `report`? Returns the first axis that
/// disagrees: temporality label per direction, periodic pattern count and
/// periods, metadata labels, or the category set.
pub fn fidelity(sub: &SubLayers, report: &TraceReport) -> Result<(), &'static str> {
    let dirs = [&report.read, &report.write];
    for d in 0..2 {
        if dirs[d].temporality.label != sub.temporality[d] {
            return Err(["read temporality", "write temporality"][d]);
        }
        let got: Vec<u64> = dirs[d].periodic.iter().map(|p| p.period.to_bits()).collect();
        let want: Vec<u64> = sub.periodic[d].iter().map(|p| p.period.to_bits()).collect();
        if got != want {
            return Err(["read periodic patterns", "write periodic patterns"][d]);
        }
    }
    if report.metadata.labels != sub.metadata.labels {
        return Err("metadata labels");
    }
    if report.categories != sub.categories {
        return Err("category set");
    }
    Ok(())
}
