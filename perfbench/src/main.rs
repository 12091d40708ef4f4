//! mosaic-perfbench: the end-to-end and per-layer benchmark of the MOSAIC
//! pipeline. See `perfbench/README.md` for the workloads, the metrics and
//! how to run it.
//!
//! ```text
//! mosaic-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--span-out <file>] [--bless]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! runs the traced replay and reports the per-layer metrics. Either way the
//! outputs are checked and the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

#![forbid(unsafe_code)]

mod check;
mod corpus;
mod replay;

use check::{Findings, Reference, Verdict, DEFAULT_SEED};
use corpus::{Corpus, Mode, Workload};
use mosaic_core::{CategorizerConfig, TraceReport};
use mosaic_darshan::EvictReason;
use mosaic_pipeline::{
    process, IncrementalAnalyzer, PipelineConfig, PipelineResult, ResultSnapshot, TraceInput,
    VecSource,
};
use replay::{Layer, Recorder, NONE};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of a batch workload's window spent on batch repetitions; the rest
/// goes to closed-loop ingest passes for the latency metrics.
const BATCH_SHARE: f64 = 0.7;
/// Fewest timed batch repetitions, and fewest ingest passes, per run.
const MIN_REPS: usize = 3;
const MIN_PASSES: usize = 3;
/// Repetitions the memory probe runs.
const RSS_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    span_out: Option<PathBuf>,
    bless: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut span_out = None;
    let mut bless = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--span-out" => span_out = Some(PathBuf::from(value()?)),
            "--bless" => bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace, span_out, bless })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--rss-child") {
        return rss_child(&argv[1..]);
    }
    match parse_args(&argv) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("mosaic-perfbench: {e}");
            eprintln!(
                "usage: mosaic-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--span-out <file>] [--bless]",
                Workload::ALL.map(Workload::name).join("|")
            );
            ExitCode::from(2)
        }
    }
}

/// One metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn run(args: &Args) -> ExitCode {
    let workload = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc;
    let mut findings = Findings::default();

    // Set-up: generation, serialization and digesting, several times over.
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut corpus: Option<Corpus> = None;
    for _ in 0..SETUPS {
        let previous = corpus.take().map(|c| c.digest);
        let t = Instant::now();
        let c = Corpus::generate(workload, args.seed);
        setup_times.push(t.elapsed().as_secs_f64());
        if previous.is_some_and(|d| d != c.digest) {
            findings.problem("the same seed generated two different corpora".into());
        }
        corpus = Some(c);
    }
    let corpus = corpus.expect("SETUPS > 0");
    let n = corpus.len();

    // The replay is the per-trace reference for seeds without a committed
    // one, and checks the sub-layers against the pipeline on every seed.
    let mut rec = Recorder::new();
    let Some(replayed) = guarded(|| replay::replay(&corpus, &mut rec)) else {
        findings.problem("the replay panicked".into());
        return finish(&findings, n, n, Vec::new());
    };
    drop(rec);
    let replay_verdicts: Vec<Verdict> = replayed.iter().map(Verdict::of_replay).collect();

    // Every run checks the program against the committed reference: over
    // the whole corpus on the default seed, and over the first traces of the
    // default seed's corpus on any other seed.
    let reference = if args.bless { None } else { load_reference(workload, &mut findings) };
    let reference = reference.and_then(|r| {
        if args.seed != DEFAULT_SEED {
            check_anchor(workload, &r, workers, &mut findings);
            None
        } else if r.corpus_digest != corpus.digest || r.verdicts.len() != n {
            findings.problem("the committed reference was recorded on another corpus".into());
            None
        } else {
            Some(r)
        }
    });
    let expected = reference.as_ref().map_or(&replay_verdicts, |r| &r.verdicts);
    for (i, (got, want)) in replay_verdicts.iter().zip(expected).enumerate() {
        if got != want {
            findings
                .fail(i, &format!("replay verdict {got:?} differs from the reference {want:?}"));
        }
    }

    // Untimed verification runs: one batch, one stream pass with per-trace
    // eviction reasons.
    let source = VecSource::new(corpus.inputs.clone());
    let config = PipelineConfig { threads: Some(workers), ..Default::default() };
    let Some((first, _)) = guarded(|| batch_rep(&source, &config)) else {
        findings.problem("pipeline::process panicked".into());
        return finish(&findings, n, n, Vec::new());
    };
    check::check_batch(&first, expected, &replayed, &mut findings);
    let snapshot = ResultSnapshot::of(&first).digest();
    if let Some(r) = &reference {
        if r.snapshot_digest != snapshot {
            findings.problem(format!(
                "ResultSnapshot digest {snapshot:016x} differs from the reference {:016x}",
                r.snapshot_digest
            ));
        }
    }
    let Some((stream_verdicts, stream_reports, analyzer)) = guarded(|| stream_checked(&corpus))
    else {
        findings.problem("IncrementalAnalyzer::ingest panicked".into());
        return finish(&findings, n, n, Vec::new());
    };
    check::check_stream(&stream_verdicts, &stream_reports, expected, &replayed, &mut findings);
    if *analyzer.all_runs_counts() != first.all_runs_counts() {
        findings.problem("stream and batch all-runs category counts differ".into());
    }
    let reports: Vec<Option<&TraceReport>> = stream_reports.iter().map(Option::as_ref).collect();
    let (accuracy, accuracy_valid) = check::accuracy(&corpus.labels, &reports);
    let evicted_share = first.funnel.evicted() as f64 / n.max(1) as f64;
    for violation in check::properties(workload, evicted_share, &reports) {
        findings.problem(violation);
    }
    drop(reports);
    drop(stream_reports);

    if args.bless {
        return bless(workload, args.seed, &corpus, replay_verdicts, snapshot, &findings);
    }

    let mut info = vec![
        format!("\"workload\":\"{}\"", workload.name()),
        format!("\"seed\":{}", args.seed),
        format!("\"corpus_digest\":\"{:016x}\"", corpus.digest),
        format!("\"traces\":{n}"),
        format!("\"wire_bytes\":{}", corpus.wire_bytes),
        format!("\"workers\":{workers}"),
        format!("\"nproc\":{nproc}"),
        format!("\"cpu\":\"{}\"", cpu_model().replace('"', "'")),
        format!("\"mode\":\"{}\"", if workload.mode() == Mode::Batch { "batch" } else { "stream" }),
        format!("\"trace\":{}", u8::from(args.trace)),
        format!("\"setup_runs\":{SETUPS}"),
        format!("\"snapshot_digest\":\"{snapshot:016x}\""),
        format!("\"evicted_share\":{evicted_share}"),
    ];
    if let Some(a) = accuracy_valid {
        info.push(format!("\"accuracy_valid_only\":{a}"));
    }
    drop(first);

    let window = Duration::from_secs_f64(args.seconds);
    let metrics = if args.trace {
        per_layer(&corpus, &source, &config, window, args, &mut info, &mut findings)
    } else {
        let setup_s = median(&mut setup_times);
        end_to_end(
            &corpus,
            &source,
            &config,
            window,
            snapshot,
            setup_s,
            accuracy,
            &mut info,
            &mut findings,
        )
    };
    let failed = findings.failed_count().min(n);
    info.push(format!("\"error_rate\":{}", failed as f64 / n.max(1) as f64));
    println!("run {{{}}}", info.join(","));
    finish(&findings, n, failed, metrics)
}

/// Traces of the default seed's corpus that runs on other seeds check
/// against the committed reference.
fn anchor_len(workload: Workload) -> usize {
    match workload {
        Workload::CheckpointDense => 8,
        _ => 50 * corpus::MIX_SLICE,
    }
}

fn load_reference(workload: Workload, findings: &mut Findings) -> Option<Reference> {
    let path = check::reference_path(workload);
    let parsed = std::fs::read_to_string(&path).ok().and_then(|t| Reference::parse(&t));
    if parsed.is_none() {
        findings.problem(format!("missing or malformed reference {}", path.display()));
    }
    parsed
}

/// Check the first traces of the default seed's corpus, replayed and run
/// through `pipeline::process`, against the committed reference.
fn check_anchor(
    workload: Workload,
    reference: &Reference,
    workers: usize,
    findings: &mut Findings,
) {
    let k = anchor_len(workload).min(reference.verdicts.len());
    let expected = &reference.verdicts[..k];
    let checked = guarded(|| {
        let anchor = Corpus::prefix(workload, DEFAULT_SEED, k);
        let replayed = replay::replay(&anchor, &mut Recorder::new());
        let config = PipelineConfig { threads: Some(workers), ..Default::default() };
        let result = process(&VecSource::new(anchor.inputs.clone()), &config);
        let mut anchor_findings = Findings::default();
        check::check_batch(&result, expected, &replayed, &mut anchor_findings);
        let replay_misses = replayed
            .iter()
            .map(Verdict::of_replay)
            .zip(expected)
            .filter(|(got, want)| got != *want)
            .count();
        anchor_findings.failed_count() + anchor_findings.problems.len() + replay_misses
    });
    match checked {
        Some(0) => {}
        Some(bad) => findings.problem(format!(
            "{bad} mismatches against the committed reference on the default seed's first {k} traces"
        )),
        None => findings.problem("the reference check panicked".into()),
    }
}

/// Print every metric by name and unit, then the result line.
fn finish(findings: &Findings, attempted: usize, failed: usize, metrics: Vec<Metric>) -> ExitCode {
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    let correct = findings.problems.is_empty() && failed == 0 && !metrics.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The untraced measurement: batch repetitions and/or closed-loop ingest
/// passes for `window`, plus the memory probe.
#[allow(clippy::too_many_arguments)]
fn end_to_end(
    corpus: &Corpus,
    source: &VecSource,
    config: &PipelineConfig,
    window: Duration,
    snapshot: u64,
    setup_s: f64,
    accuracy: f64,
    info: &mut Vec<String>,
    findings: &mut Findings,
) -> Vec<Metric> {
    let n = corpus.len();
    let mode = corpus.workload.mode();
    let peak_rss_mib = match measure_rss(corpus, mode, config.threads.unwrap_or(1)) {
        Ok(kib) => kib as f64 / 1024.0,
        Err(e) => {
            findings.problem(format!("memory probe failed: {e}"));
            0.0
        }
    };

    // Batch repetitions and ingest passes alternate over the whole window,
    // BATCH_SHARE of the time to batch, so both see the same host
    // conditions. Each pass records one latency per trace.
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut passes: Vec<Vec<u64>> = Vec::new();
    let (mut batch_s, mut stream_s) = (0.0, 0.0);
    let mut last = None;
    loop {
        let batch_done = mode == Mode::Stream || walls.len() >= MIN_REPS;
        if batch_done && passes.len() >= MIN_PASSES && start.elapsed() >= window {
            break;
        }
        if mode == Mode::Batch && (!batch_done || batch_s <= BATCH_SHARE * (batch_s + stream_s)) {
            drop(last.take());
            let Some((result, wall)) = guarded(|| batch_rep(source, config)) else {
                findings.problem("pipeline::process panicked".into());
                break;
            };
            batch_s += wall;
            walls.push(wall);
            last = Some(result);
        } else {
            let mut pass = Vec::with_capacity(n);
            let Some(wall) = guarded(|| stream_pass(&corpus.inputs, Some(&mut pass))) else {
                findings.problem("IncrementalAnalyzer::ingest panicked".into());
                break;
            };
            stream_s += wall;
            if mode == Mode::Stream {
                walls.push(wall);
            }
            passes.push(pass);
        }
    }
    if let Some(result) = last {
        if ResultSnapshot::of(&result).digest() != snapshot {
            findings.problem("batch repetitions disagree on the ResultSnapshot digest".into());
        }
    }
    // A trace's latency is its median over the passes, which keeps a burst
    // of interference on the host from moving the percentiles.
    let mut latencies: Vec<u64> = (0..n)
        .map(|i| {
            let mut samples: Vec<f64> =
                passes.iter().filter_map(|p| p.get(i)).map(|&ns| ns as f64).collect();
            median(&mut samples) as u64
        })
        .collect();
    latencies.sort_unstable();
    info.push(format!("\"timed_reps\":{}", walls.len()));
    info.push(format!("\"ingest_passes\":{}", passes.len()));
    info.push(format!("\"ingest_samples\":{}", passes.iter().map(Vec::len).sum::<usize>()));
    let completed = n.saturating_sub(findings.failed_count());
    vec![
        ("traces_per_s".into(), completed as f64 / median(&mut walls), "traces/s"),
        ("ingest_p50_us".into(), percentile(&latencies, 0.50) / 1e3, "us"),
        ("ingest_p99_us".into(), percentile(&latencies, 0.99) / 1e3, "us"),
        ("peak_rss_mib".into(), peak_rss_mib, "MiB"),
        ("setup_s".into(), setup_s, "s"),
        ("accuracy".into(), accuracy, "fraction"),
    ]
}

/// The traced run: the replay plus the executor, aggregate and incremental
/// spans, repeated for `window`; per-layer figures are medians over passes.
fn per_layer(
    corpus: &Corpus,
    source: &VecSource,
    config: &PipelineConfig,
    window: Duration,
    args: &Args,
    info: &mut Vec<String>,
    findings: &mut Findings,
) -> Vec<Metric> {
    let workers = config.threads.unwrap_or(1);
    let start = Instant::now();
    let mut passes: Vec<Vec<Metric>> = Vec::new();
    let mut last = None;
    while passes.is_empty() || start.elapsed() < window {
        let pass = guarded(|| {
            let mut rec = Recorder::new();
            let t = Instant::now();
            black_box(replay::replay(corpus, &mut rec));
            let replay_wall = t.elapsed().as_secs_f64();

            let id = rec.open(Layer::Executor, NONE, NONE);
            let result = process(source, config);
            rec.close(id, [corpus.len() as u64, 0]);
            let id = rec.open(Layer::Aggregate, NONE, NONE);
            black_box((
                result.all_runs_counts(),
                result.single_run_counts(),
                result.jaccard_single_run(),
            ));
            rec.close(id, [result.outcomes.len() as u64, 0]);
            drop(result);

            let mut analyzer = IncrementalAnalyzer::new(CategorizerConfig::default());
            for (i, input) in corpus.inputs.iter().enumerate() {
                let id = rec.open(Layer::Incremental, i as u32, NONE);
                let valid = analyzer.ingest(input.clone()).is_some();
                rec.close(id, [u64::from(valid), 0]);
            }
            let apps = analyzer.apps().len();
            drop(analyzer);
            let plain_wall = stream_pass(&corpus.inputs, None);
            let metrics = layer_metrics(&rec, workers, apps, replay_wall / plain_wall);
            (metrics, rec)
        });
        match pass {
            Some((metrics, rec)) => {
                passes.push(metrics);
                last = Some(rec);
            }
            None => {
                findings.problem("a traced pass panicked".into());
                return Vec::new();
            }
        }
    }
    info.push(format!("\"traced_passes\":{}", passes.len()));
    if let Some(rec) = last {
        let path = args.span_out.clone().unwrap_or_else(|| {
            PathBuf::from(format!("perfbench/out/spans-{}.json", args.workload.name()))
        });
        let header = format!(
            "\"workload\":\"{}\",\"seed\":{},\"corpus_digest\":\"{:016x}\",\"traces\":{}",
            args.workload.name(),
            args.seed,
            corpus.digest,
            corpus.len()
        );
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, rec.to_json(&header)));
        match written {
            Ok(()) => info.push(format!("\"span_file\":\"{}\"", path.display())),
            Err(e) => findings.problem(format!("cannot write {}: {e}", path.display())),
        }
    }
    // Median of each metric over the passes (counts repeat exactly).
    let mut out = passes[0].clone();
    for (k, metric) in out.iter_mut().enumerate() {
        let mut values: Vec<f64> = passes.iter().map(|p| p[k].1).collect();
        metric.1 = median(&mut values);
    }
    out
}

/// Per-layer figures of one traced pass.
fn layer_metrics(rec: &Recorder, workers: usize, apps: usize, overhead: f64) -> Vec<Metric> {
    #[derive(Default, Clone, Copy)]
    struct Sum {
        calls: u64,
        busy_ns: u64,
        c0: u64,
        c1: u64,
        hits: u64,
    }
    let mut sums: BTreeMap<Layer, Sum> = BTreeMap::new();
    for span in &rec.spans {
        let s = sums.entry(span.layer).or_default();
        s.calls += 1;
        s.busy_ns += span.duration_ns();
        s.c0 += span.counts[0];
        s.c1 += span.counts[1];
        s.hits += u64::from(span.counts[1] > 0);
    }
    let get = |l: Layer| sums.get(&l).copied().unwrap_or_default();
    let secs = |l: Layer| get(l).busy_ns as f64 / 1e9;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (parse, validate, load, merge) =
        (get(Layer::Parse), get(Layer::Validate), get(Layer::Load), get(Layer::Merge));
    let (segment, periodicity, metadata) =
        (get(Layer::Segment), get(Layer::Periodicity), get(Layer::Metadata));
    let sub_layers: f64 =
        [Layer::Merge, Layer::Temporality, Layer::Segment, Layer::Periodicity, Layer::Metadata]
            .into_iter()
            .map(secs)
            .sum();
    // The pipeline's own per-trace path: parse, validate, load, categorize.
    let pipeline_busy: f64 =
        [Layer::Parse, Layer::Validate, Layer::Load, Layer::Categorize].into_iter().map(secs).sum();
    let executor_wall = secs(Layer::Executor);
    let m = |name: &str, value: f64, unit: &'static str| (name.to_owned(), value, unit);
    vec![
        m("darshan.parse.calls", parse.calls as f64, "count"),
        m("darshan.parse.busy_s", secs(Layer::Parse), "s"),
        m("darshan.parse.wire_mb", parse.c0 as f64 / 1e6, "MB"),
        m("darshan.parse.reject_ratio", ratio(parse.c1, parse.calls), "fraction"),
        m("darshan.validate.busy_s", secs(Layer::Validate), "s"),
        m("darshan.validate.fatal_ratio", ratio(validate.c0, validate.calls), "fraction"),
        m("darshan.validate.records_dropped", validate.c1 as f64, "count"),
        m("core.load.busy_s", secs(Layer::Load), "s"),
        m("core.load.ops", load.c0 as f64, "count"),
        m("core.merge.busy_s", secs(Layer::Merge), "s"),
        m("core.merge.ops_in", merge.c0 as f64, "count"),
        m("core.merge.ops_out", merge.c1 as f64, "count"),
        m("core.merge.keep_ratio", ratio(merge.c1, merge.c0), "fraction"),
        m("core.temporality.busy_s", secs(Layer::Temporality), "s"),
        m("core.segment.busy_s", secs(Layer::Segment), "s"),
        m("core.segment.segments", segment.c0 as f64, "count"),
        m("core.periodicity.calls", periodicity.calls as f64, "count"),
        m("core.periodicity.busy_s", secs(Layer::Periodicity), "s"),
        m("core.periodicity.pair_work", periodicity.c0 as f64, "count"),
        m("core.periodicity.hit_ratio", ratio(periodicity.hits, periodicity.calls), "fraction"),
        m("core.metadata.busy_s", secs(Layer::Metadata), "s"),
        m("core.metadata.bins", metadata.c0 as f64, "count"),
        m("core.metadata.events", metadata.c1 as f64, "count"),
        m("core.metadata.events_per_bin", ratio(metadata.c1, metadata.c0), "ratio"),
        m("core.categorize.busy_s", secs(Layer::Categorize), "s"),
        m("core.categorize.residual_s", secs(Layer::Categorize) - sub_layers, "s"),
        m("pipeline.executor.wall_s", executor_wall, "s"),
        m(
            "pipeline.executor.parallel_eff",
            pipeline_busy / (executor_wall * workers as f64),
            "fraction",
        ),
        m("pipeline.aggregate.busy_s", secs(Layer::Aggregate), "s"),
        m("pipeline.incremental.calls", get(Layer::Incremental).calls as f64, "count"),
        m("pipeline.incremental.busy_s", secs(Layer::Incremental), "s"),
        m("pipeline.incremental.apps", apps as f64, "count"),
        m("bench.trace_overhead_ratio", overhead, "ratio"),
    ]
}

/// Write the committed reference for the default seed.
fn bless(
    workload: Workload,
    seed: u64,
    corpus: &Corpus,
    verdicts: Vec<Verdict>,
    snapshot_digest: u64,
    findings: &Findings,
) -> ExitCode {
    if seed != DEFAULT_SEED {
        eprintln!("mosaic-perfbench: --bless records the reference of seed {DEFAULT_SEED} only");
        return ExitCode::from(2);
    }
    if !findings.problems.is_empty() || findings.failed_count() > 0 {
        eprintln!("mosaic-perfbench: not blessing a run whose checks failed");
        return ExitCode::FAILURE;
    }
    let reference = Reference { corpus_digest: corpus.digest, snapshot_digest, verdicts };
    let path = check::reference_path(workload);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, reference.render(workload)));
    match written {
        Ok(()) => {
            eprintln!("mosaic-perfbench: wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mosaic-perfbench: cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// One batch repetition: the timed region is input to complete result.
fn batch_rep(source: &VecSource, config: &PipelineConfig) -> (PipelineResult, f64) {
    let t = Instant::now();
    let result = process(source, config);
    black_box((result.all_runs_counts(), result.single_run_counts(), result.jaccard_single_run()));
    (result, t.elapsed().as_secs_f64())
}

/// One closed-loop pass of a single client through
/// `IncrementalAnalyzer::ingest`; returns its wall time and records each
/// call's latency in nanoseconds.
fn stream_pass(inputs: &[TraceInput], mut latencies: Option<&mut Vec<u64>>) -> f64 {
    let mut analyzer = IncrementalAnalyzer::new(CategorizerConfig::default());
    let start = Instant::now();
    for input in inputs {
        let t = Instant::now();
        black_box(analyzer.ingest(input.clone()));
        if let Some(l) = latencies.as_deref_mut() {
            l.push(t.elapsed().as_nanos() as u64);
        }
    }
    start.elapsed().as_secs_f64()
}

/// An ingest pass that also recovers each eviction's typed reason from the
/// analyzer's funnel, for per-trace checking.
fn stream_checked(
    corpus: &Corpus,
) -> (Vec<Verdict>, Vec<Option<TraceReport>>, IncrementalAnalyzer) {
    let mut analyzer = IncrementalAnalyzer::new(CategorizerConfig::default());
    let mut seen: BTreeMap<EvictReason, usize> = BTreeMap::new();
    let mut verdicts = Vec::with_capacity(corpus.len());
    let mut reports = Vec::with_capacity(corpus.len());
    for input in &corpus.inputs {
        match analyzer.ingest(input.clone()) {
            Some(report) => {
                verdicts.push(Verdict::of_report(&report));
                reports.push(Some(report));
            }
            None => {
                let reason = analyzer
                    .funnel()
                    .by_reason
                    .iter()
                    .find(|(r, count)| seen.get(r).copied().unwrap_or(0) != **count)
                    .map(|(r, _)| *r);
                if let Some(r) = reason {
                    *seen.entry(r).or_default() += 1;
                }
                verdicts
                    .push(Verdict::Evicted(reason.map_or("unaccounted".into(), EvictReason::slug)));
                reports.push(None);
            }
        }
    }
    (verdicts, reports, analyzer)
}

/// Peak resident memory of one timed repetition, in KiB, measured in a
/// fresh child process so that neither the held corpus nor the set-up's
/// freed heap counts: the child reads the corpus from a pipe, notes its
/// resident size, runs the repetition and reports the growth of its peak.
fn measure_rss(corpus: &Corpus, mode: Mode, workers: usize) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mode = if mode == Mode::Batch { "batch" } else { "stream" };
    let mut child = Command::new(exe)
        .args(["--rss-child", mode, &workers.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let fed = (|| {
        let mut pipe = BufWriter::new(child.stdin.take().ok_or("no stdin")?);
        pipe.write_all(&(corpus.len() as u64).to_le_bytes()).map_err(|e| e.to_string())?;
        for i in 0..corpus.len() {
            let bytes = corpus.bytes(i);
            pipe.write_all(&(bytes.len() as u64).to_le_bytes()).map_err(|e| e.to_string())?;
            pipe.write_all(bytes).map_err(|e| e.to_string())?;
        }
        pipe.flush().map_err(|e| e.to_string())
    })();
    let output = child.wait_with_output().map_err(|e| e.to_string())?;
    fed?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    text.lines()
        .find_map(|l| l.strip_prefix("peak_kib "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("unexpected child output {text:?}"))
}

/// The memory probe's child side (`--rss-child <batch|stream> <workers>`).
fn rss_child(argv: &[String]) -> ExitCode {
    let (Some(mode), Some(workers)) = (argv.first(), argv.get(1).and_then(|w| w.parse().ok()))
    else {
        return ExitCode::from(2);
    };
    let mut input = BufReader::new(std::io::stdin().lock());
    let mut word = [0u8; 8];
    let mut read_u64 =
        |input: &mut BufReader<_>| input.read_exact(&mut word).map(|()| u64::from_le_bytes(word));
    let Ok(count) = read_u64(&mut input) else { return ExitCode::FAILURE };
    let mut inputs = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let Ok(len) = read_u64(&mut input) else { return ExitCode::FAILURE };
        let mut bytes = vec![0u8; len as usize];
        if input.read_exact(&mut bytes).is_err() {
            return ExitCode::FAILURE;
        }
        inputs.push(TraceInput::bytes(bytes));
    }
    drop(input);
    let Some(base) = status_kib("VmRSS:") else { return ExitCode::FAILURE };
    // Several repetitions: the peak is their upper envelope, which varies
    // less from run to run than one repetition's allocator and thread-stack
    // pattern.
    if mode == "batch" {
        let source = VecSource::new(inputs);
        let config = PipelineConfig { threads: Some(workers), ..Default::default() };
        for _ in 0..RSS_REPS {
            black_box(batch_rep(&source, &config));
        }
    } else {
        for _ in 0..RSS_REPS {
            black_box(stream_pass(&inputs, None));
        }
    }
    let Some(peak) = status_kib("VmHWM:") else { return ExitCode::FAILURE };
    println!("peak_kib {}", peak.saturating_sub(base));
    ExitCode::SUCCESS
}

/// A `kB` field of this process's `/proc/self/status`.
fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Run `f`, turning a panic into `None`.
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

/// Nearest-rank percentile of sorted nanosecond samples.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for w in Workload::ALL {
            let a = Corpus::generate_n(w, 7, 24);
            let b = Corpus::generate_n(w, 7, 24);
            let c = Corpus::generate_n(w, 8, 24);
            assert_eq!(a.digest, b.digest, "{}", w.name());
            assert_ne!(a.digest, c.digest, "{}", w.name());
        }
    }

    #[test]
    fn reference_roundtrips() {
        let verdicts = vec![
            Verdict::Valid("read_on_start,write_insignificant".into()),
            Verdict::Evicted("bad_magic".into()),
            Verdict::Valid(String::new()),
            Verdict::Valid("read_on_start,write_insignificant".into()),
        ];
        let r =
            Reference { corpus_digest: 0xabc, snapshot_digest: 0xdef, verdicts: verdicts.clone() };
        let back = Reference::parse(&r.render(Workload::YearMix)).expect("parses");
        assert_eq!(back.verdicts, verdicts);
        assert_eq!((back.corpus_digest, back.snapshot_digest), (0xabc, 0xdef));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
