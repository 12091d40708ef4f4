//! Differential oracles: independent implementations of the same contract
//! must produce bit-identical results.
//!
//! Three pairings, each run over every standard mini-corpus:
//!
//! * **serial vs parallel** — the batch executor on a 1-thread pool vs
//!   2- and 4-thread pools vs Rayon's global default. Categorization is a
//!   pure per-trace function and aggregation is order-normalized, so the
//!   [`ResultSnapshot`]s must match byte-for-byte;
//! * **batch vs incremental** — the one-shot executor vs the streaming
//!   [`IncrementalAnalyzer`] fed the same traces one at a time. Both route
//!   through the same `ingest_one`, so funnel and both category
//!   distributions must agree exactly;
//! * **MDF roundtrip** — `write → parse → re-write` must be byte-stable for
//!   every parseable trace;
//! * **log source vs bytes source** — a pipeline fed serialized bytes (the
//!   borrowed-view/columnar ingest) must answer exactly like one fed the
//!   decoded logs (validate, delete, row extraction): per corpus, and once
//!   over a 2 000-trace mixed-corruption synthetic sweep;
//! * **traced vs untraced** — a run with structured span tracing enabled
//!   must snapshot byte-identically to one without: the timeline is
//!   observability, never part of the answer;
//! * **metrics on vs off** — a run with the metrics registry enabled must
//!   snapshot byte-identically to one without, and must actually attach a
//!   registry export: gauges, sketches, and eviction counters are
//!   telemetry, never part of the answer.

use crate::VerifyReport;
use mosaic_darshan::mdf;
use mosaic_pipeline::executor::{process, PipelineConfig};
use mosaic_pipeline::source::{TraceInput, VecSource};
use mosaic_pipeline::{IncrementalAnalyzer, ResultSnapshot};
use mosaic_synth::{Dataset, DatasetConfig, MiniCorpus, Payload};

/// A corpus as pipeline inputs, decoded logs passed as logs and corrupt
/// bytes as bytes (the cheapest, most direct representation).
pub fn inputs_of(corpus: &MiniCorpus) -> Vec<TraceInput> {
    (0..corpus.len())
        .map(|i| match corpus.payload(i) {
            Payload::Log(log) => TraceInput::log(log),
            Payload::Bytes(bytes) => TraceInput::bytes(bytes),
        })
        .collect()
}

fn config(threads: Option<usize>) -> PipelineConfig {
    PipelineConfig { threads, ..Default::default() }
}

fn compare(report: &mut VerifyReport, name: String, a: &ResultSnapshot, b: &ResultSnapshot) {
    if a == b {
        report.check(name, true, format!("identical snapshots, digest {:016x}", a.digest()));
    } else {
        report.check(
            name,
            false,
            format!(
                "snapshots diverge: digest {:016x} vs {:016x}\n\
                 funnel lhs {:?}\nfunnel rhs {:?}",
                a.digest(),
                b.digest(),
                a.funnel,
                b.funnel
            ),
        );
    }
}

/// Run every differential oracle, appending one check per comparison.
pub fn run(report: &mut VerifyReport) {
    for corpus in MiniCorpus::standard() {
        let inputs = inputs_of(&corpus);
        let serial =
            ResultSnapshot::of(&process(&VecSource::new(inputs.clone()), &config(Some(1))));

        // Serial vs explicit pools vs the global default.
        for threads in [Some(2), Some(4), None] {
            let parallel =
                ResultSnapshot::of(&process(&VecSource::new(inputs.clone()), &config(threads)));
            let label = match threads {
                Some(n) => format!("{n}-threads"),
                None => "default-pool".to_owned(),
            };
            compare(
                report,
                format!("differential/serial-vs-{label}/{}", corpus.name()),
                &serial,
                &parallel,
            );
        }

        // Batch vs incremental: same traces, one at a time.
        let mut inc = IncrementalAnalyzer::new(Default::default());
        for input in inputs.clone() {
            inc.ingest(input);
        }
        let agrees = inc.funnel() == &serial.funnel
            && inc.all_runs_counts() == &serial.all_runs
            && inc.single_run_counts() == serial.single_run;
        report.check(
            format!("differential/batch-vs-incremental/{}", corpus.name()),
            agrees,
            if agrees {
                format!("funnel + both distributions agree over {} traces", corpus.len())
            } else {
                format!(
                    "streaming diverges from batch\nbatch funnel {:?}\nstream funnel {:?}",
                    serial.funnel,
                    inc.funnel()
                )
            },
        );

        // MDF write → parse → re-write byte stability.
        let mut unstable = Vec::new();
        for (i, log) in corpus.logs() {
            let first = mdf::to_bytes(&log);
            match mdf::from_bytes(&first) {
                Ok(parsed) if parsed == log && mdf::to_bytes(&parsed) == first => {}
                Ok(_) => unstable.push(format!("trace {i}: re-write not byte-identical")),
                Err(err) => unstable.push(format!("trace {i}: own output rejected: {err:?}")),
            }
        }
        report.check(
            format!("differential/mdf-roundtrip-bytes/{}", corpus.name()),
            unstable.is_empty(),
            if unstable.is_empty() {
                format!("{} logs write→parse→re-write byte-stable", corpus.logs().len())
            } else {
                unstable.join("\n")
            },
        );

        // Tracing on vs off: the snapshot may not move by a byte, and the
        // traced run must actually have produced a timeline.
        let traced_config = PipelineConfig { trace_capacity: Some(4096), ..config(Some(2)) };
        let traced_result = process(&VecSource::new(inputs.clone()), &traced_config);
        let has_timeline = traced_result.timeline.is_some();
        let traced = ResultSnapshot::of(&traced_result);
        let untraced =
            ResultSnapshot::of(&process(&VecSource::new(inputs.clone()), &config(Some(2))));
        let identical = traced.to_canonical_json() == untraced.to_canonical_json();
        report.check(
            format!("differential/traced-vs-untraced/{}", corpus.name()),
            identical && has_timeline,
            if identical && has_timeline {
                format!(
                    "snapshots byte-identical with tracing on, digest {:016x}; timeline attached",
                    traced.digest()
                )
            } else if !has_timeline {
                "tracing was requested but no timeline was attached".to_owned()
            } else {
                format!(
                    "tracing perturbed the snapshot: digest {:016x} vs {:016x}",
                    traced.digest(),
                    untraced.digest()
                )
            },
        );

        // Metrics on vs off: the snapshot may not move by a byte, and the
        // metered run must actually have exported a registry.
        let metered_config = PipelineConfig { metrics: true, ..config(Some(2)) };
        let metered_result = process(&VecSource::new(inputs.clone()), &metered_config);
        let has_registry = metered_result.registry.is_some();
        let metered = ResultSnapshot::of(&metered_result);
        let unmetered =
            ResultSnapshot::of(&process(&VecSource::new(inputs.clone()), &config(Some(2))));
        let identical = metered.to_canonical_json() == unmetered.to_canonical_json();
        report.check(
            format!("differential/metrics-on-vs-off/{}", corpus.name()),
            identical && has_registry,
            if identical && has_registry {
                format!(
                    "snapshots byte-identical with metrics on, digest {:016x}; registry exported",
                    metered.digest()
                )
            } else if !has_registry {
                "metrics were requested but no registry export was attached".to_owned()
            } else {
                format!(
                    "metrics perturbed the snapshot: digest {:016x} vs {:016x}",
                    metered.digest(),
                    unmetered.digest()
                )
            },
        );

        // A pipeline fed wire bytes answers exactly like one fed logs.
        let byte_inputs: Vec<TraceInput> =
            (0..corpus.len()).map(|i| TraceInput::bytes(corpus.mdf_bytes(i))).collect();
        let from_bytes =
            ResultSnapshot::of(&process(&VecSource::new(byte_inputs), &config(Some(2))));
        compare(
            report,
            format!("differential/log-source-vs-bytes-source/{}", corpus.name()),
            &serial,
            &from_bytes,
        );
    }

    // The same comparison over a 2 000-trace synthetic sweep (mixed
    // corruption) — the at-scale pin the mini-corpora cannot give. Decoded
    // traces (valid or semantically corrupt) go in as logs on one side and
    // as wire bytes on the other, so `validate` vs `validate_view` and
    // `OperationView::from_log` vs `ColumnarTrace::load` must agree on every
    // one of them; format-corrupt bytes are bytes on both sides.
    let sweep =
        Dataset::new(DatasetConfig { n_traces: 2000, corruption_rate: 0.32, seed: 0xC011A9E });
    let (log_fed, byte_fed): (Vec<TraceInput>, Vec<TraceInput>) = (0..sweep.len())
        .map(|i| match sweep.generate(i).payload {
            Payload::Log(log) => {
                let bytes = mdf::to_bytes(&log);
                (TraceInput::log(log), TraceInput::bytes(bytes))
            }
            Payload::Bytes(bytes) => (TraceInput::bytes(bytes.clone()), TraceInput::bytes(bytes)),
        })
        .unzip();
    let logs = ResultSnapshot::of(&process(&VecSource::new(log_fed), &config(Some(2))));
    let bytes = ResultSnapshot::of(&process(&VecSource::new(byte_fed), &config(Some(2))));
    compare(
        report,
        "differential/log-source-vs-bytes-source/synthetic-2k".to_owned(),
        &logs,
        &bytes,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_differential_oracles_pass() {
        let mut report = VerifyReport::default();
        run(&mut report);
        assert!(report.passed(), "{}", report.render());
        // 8 checks per corpus (3 pool comparisons, incremental, roundtrip,
        // traced-vs-untraced, metrics-on-vs-off, bytes-source) × 3 corpora,
        // plus the 2k-sweep bytes-source check.
        assert_eq!(report.checks.len(), 25);
    }

    #[test]
    fn inputs_match_corpus_length() {
        let corpus = MiniCorpus::standard().remove(0);
        assert_eq!(inputs_of(&corpus).len(), corpus.len());
    }
}
