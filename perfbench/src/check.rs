//! Output checking: per-trace verdicts, the committed reference, accuracy
//! against the generator's labels, and the workload property checks.

use crate::corpus::{Label, Workload};
use crate::replay::{fidelity, Replayed};
use mosaic_core::TraceReport;
use mosaic_pipeline::PipelineResult;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The seed whose per-trace reference is committed under `reference/`.
pub const DEFAULT_SEED: u64 = 1;

/// Verdict tokens per line of a reference file.
const VERDICTS_PER_LINE: usize = 50;

/// One trace's fate: valid with its category names, or evicted with the
/// typed reason's slug.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Survived the funnel; canonical category names, comma-joined.
    Valid(String),
    /// Evicted; the reason slug.
    Evicted(String),
}

impl Verdict {
    /// The verdict a pipeline report implies.
    pub fn of_report(report: &TraceReport) -> Verdict {
        Verdict::Valid(report.names().join(","))
    }

    /// The replay's verdict, with the category set the sub-layers imply.
    pub fn of_replay(r: &Replayed) -> Verdict {
        match r {
            Replayed::Evicted(reason) => Verdict::Evicted(reason.slug()),
            Replayed::Valid(sub, _) => Verdict::Valid(
                sub.categories.iter().map(|c| c.name()).collect::<Vec<_>>().join(","),
            ),
        }
    }
}

/// The committed per-trace reference of one workload at [`DEFAULT_SEED`].
pub struct Reference {
    /// Digest of the corpus it was recorded on.
    pub corpus_digest: u64,
    /// `ResultSnapshot` digest of the batch run.
    pub snapshot_digest: u64,
    /// One verdict per trace.
    pub verdicts: Vec<Verdict>,
}

/// Where a workload's reference lives. `online_stream` replays the
/// `year_mix` corpus, so it shares that reference.
pub fn reference_path(workload: Workload) -> PathBuf {
    let name = match workload {
        Workload::OnlineStream => Workload::YearMix.name(),
        w => w.name(),
    };
    PathBuf::from("perfbench/reference").join(format!("{name}.txt"))
}

impl Reference {
    /// Render the reference file: a header, the distinct category sets and
    /// reasons as numbered tables, then one token per trace in trace order
    /// (`v<k>` for a valid trace with set `k`, `e<k>` for an eviction with
    /// reason `k`), [`VERDICTS_PER_LINE`] to a line.
    pub fn render(&self, workload: Workload) -> String {
        let mut sets: BTreeMap<&str, usize> = BTreeMap::new();
        let mut reasons: BTreeMap<&str, usize> = BTreeMap::new();
        for v in &self.verdicts {
            let (table, key) = match v {
                Verdict::Valid(s) => (&mut sets, s.as_str()),
                Verdict::Evicted(s) => (&mut reasons, s.as_str()),
            };
            let next = table.len();
            table.entry(key).or_insert(next);
        }
        let mut out = String::new();
        let _ = writeln!(out, "# mosaic-perfbench per-trace reference; regenerate with --bless");
        let _ = writeln!(out, "workload {}", workload.name());
        let _ = writeln!(out, "seed {DEFAULT_SEED}");
        let _ = writeln!(out, "traces {}", self.verdicts.len());
        let _ = writeln!(out, "corpus_digest {:016x}", self.corpus_digest);
        let _ = writeln!(out, "snapshot_digest {:016x}", self.snapshot_digest);
        for (table, tag) in [(&sets, "set"), (&reasons, "reason")] {
            let mut rows: Vec<(&usize, &&str)> = table.iter().map(|(k, v)| (v, k)).collect();
            rows.sort();
            for (id, name) in rows {
                let _ = writeln!(out, "{tag} {id} {name}");
            }
        }
        for row in self.verdicts.chunks(VERDICTS_PER_LINE) {
            let tokens: Vec<String> = row
                .iter()
                .map(|v| match v {
                    Verdict::Valid(s) => format!("v{}", sets[s.as_str()]),
                    Verdict::Evicted(s) => format!("e{}", reasons[s.as_str()]),
                })
                .collect();
            let _ = writeln!(out, "{}", tokens.join(" "));
        }
        out
    }

    /// Parse a reference file; `None` if it is absent or malformed.
    pub fn parse(text: &str) -> Option<Reference> {
        let mut corpus_digest = None;
        let mut snapshot_digest = None;
        let mut sets: BTreeMap<usize, String> = BTreeMap::new();
        let mut reasons: BTreeMap<usize, String> = BTreeMap::new();
        let mut verdicts = Vec::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            if line.starts_with(['v', 'e'])
                && line.as_bytes().get(1).is_some_and(u8::is_ascii_digit)
            {
                for token in line.split(' ') {
                    let id = token.get(1..)?.parse::<usize>().ok()?;
                    verdicts.push(match token.as_bytes().first()? {
                        b'v' => Verdict::Valid(sets.get(&id)?.clone()),
                        b'e' => Verdict::Evicted(reasons.get(&id)?.clone()),
                        _ => return None,
                    });
                }
                continue;
            }
            let mut words = line.splitn(3, ' ');
            match (words.next()?, words.next(), words.next()) {
                ("corpus_digest", Some(d), None) => corpus_digest = u64::from_str_radix(d, 16).ok(),
                ("snapshot_digest", Some(d), None) => {
                    snapshot_digest = u64::from_str_radix(d, 16).ok()
                }
                ("set", Some(id), Some(names)) => {
                    sets.insert(id.parse::<usize>().ok()?, names.to_owned());
                }
                ("set", Some(id), None) => {
                    sets.insert(id.parse::<usize>().ok()?, String::new());
                }
                ("reason", Some(id), Some(slug)) => {
                    reasons.insert(id.parse::<usize>().ok()?, slug.to_owned());
                }
                ("workload" | "seed" | "traces", Some(_), None) => {}
                _ => return None,
            }
        }
        Some(Reference {
            corpus_digest: corpus_digest?,
            snapshot_digest: snapshot_digest?,
            verdicts,
        })
    }
}

/// Everything a run found wrong.
#[derive(Default)]
pub struct Findings {
    /// Indices of traces whose fate, reason or category set differs from
    /// the expected verdict, or whose replay disagrees with the pipeline.
    pub failed: BTreeSet<usize>,
    /// Evictions whose reason does not match the expected reason counts
    /// (batch runs report reasons only as totals).
    pub reason_mismatches: usize,
    /// Run-level problems (non-determinism, property checks, digests).
    pub problems: Vec<String>,
}

impl Findings {
    /// Number of failed traces.
    pub fn failed_count(&self) -> usize {
        self.failed.len() + self.reason_mismatches
    }

    /// Record a run-level problem.
    pub fn problem(&mut self, message: String) {
        if self.problems.len() < 20 {
            eprintln!("perfbench: {message}");
        }
        self.problems.push(message);
    }

    /// Flag trace `i`, printing the first few.
    pub fn fail(&mut self, i: usize, what: &str) {
        if self.failed.insert(i) && self.failed.len() <= 10 {
            eprintln!("perfbench: trace {i}: {what}");
        }
    }
}

/// Check a batch result against the expected verdicts and the replay.
pub fn check_batch(
    result: &PipelineResult,
    expected: &[Verdict],
    replayed: &[Replayed],
    findings: &mut Findings,
) {
    let mut valid = vec![None; expected.len()];
    for o in &result.outcomes {
        match valid.get_mut(o.index) {
            Some(slot) => *slot = Some(&o.report),
            None => findings.problem(format!("outcome index {} out of range", o.index)),
        }
    }
    let mut want_reasons: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, (want, got)) in expected.iter().zip(&valid).enumerate() {
        match (want, got) {
            (Verdict::Valid(names), Some(report)) => {
                if report.names().join(",") != *names {
                    findings.fail(i, "batch category set differs from the reference");
                }
                check_fidelity(i, &replayed[i], report, findings);
            }
            (Verdict::Evicted(reason), None) => {
                *want_reasons.entry(reason.as_str()).or_default() += 1
            }
            (Verdict::Valid(_), None) => {
                findings.fail(i, "batch evicted a trace the reference keeps")
            }
            (Verdict::Evicted(_), Some(_)) => {
                findings.fail(i, "batch kept a trace the reference evicts")
            }
        }
    }
    let got_reasons: BTreeMap<String, usize> =
        result.funnel.by_reason.iter().map(|(r, n)| (r.slug(), *n)).collect();
    for (reason, want) in want_reasons {
        let got = got_reasons.get(reason).copied().unwrap_or(0);
        findings.reason_mismatches += want.saturating_sub(got);
    }
}

/// Check one stream pass's per-trace verdicts and reports.
pub fn check_stream(
    got: &[Verdict],
    reports: &[Option<TraceReport>],
    expected: &[Verdict],
    replayed: &[Replayed],
    findings: &mut Findings,
) {
    for (i, (want, got)) in expected.iter().zip(got).enumerate() {
        if want != got {
            findings
                .fail(i, &format!("stream verdict {got:?} differs from the reference {want:?}"));
        }
        if let Some(report) = &reports[i] {
            check_fidelity(i, &replayed[i], report, findings);
        }
    }
}

fn check_fidelity(i: usize, replayed: &Replayed, report: &TraceReport, findings: &mut Findings) {
    match replayed {
        Replayed::Valid(sub, categorized) => {
            if let Err(axis) = fidelity(sub, report) {
                findings
                    .fail(i, &format!("replay sub-layers disagree with the pipeline on {axis}"));
            }
            if **categorized != *report {
                findings
                    .fail(i, "replayed categorize_arena_timed report differs from the pipeline's");
            }
        }
        Replayed::Evicted(reason) => findings
            .fail(i, &format!("replay evicted ({}) a trace the pipeline kept", reason.slug())),
    }
}

/// Share of traces whose outcome matches the generator's label: a corrupt
/// trace must be evicted, a synth trace's report must match its ground
/// truth on every axis, and a checkpointer must carry a periodic write of
/// the designed period class. Also returns the same share over valid
/// synth traces alone (the definition ROADMAP's 95.5% uses), if any.
pub fn accuracy(labels: &[Label], reports: &[Option<&TraceReport>]) -> (f64, Option<f64>) {
    let mut hits = 0usize;
    let (mut truth_total, mut truth_hits) = (0usize, 0usize);
    for (label, report) in labels.iter().zip(reports) {
        let hit = match (label, report) {
            (Label::Corrupt, None) => true,
            (Label::Corrupt, Some(_)) => false,
            (Label::Truth(truth), report) => {
                truth_total += 1;
                let hit = report.is_some_and(|r| truth.matches(r));
                truth_hits += usize::from(hit);
                hit
            }
            (Label::PeriodicWrite(magnitude), report) => report
                .is_some_and(|r| r.write.periodic.first().map(|p| p.magnitude) == Some(*magnitude)),
        };
        hits += usize::from(hit);
    }
    let valid_only = (truth_total > 0).then(|| truth_hits as f64 / truth_total as f64);
    (hits as f64 / labels.len().max(1) as f64, valid_only)
}

/// The workload property checks: each workload still stresses the layer it
/// exists for. Returns a description of each violation.
pub fn properties(
    workload: Workload,
    evicted_share: f64,
    reports: &[Option<&TraceReport>],
) -> Vec<String> {
    let mut out = Vec::new();
    match workload {
        Workload::YearMix | Workload::OnlineStream => {
            if !(0.28..=0.36).contains(&evicted_share) {
                out.push(format!("year_mix eviction share {evicted_share:.4} is not about 0.32"));
            }
        }
        Workload::HostileFunnel => {
            if evicted_share < 0.99 {
                out.push(format!("hostile_funnel eviction share {evicted_share:.4} is below 0.99"));
            }
        }
        Workload::CheckpointDense => {
            let mut segments: Vec<usize> = reports
                .iter()
                .flatten()
                .filter(|r| {
                    r.write.temporality.label != mosaic_core::TemporalityLabel::Insignificant
                })
                .map(|r| r.write.merged_ops)
                .collect();
            segments.sort_unstable();
            let median = segments.get(segments.len() / 2).copied().unwrap_or(0);
            if !(100..=1000).contains(&median) {
                out.push(format!(
                    "checkpoint_dense median segments per significant write direction is {median}, \
                     outside 100..=1000"
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::replay::{replay, Recorder};
    use mosaic_pipeline::{process, PipelineConfig, VecSource};

    fn run(workload: Workload, n: usize) -> (Corpus, PipelineResult) {
        let corpus = Corpus::generate_n(workload, 3, n);
        let config = PipelineConfig { threads: Some(2), ..Default::default() };
        let result = process(&VecSource::new(corpus.inputs.clone()), &config);
        (corpus, result)
    }

    fn reports(corpus: &Corpus, result: &PipelineResult) -> Vec<Option<TraceReport>> {
        let mut out = vec![None; corpus.len()];
        for o in &result.outcomes {
            out[o.index] = Some(o.report.clone());
        }
        out
    }

    fn violations(workload: Workload, n: usize) -> Vec<String> {
        let (corpus, result) = run(workload, n);
        let share = result.funnel.evicted() as f64 / n as f64;
        let reports = reports(&corpus, &result);
        properties(workload, share, &reports.iter().map(Option::as_ref).collect::<Vec<_>>())
    }

    #[test]
    fn year_mix_evicts_about_a_third() {
        assert_eq!(violations(Workload::YearMix, 2000), Vec::<String>::new());
    }

    #[test]
    fn hostile_funnel_evicts_nearly_everything() {
        assert_eq!(violations(Workload::HostileFunnel, 1000), Vec::<String>::new());
    }

    #[test]
    fn checkpoint_dense_keeps_hundreds_of_write_segments() {
        assert_eq!(violations(Workload::CheckpointDense, 8), Vec::<String>::new());
    }

    #[test]
    fn replay_agrees_with_the_pipeline() {
        for (workload, n) in [(Workload::YearMix, 600), (Workload::CheckpointDense, 4)] {
            let (corpus, result) = run(workload, n);
            let replayed = replay(&corpus, &mut Recorder::new());
            let expected: Vec<Verdict> = replayed.iter().map(Verdict::of_replay).collect();
            let mut findings = Findings::default();
            check_batch(&result, &expected, &replayed, &mut findings);
            assert_eq!(findings.failed_count(), 0, "{}", workload.name());
            assert!(findings.problems.is_empty(), "{:?}", findings.problems);
        }
    }

    #[test]
    fn a_wrong_reference_is_caught() {
        let (corpus, result) = run(Workload::YearMix, 200);
        let replayed = replay(&corpus, &mut Recorder::new());
        let mut expected: Vec<Verdict> = replayed.iter().map(Verdict::of_replay).collect();
        let valid =
            expected.iter().position(|v| matches!(v, Verdict::Valid(_))).expect("a valid trace");
        expected[valid] = Verdict::Valid("read_on_start".into());
        let evicted =
            expected.iter().position(|v| matches!(v, Verdict::Evicted(_))).expect("an eviction");
        expected[evicted] = Verdict::Evicted("no_such_reason".into());
        let mut findings = Findings::default();
        check_batch(&result, &expected, &replayed, &mut findings);
        assert_eq!(findings.failed.iter().copied().collect::<Vec<_>>(), vec![valid]);
        assert_eq!(findings.reason_mismatches, 1);
    }
}
