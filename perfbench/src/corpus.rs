//! Workloads and their seeded corpora of MDF wire bytes.
//!
//! A corpus is generated once, before any timing, from the workload name
//! and the seed alone. The program under test receives only the bytes; the
//! per-trace labels the generator knows (corrupt or not, ground truth) stay
//! on the benchmark's side for the correctness and accuracy checks.

use mosaic_core::PeriodMagnitude;
use mosaic_darshan::mdf;
use mosaic_darshan::synthutil::fnv1a64;
use mosaic_iosim::{FileSpec, MachineConfig, Phase, Program, Simulation};
use mosaic_pipeline::TraceInput;
use mosaic_synth::dataset::YEAR_EPOCH;
use mosaic_synth::{Dataset, DatasetConfig, GroundTruth, Payload};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Traces in the `year_mix`, `hostile_funnel` and `online_stream` corpora.
pub const MIX_TRACES: usize = 40_000;
/// Runs per independently seeded slice of the synth corpora.
pub const MIX_SLICE: usize = 200;
/// Traces in the `checkpoint_dense` corpus.
pub const CHECKPOINT_TRACES: usize = 128;

/// The largest `f64` below 1: `DatasetConfig` requires a rate in `[0, 1)`,
/// and at this rate a run escapes corruption with probability 2^-53.
const ALL_CORRUPT: f64 = 1.0 - f64::EPSILON / 2.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The default Blue-Waters-calibrated mix, 32% corrupt, batch.
    YearMix,
    /// Long-running iosim checkpointers, batch.
    CheckpointDense,
    /// The `year_mix` population with every run corrupted, batch.
    HostileFunnel,
    /// The `year_mix` corpus fed one trace at a time to the incremental
    /// analyzer.
    OnlineStream,
}

/// How a workload drives the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `pipeline::process` over the whole corpus plus the analyze tables.
    Batch,
    /// `IncrementalAnalyzer::ingest` per trace, single client, closed loop.
    Stream,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::YearMix,
        Workload::CheckpointDense,
        Workload::HostileFunnel,
        Workload::OnlineStream,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::YearMix => "year_mix",
            Workload::CheckpointDense => "checkpoint_dense",
            Workload::HostileFunnel => "hostile_funnel",
            Workload::OnlineStream => "online_stream",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How the timed region drives the program.
    pub fn mode(self) -> Mode {
        match self {
            Workload::OnlineStream => Mode::Stream,
            _ => Mode::Batch,
        }
    }
}

/// What the generator knows about one trace.
#[derive(Debug, Clone, PartialEq)]
pub enum Label {
    /// The generator corrupted the trace; the pipeline must evict it.
    Corrupt,
    /// A valid synth trace with its full ground truth.
    Truth(GroundTruth),
    /// A valid checkpointer whose writes repeat with a period of this
    /// magnitude.
    PeriodicWrite(PeriodMagnitude),
}

/// A generated corpus: the program's inputs plus the generator's labels.
pub struct Corpus {
    /// The workload it was generated for.
    pub workload: Workload,
    /// One wire-byte input per trace.
    pub inputs: Vec<TraceInput>,
    /// One label per trace.
    pub labels: Vec<Label>,
    /// FNV-1a over every trace's length and bytes, in order.
    pub digest: u64,
    /// Total wire bytes.
    pub wire_bytes: u64,
}

impl Corpus {
    /// Generate the corpus of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Corpus {
        Corpus::generate_n(workload, seed, default_len(workload))
    }

    /// Generate a corpus of `n` traces (tests use small `n`).
    pub fn generate_n(workload: Workload, seed: u64, n: usize) -> Corpus {
        Corpus::prefix_of(workload, seed, n, n)
    }

    /// The first `k` traces of the full-size corpus; `k` must be a whole
    /// number of synth slices.
    pub fn prefix(workload: Workload, seed: u64, k: usize) -> Corpus {
        Corpus::prefix_of(workload, seed, k, default_len(workload))
    }

    fn prefix_of(workload: Workload, seed: u64, k: usize, n: usize) -> Corpus {
        let traces: Vec<(Vec<u8>, Label)> = match workload {
            Workload::YearMix | Workload::OnlineStream => synth_traces(seed, k, 0.32),
            Workload::HostileFunnel => synth_traces(seed, k, ALL_CORRUPT),
            Workload::CheckpointDense => in_parallel(k, |i| checkpoint_trace(seed, i, n)),
        };
        let mut digest_input = Vec::with_capacity(traces.len() * 16);
        let mut wire_bytes = 0u64;
        let mut inputs = Vec::with_capacity(traces.len());
        let mut labels = Vec::with_capacity(traces.len());
        for (bytes, label) in traces {
            digest_input.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            digest_input.extend_from_slice(&fnv1a64(&bytes).to_le_bytes());
            wire_bytes += bytes.len() as u64;
            inputs.push(TraceInput::bytes(bytes));
            labels.push(label);
        }
        Corpus { workload, inputs, labels, digest: fnv1a64(&digest_input), wire_bytes }
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// The wire bytes of trace `i`.
    pub fn bytes(&self, i: usize) -> &[u8] {
        match &self.inputs[i] {
            TraceInput::Bytes(b) => b.as_slice(),
            TraceInput::Log(_) => unreachable!("corpora hold wire bytes only"),
        }
    }
}

/// Corpus size of a workload.
pub fn default_len(workload: Workload) -> usize {
    match workload {
        Workload::CheckpointDense => CHECKPOINT_TRACES,
        _ => MIX_TRACES,
    }
}

/// Synth traces in independent slices of [`MIX_SLICE`] runs, each its own
/// default-mix `Dataset` with a seed derived from `seed`. A slice caps the
/// share any one heavily rerun application can take of the corpus, so the
/// cost mix, and with it throughput, varies less from seed to seed.
fn synth_traces(seed: u64, n: usize, corruption_rate: f64) -> Vec<(Vec<u8>, Label)> {
    let slices = n.div_ceil(MIX_SLICE);
    let slice = |k: usize| {
        let n_traces = MIX_SLICE.min(n - k * MIX_SLICE);
        let ds = Dataset::new(DatasetConfig { n_traces, corruption_rate, seed: derive(seed, k) });
        ds.iter()
            .map(|run| {
                let label = match run.truth {
                    Some(truth) if !run.corrupt => Label::Truth(truth),
                    _ => Label::Corrupt,
                };
                let bytes = match run.payload {
                    Payload::Log(log) => mdf::to_bytes(&log),
                    Payload::Bytes(bytes) => bytes,
                };
                (bytes, label)
            })
            .collect::<Vec<_>>()
    };
    in_parallel(slices, slice).into_iter().flatten().collect()
}

/// Run `job(0..jobs)` on one thread per core and return the results in job
/// order. Every job is a pure function of its index, so the corpus does not
/// depend on the thread count.
fn in_parallel<T: Send>(jobs: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get()).min(jobs.max(1));
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        // A work cursor: it publishes no data; results
                        // come back through the join.
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= jobs {
                            return out;
                        }
                        out.push((k, job(k)));
                    }
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("corpus generation panicked")).collect()
    });
    done.sort_by_key(|(k, _)| *k);
    done.into_iter().map(|(_, t)| t).collect()
}

/// The `k`-th output of SplitMix64 seeded with `seed`.
fn derive(seed: u64, k: usize) -> u64 {
    SplitMix(seed.wrapping_add((k as u64).wrapping_mul(GOLDEN))).next()
}

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64: slice seeds and checkpoint parameters need a few seeded
/// draws, nothing more.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One checkpointer: 200–600 rounds of compute then a collective write of
/// one shared file per step, on 8–64 ranks, 30–120 s of compute per round.
///
/// The parameters are stratified: trace `i` takes the stratum the seed's
/// permutation gives it, so every seed draws the same spread of rounds,
/// ranks and compute times and per-seed throughput differs only by the
/// jitter within a stratum. Compute time stays 3 s clear of the 60 s boundary between the `second`
/// and `minute` period classes, so the designed period has one class.
fn checkpoint_trace(seed: u64, i: usize, n: usize) -> (Vec<u8>, Label) {
    let mut rng = SplitMix(seed ^ 0x6a09_e667_f3bc_c908);
    let mut order: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        order.swap(k, rng.below(k as u64 + 1) as usize);
    }
    let stratum = order[i];
    let mut rng = SplitMix(seed ^ (i as u64).wrapping_mul(0xff51_afd7_ed55_8ccd));
    let frac = (stratum as f64 + rng.unit()) / n as f64;
    let rounds = 200 + (400.0 * frac) as usize;
    let ranks = 8u32 << (stratum % 4);
    let c = (stratum / 4 * 7 + stratum % 4) % n;
    let cfrac = (c as f64 + rng.unit()) / n as f64;
    let compute =
        if cfrac < 0.3 { 30.0 + 27.0 * cfrac / 0.3 } else { 63.0 + 57.0 * (cfrac - 0.3) / 0.7 };
    let bytes_per_rank = (16u64 << 20) << (stratum % 3);
    let app = i % 16;

    let input = FileSpec::shared(format!("/proj/ckpt{app}/mesh.in"));
    let mut phases = vec![
        Phase::Open { file: input.clone() },
        Phase::Read { file: input.clone(), bytes: 256 << 20 },
        Phase::Close { file: input },
    ];
    for step in 0..rounds {
        let dump = FileSpec::shared(format!("/scratch/ckpt{app}/step{step:04}.h5"));
        phases.push(Phase::Compute { seconds: compute });
        phases.push(Phase::Open { file: dump.clone() });
        phases.push(Phase::Write { file: dump.clone(), bytes: bytes_per_rank });
        phases.push(Phase::Close { file: dump });
        phases.push(Phase::Barrier);
    }
    let start = YEAR_EPOCH + 3600 * i as i64;
    let log = Simulation::new(MachineConfig::default(), ranks, rng.next())
        .with_identity(i as u64, 2000 + app as u32, start)
        .run(&Program::new(phases), &format!("/apps/ckpt/ckpt-{app} --ranks {ranks}"));
    (mdf::to_bytes(&log), Label::PeriodicWrite(PeriodMagnitude::of(compute)))
}
