//! Criterion: full per-trace categorization cost across archetypes — the
//! number that decides whether MOSAIC can run inline in a job scheduler
//! (the paper's motivating deployment), plus the metadata axis alone on
//! the two traffic shapes that bound it: a long, quiet run and a short
//! metadata storm.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mosaic_core::{metadata, Categorizer, CategorizerConfig};
use mosaic_darshan::ops::{MetaEvent, MetaKind};
use mosaic_synth::archetype::Archetype;
use mosaic_synth::build::{build_run, RunSpec};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn trace_for(archetype: Archetype) -> mosaic_darshan::TraceLog {
    let spec = RunSpec {
        archetype,
        job_id: 1,
        uid: 1,
        nprocs: 256,
        base_runtime: 7200.0,
        start_epoch: 0,
        exe: "/apps/bench/app".into(),
    };
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    build_run(&spec, &mut rng).0
}

fn bench_categorize(c: &mut Criterion) {
    let categorizer = Categorizer::default();
    let mut group = c.benchmark_group("categorize");
    for (name, archetype) in [
        ("quiet", Archetype::Quiet),
        ("read_compute_write", Archetype::ReadComputeWrite),
        ("checkpointer", Archetype::CheckpointerRead),
        ("periodic_reader", Archetype::PeriodicReader),
        ("metadata_storm", Archetype::MetadataStorm),
    ] {
        let log = trace_for(archetype);
        group.bench_with_input(BenchmarkId::new("full_trace", name), &log, |b, log| {
            b.iter(|| categorizer.categorize_log(black_box(log)))
        });
    }
    group.finish();
}

/// `n` metadata bursts spread uniformly over `runtime`, sorted by time as
/// the operation view hands them over.
fn meta_events(n: usize, runtime: f64) -> Vec<MetaEvent> {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut events: Vec<MetaEvent> = (0..n)
        .map(|_| MetaEvent {
            time: rng.gen_range(0.0..runtime),
            kind: MetaKind::Open,
            count: rng.gen_range(1..64),
        })
        .collect();
    events.sort_by(|a, b| a.time.total_cmp(&b.time));
    events
}

fn bench_metadata(c: &mut Criterion) {
    let config = CategorizerConfig::default();
    let mut group = c.benchmark_group("metadata");
    for (name, n, runtime) in [("long_quiet_12h", 20usize, 43_200.0), ("storm_600s", 5000, 600.0)] {
        let events = meta_events(n, runtime);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("characterize", name), &events, |b, events| {
            b.iter(|| metadata::characterize(black_box(events), runtime, 256, &config))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_categorize, bench_metadata);
criterion_main!(benches);
