//! Bench for Table I / Fig. 12: the five pipeline implementations (the
//! paper's four plus the DAG scheduler) on a
//! scaled paper event, timed on the shared pool. The `report` binary
//! produces the same comparison; this bench complements it with
//! statistically robust per-implementation costs.

use arp_bench::{run_once, stage_event_inputs};
use arp_core::{ImplKind, PipelineConfig};
use arp_synth::paper_event;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_implementations(c: &mut Criterion) {
    // Smallest paper event at 1% scale so a full pipeline run is quick.
    let event = paper_event(0, 0.01);
    let input = stage_event_inputs(&event, "crit-pipeline").unwrap();
    let config = PipelineConfig::fast();

    let mut group = c.benchmark_group("pipeline/table1");
    group.sample_size(10);
    for kind in ImplKind::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label().replace([' ', '.'], "")),
            &kind,
            |b, &kind| {
                b.iter(|| run_once(&input, &config, kind, "bench").unwrap());
            },
        );
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&input);
}

criterion_group!(benches, bench_implementations);
criterion_main!(benches);
