//! Bench for Fig. 11: the cost of each heavy pipeline process on a fixed
//! staged input — the sequential bars of the per-stage comparison. The
//! parallel bars come from `report fig11`.

use arp_core::process::{analyze, filter, fourier, gemgen, plots, respspec, separate};
use arp_core::{PipelineConfig, RunContext};
use arp_synth::paper_event;
use criterion::{criterion_group, criterion_main, Criterion};
use std::path::PathBuf;

/// Prepares a work directory with the pipeline advanced far enough that
/// every benched process has its inputs available.
fn prepare() -> (PathBuf, RunContext) {
    let base = std::env::temp_dir().join(format!("arp-crit-stages-{}", std::process::id()));
    let input = base.join("in");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&input).unwrap();
    let event = paper_event(0, 0.01);
    arp_synth::write_event_inputs(&event, &input).unwrap();
    let ctx = RunContext::new(&input, base.join("w"), PipelineConfig::fast()).unwrap();
    arp_core::process::gather::gather_inputs(&ctx, false).unwrap();
    arp_core::process::filterinit::init_filter_params(&ctx).unwrap();
    separate::separate_components(&ctx, false).unwrap();
    filter::correct_signals(&ctx, filter::CorrectionPass::Default, false).unwrap();
    fourier::fourier_transform(&ctx, false).unwrap();
    analyze::analyze_fourier(&ctx, false).unwrap();
    respspec::response_spectrum_calc(&ctx, false).unwrap();
    (base, ctx)
}

fn bench_stages(c: &mut Criterion) {
    let (base, ctx) = prepare();
    let mut group = c.benchmark_group("pipeline/stages");
    group.sample_size(10);

    group.bench_function("III_separate", |b| {
        b.iter(|| separate::separate_components(&ctx, false).unwrap())
    });
    group.bench_function("IV_default_filter", |b| {
        b.iter(|| filter::correct_signals(&ctx, filter::CorrectionPass::Default, false).unwrap())
    });
    group.bench_function("V_fourier", |b| {
        b.iter(|| fourier::fourier_transform(&ctx, false).unwrap())
    });
    group.bench_function("VI_analyze", |b| {
        b.iter(|| analyze::analyze_fourier(&ctx, false).unwrap())
    });
    group.bench_function("VIII_definitive_filter", |b| {
        b.iter(|| filter::correct_signals(&ctx, filter::CorrectionPass::Definitive, false).unwrap())
    });
    group.bench_function("IX_response_spectrum", |b| {
        b.iter(|| respspec::response_spectrum_calc(&ctx, false).unwrap())
    });
    group.bench_function("X_gem", |b| {
        b.iter(|| gemgen::generate_gem_files(&ctx, false).unwrap())
    });
    group.bench_function("XI_plots", |b| {
        b.iter(|| {
            plots::plot_fourier_spectrum(&ctx, false).unwrap();
            plots::plot_accelerograph(&ctx, false).unwrap();
            plots::plot_response_spectrum(&ctx, false).unwrap();
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&base);
}

criterion_group!(benches, bench_stages);
criterion_main!(benches);
