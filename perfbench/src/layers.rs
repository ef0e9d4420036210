//! The traced run: per-layer costs, each timed from the benchmark's own
//! code around calls into a public function of the layer.
//!
//! * `core::process` — the seventeen processes of the optimized sequential
//!   pipeline, called one by one on the six events at `SCALE`;
//! * `arp-formats` — decode, encode and header-skip over the products of
//!   that pass;
//! * `arp-dsp` and `arp-plot` — the kernels on one event's component
//!   signals;
//! * `core::stagedir` — the temp-folder protocol with a kernel that only
//!   writes its outputs;
//! * `arp-par` — pool counters over an untraced super-DAG batch of the
//!   same events, and dispatch cost over empty tasks;
//! * instrumentation — the same batch again with an `arp-trace` session.

use crate::inputs::{self, Event, Scratch};
use crate::pipeline::{measure_batch, verify_events, BatchRun, Executor};
use crate::probe;
use crate::report::{median, Outcome};
use crate::spans::Spans;
use arp_core::process::filter::CorrectionPass;
use arp_core::process::*;
use arp_core::stagedir::{run_staged, StagedKernel};
use arp_core::{PipelineConfig, RunContext};
use arp_formats::{
    names, Component, FFile, FilterParams, GemFile, Record, RecordEncoder, RecordReader,
    V1ComponentFile, V2File,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Scale of the traced suite's events for every workload: the
/// `batch6-seq` inputs.
pub const SCALE: f64 = 0.5;

/// The event whose signals feed the DSP, plot and stagedir measurements
/// (Jul-10-2019, nine stations).
const SAMPLE_EVENT: usize = 2;

/// Bytes of each record format decoded and encoded.
const FORMAT_BYTES_CAP: u64 = 48 << 20;

/// Empty tasks per `run_dag` dispatch measurement, and its repetitions.
const DISPATCH_TASKS: usize = 20_000;
const DISPATCH_REPS: usize = 5;

type ProcessFn = fn(&RunContext) -> arp_core::Result<()>;

/// The optimized sequential pipeline, in execution order.
const PROCESSES: [(u8, ProcessFn); 17] = [
    (0, |c| flags::init_flags(c)),
    (1, |c| gather::gather_inputs(c, false)),
    (2, |c| filterinit::init_filter_params(c)),
    (3, |c| separate::separate_components(c, false)),
    (4, |c| {
        filter::correct_signals(c, CorrectionPass::Default, false)
    }),
    (5, |c| metainit::init_main_metadata(c)),
    (7, |c| fourier::fourier_transform(c, false)),
    (8, |c| metainit::init_fourier_graph(c)),
    (9, |c| plots::plot_fourier_spectrum(c, false)),
    (10, |c| analyze::analyze_fourier(c, false)),
    (11, |c| flags::reinit_flags(c)),
    (13, |c| {
        filter::correct_signals(c, CorrectionPass::Definitive, false)
    }),
    (15, |c| plots::plot_accelerograph(c, false)),
    (16, |c| respspec::response_spectrum_calc(c, false)),
    (17, |c| metainit::init_response_graph(c)),
    (18, |c| plots::plot_response_spectrum(c, false)),
    (19, |c| gemgen::generate_gem_files(c, false)),
];

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs the traced suite on the six events at `scale` and fills `out` with
/// every per-layer metric. The workload sets only the pool's I/O lane, off
/// for `batch6-seq` as in its end-to-end runs.
pub fn run(workload: &str, scale: f64, seed: u64, out: &mut Outcome) -> Result<(), String> {
    if workload == "batch6-seq" {
        arp_par::configure_global_io_threads(0);
    }
    let scratch = Scratch::new(&format!("{workload}-trace"))?;
    let events = inputs::generate(&scratch.path("in"), scale, seed)?;
    let config = PipelineConfig::default();
    let mut spans = Spans::new();
    let archive = scratch.path("archive");

    probe::flush_disk();
    let mut failed = process_pass(&events, &archive, &config, &mut spans, out);
    // The pass's products are read by every layer below; write them back
    // now rather than in the middle of a later measurement.
    probe::flush_disk();
    formats(&archive, &events, &mut spans, out)?;
    let sample = &events[SAMPLE_EVENT];
    let sample_work = archive.join(&sample.label);
    dsp_and_plot(sample, &sample_work, &config, &mut spans, out)?;
    stagedir(sample, &sample_work, &config, &mut spans, out)?;
    failed += par_and_instr(&events, &scratch, &config, &mut spans, out);
    out.attempted = 3 * events.len() as u64;
    out.failed = failed;

    let path = PathBuf::from(".bench_out").join(format!("spans-{workload}-seed{seed}.jsonl"));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.note(format!("spans written to {}", path.display()));
    Ok(())
}

/// `process.pNN_s`: seconds in each process over the pass, and the share
/// of the pass's wall time the process spans cover. Returns the number of
/// events that failed.
fn process_pass(
    events: &[Event],
    archive: &Path,
    config: &PipelineConfig,
    spans: &mut Spans,
    out: &mut Outcome,
) -> u64 {
    let mut failed = vec![false; events.len()];
    let pass = spans.begin("pass", None);
    for (e, event) in events.iter().enumerate() {
        let ev = spans.begin(format!("event {}", event.label), Some(e));
        match RunContext::new(&event.dir, archive.join(&event.label), config.clone()) {
            Ok(ctx) => {
                for (p, run) in PROCESSES {
                    if let Err(why) = spans.time(format!("process.p{p:02}"), Some(e), || run(&ctx))
                    {
                        out.note(format!("process #{p} on {}: {why}", event.label));
                        failed[e] = true;
                        break;
                    }
                }
            }
            Err(why) => {
                out.note(format!("context {}: {why}", event.label));
                failed[e] = true;
            }
        }
        spans.end(ev);
    }
    let wall = spans.end(pass).as_secs_f64();
    for (e, why) in verify_events(events, archive, config) {
        out.note(format!("verify {}: {why}", events[e].label));
        failed[e] = true;
    }
    let mut covered = 0.0;
    for (p, _) in PROCESSES {
        let name = format!("process.p{p:02}");
        let s = spans.total_s(&name);
        covered += s;
        out.metric(format!("{name}_s"), s, "s");
    }
    let coverage = covered / wall;
    if coverage < 0.95 {
        out.check_failed(format!("process spans cover {coverage:.3} of the pass"));
    }
    out.metric("process.coverage_frac", coverage, "fraction");
    failed.iter().filter(|&&f| f).count() as u64
}

/// Product files under `archive` with extension `ext`, in sorted order, up
/// to `FORMAT_BYTES_CAP` bytes, read into memory.
fn load_texts(archive: &Path, events: &[Event], ext: &str) -> Result<Vec<String>, String> {
    let mut texts = Vec::new();
    let mut total = 0u64;
    for event in events {
        let dir = archive.join(&event.label);
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(err)?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == ext))
            .collect();
        paths.sort();
        for path in paths {
            if total >= FORMAT_BYTES_CAP {
                return Ok(texts);
            }
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            total += text.len() as u64;
            texts.push(text);
        }
    }
    Ok(texts)
}

/// `formats.decode_mb_s.*`, `formats.encode_mb_s.*` and
/// `formats.skip_mb_s`. Every re-encoded text must equal its source.
fn formats(
    archive: &Path,
    events: &[Event],
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    for ext in ["v1", "v2", "f", "r", "gem"] {
        let texts = load_texts(archive, events, ext)?;
        let bytes: usize = texts.iter().map(String::len).sum();
        let (mut decode, mut encode) = (Duration::ZERO, Duration::ZERO);
        let mut mismatched = 0usize;
        for text in &texts {
            let id = spans.begin(format!("formats.decode.{ext}"), None);
            let encoded = if ext == "gem" {
                let gem = GemFile::from_text(black_box(text)).map_err(err)?;
                decode += spans.end(id);
                let id = spans.begin(format!("formats.encode.{ext}"), None);
                let encoded = black_box(gem.to_text()).into_bytes();
                encode += spans.end(id);
                encoded
            } else {
                let records: Vec<Record> = RecordReader::new(black_box(text.as_bytes()))
                    .collect::<Result<_, _>>()
                    .map_err(err)?;
                decode += spans.end(id);
                let id = spans.begin(format!("formats.encode.{ext}"), None);
                let mut enc = RecordEncoder::new(Vec::with_capacity(text.len()));
                for record in &records {
                    enc.write_record(record).map_err(err)?;
                }
                let encoded = black_box(enc.finish().map_err(err)?);
                encode += spans.end(id);
                encoded
            };
            if encoded != text.as_bytes() {
                mismatched += 1;
            }
        }
        if mismatched > 0 {
            out.check_failed(format!(
                "{mismatched} {ext} files re-encode with different bytes"
            ));
        }
        let mb = bytes as f64 / 1e6;
        out.metric(
            format!("formats.decode_mb_s.{ext}"),
            mb / decode.as_secs_f64(),
            "MB/s",
        );
        out.metric(
            format!("formats.encode_mb_s.{ext}"),
            mb / encode.as_secs_f64(),
            "MB/s",
        );
    }

    // A filter that rejects every header: the scan reads and skips every
    // record body of every product file.
    let (mut bytes, mut elapsed) = (0u64, Duration::ZERO);
    for (e, event) in events.iter().enumerate() {
        let query = arp_formats::Query::new(&archive.join(&event.label))
            .filter(arp_formats::Filter::Station("-".into()));
        for file in query.candidate_files().map_err(err)? {
            bytes += std::fs::metadata(&file).map_err(err)?.len();
        }
        let id = spans.begin("formats.skip", Some(e));
        let hits = query.run().map_err(err)?.count();
        elapsed += spans.end(id);
        if hits != 0 {
            out.check_failed(format!(
                "skip query on {} matched {hits} records",
                event.label
            ));
        }
    }
    out.metric(
        "formats.skip_mb_s",
        bytes as f64 / 1e6 / elapsed.as_secs_f64(),
        "MB/s",
    );
    Ok(())
}

/// The accelerogram figure process #15 draws: acceleration, velocity and
/// displacement panels of one corrected component.
fn motion_figure(v2: &V2File) -> arp_plot::Figure {
    use arp_plot::{LineChart, Series};
    let t: Vec<f64> = (0..v2.data.len())
        .map(|i| i as f64 * v2.header.dt)
        .collect();
    let d = &v2.data;
    arp_plot::Figure::new(vec![
        LineChart::new("acceleration")
            .labels("Time (s)", "cm/s2")
            .with_series(Series::from_xy("acc", &t, &d.acc)),
        LineChart::new("velocity")
            .labels("Time (s)", "cm/s")
            .with_series(Series::from_xy("vel", &t, &d.vel)),
        LineChart::new("displacement")
            .labels("Time (s)", "cm")
            .with_series(Series::from_xy("disp", &t, &d.disp)),
    ])
}

/// `dsp.*` and `plot.*` on every component of the sample event.
fn dsp_and_plot(
    event: &Event,
    work: &Path,
    config: &PipelineConfig,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let ctx = RunContext::new(&event.dir, work, config.clone()).map_err(err)?;
    let band = FilterParams::read(&work.join(FilterParams::FILE_NAME))
        .map_err(err)?
        .default_band;
    let periods = config.periods();
    let backend = config.dsp_backend;
    let mut t = HashMap::<&str, (Duration, f64)>::new();
    let mut add = |key: &'static str, d: Duration, units: f64| {
        let e = t.entry(key).or_default();
        e.0 += d;
        e.1 += units;
    };
    for station in ctx.stations().map_err(err)? {
        for comp in Component::ALL {
            let v1 = V1ComponentFile::read(&work.join(names::v1_component(&station, comp)))
                .map_err(err)?;
            let v2 = V2File::read(&work.join(names::v2_component(&station, comp))).map_err(err)?;
            let f = FFile::read(&work.join(names::f_component(&station, comp))).map_err(err)?;
            let n = v2.data.acc.len() as f64;

            let filt = arp_dsp::FirFilter::band_pass_with_max_taps(
                band,
                v1.header.dt,
                config.window,
                config.max_fir_taps,
            )
            .map_err(err)?;
            let id = spans.begin("dsp.fir_apply", None);
            black_box(filt.apply_fft_with(black_box(&v1.data.acc), backend));
            add("fir", spans.end(id), v1.data.acc.len() as f64);

            let id = spans.begin("dsp.rfft", None);
            black_box(arp_dsp::fft::rfft_with(black_box(&v2.data.acc), backend));
            add("rfft", spans.end(id), n);

            let id = spans.begin("dsp.respspec", None);
            for &z in &config.dampings {
                black_box(
                    arp_dsp::respspec::response_spectrum_with(
                        &v2.data.acc,
                        v2.header.dt,
                        &periods,
                        z,
                        config.response_method,
                        backend,
                    )
                    .map_err(err)?,
                );
            }
            add(
                "respspec",
                spans.end(id),
                n * (periods.len() * config.dampings.len()) as f64,
            );

            let id = spans.begin("dsp.inflection", None);
            black_box(
                arp_dsp::find_filter_corners(black_box(&f.spectrum), &config.inflection)
                    .map_err(err)?,
            );
            add(
                "inflection",
                spans.end(id),
                f.spectrum.frequency_hz.len() as f64,
            );

            if comp == Component::Longitudinal {
                let id = spans.begin("plot.ps", None);
                let ps = black_box(motion_figure(&v2).to_postscript());
                add("ps", spans.end(id), ps.len() as f64);
                add("ps_points", Duration::ZERO, n);
            }
        }
    }
    let ns_per = |key: &str| t[key].0.as_nanos() as f64 / t[key].1;
    out.metric("dsp.fir_apply_ns_per_sample", ns_per("fir"), "ns");
    out.metric("dsp.rfft_ns_per_sample", ns_per("rfft"), "ns");
    out.metric("dsp.respspec_ns_per_osc_step", ns_per("respspec"), "ns");
    out.metric("dsp.inflection_ns_per_sample", ns_per("inflection"), "ns");
    let (ps_time, ps_bytes) = t["ps"];
    out.metric(
        "plot.ps_mb_s",
        ps_bytes / 1e6 / ps_time.as_secs_f64(),
        "MB/s",
    );
    out.metric(
        "plot.ps_bytes_per_point",
        ps_bytes / t["ps_points"].1,
        "bytes/point",
    );
    Ok(())
}

/// `stagedir.mb_s` and `stagedir.bytes_per_point`: `run_staged` with the
/// input and output lists of processes #4, #7 and #13 and a kernel that
/// only writes the outputs' known bytes, so the products stay as they were.
fn stagedir(
    event: &Event,
    work: &Path,
    config: &PipelineConfig,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let ctx = RunContext::new(&event.dir, work, config.clone()).map_err(err)?;
    let stations = ctx.stations().map_err(err)?;
    let per_comp = |f: fn(&str, Component) -> String| {
        move |s: &str| -> Vec<String> { Component::ALL.iter().map(|&c| f(s, c)).collect() }
    };
    let v1 = per_comp(names::v1_component);
    let v2 = per_comp(names::v2_component);
    let fc = per_comp(names::f_component);
    let filter_inputs = move |s: &str| -> Vec<String> {
        let mut names = vec![FilterParams::FILE_NAME.to_string()];
        names.extend(v1(s));
        names
    };
    type Names<'a> = &'a (dyn Fn(&str) -> Vec<String> + Sync);
    let lists: [(&str, Names, Names); 3] = [
        ("p04", &filter_inputs, &v2),
        ("p07", &v2, &fc),
        ("p13", &filter_inputs, &v2),
    ];
    let digest_before = inputs::tree_digest(work)?;
    let size = |name: &str| std::fs::metadata(ctx.artifact(name)).map_or(0, |m| m.len());
    let (mut bytes, mut elapsed) = (0u64, Duration::ZERO);
    for (tag, ins, outs) in lists {
        let mut products = HashMap::new();
        for s in &stations {
            bytes += ins(s).iter().chain(&outs(s)).map(|n| size(n)).sum::<u64>();
            for name in outs(s) {
                products.insert(
                    name.clone(),
                    std::fs::read(ctx.artifact(&name)).map_err(err)?,
                );
            }
        }
        let write_outputs = |dir: &Path, _: usize, station: &str| -> arp_core::Result<()> {
            for name in outs(station) {
                let path = dir.join(&name);
                std::fs::write(&path, &products[&name])
                    .map_err(|e| arp_core::PipelineError::io(&path, e))?;
            }
            Ok(())
        };
        let kernel = StagedKernel {
            tag,
            inputs: ins,
            outputs: outs,
            run: &write_outputs,
            serial_fraction: 0.5,
        };
        let id = spans.begin(format!("stagedir.{tag}"), Some(SAMPLE_EVENT));
        let result = run_staged(&ctx, &stations, false, &kernel);
        elapsed += spans.end(id);
        result.map_err(err)?;
    }
    if inputs::tree_digest(work)? != digest_before {
        out.check_failed("stagedir round trip changed the products");
    }
    out.metric(
        "stagedir.mb_s",
        bytes as f64 / 1e6 / elapsed.as_secs_f64(),
        "MB/s",
    );
    out.metric(
        "stagedir.bytes_per_point",
        bytes as f64 / event.points as f64,
        "bytes/point",
    );
    Ok(())
}

/// `par.*` over an untraced super-DAG batch of the workload's events and
/// `instr.trace_overhead_frac` from the same batch traced. Returns the
/// number of failed events over both batches.
fn par_and_instr(
    events: &[Event],
    scratch: &Scratch,
    config: &PipelineConfig,
    spans: &mut Spans,
    out: &mut Outcome,
) -> u64 {
    let pool = arp_par::ThreadPool::global();
    let mut dispatch = Vec::with_capacity(DISPATCH_REPS);
    for _ in 0..DISPATCH_REPS {
        let tasks: Vec<arp_par::BorrowedTask<'_>> = (0..DISPATCH_TASKS)
            .map(|_| Box::new(|| {}) as arp_par::BorrowedTask<'_>)
            .collect();
        let preds = vec![Vec::new(); DISPATCH_TASKS];
        let t0 = Instant::now();
        spans.time("par.dispatch", None, || pool.run_dag(tasks, &preds));
        dispatch.push(t0.elapsed().as_secs_f64() * 1e6 / DISPATCH_TASKS as f64);
    }

    let mut failed = 0;
    let mut batch = |name: &str, traced: bool, spans: &mut Spans, out: &mut Outcome| -> BatchRun {
        let work = scratch.path(name);
        let id = spans.begin(name, None);
        let session = traced.then(arp_trace::TraceSession::start);
        let started = Instant::now();
        let run = measure_batch(Executor::SuperDag, events, &work, config);
        if let Some(session) = session {
            let trace = session.finish();
            let nodes = trace.spans_of(arp_trace::Cat::DagNode).count();
            if run.error.is_none() && nodes != events.len() * 17 {
                out.check_failed(format!("traced batch recorded {nodes} dag-node spans"));
            }
        }
        for (e, lat) in run.latencies.iter().enumerate() {
            if let Some(lat) = lat {
                spans.record(
                    format!("event {}", events[e].label),
                    Some(e),
                    started,
                    started + *lat,
                );
            }
        }
        spans.end(id);
        let mut bad: Vec<usize> = run
            .latencies
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_none())
            .map(|(e, _)| e)
            .collect();
        for (e, why) in &run.unverified {
            out.note(format!("{name} verify {}: {why}", events[*e].label));
            bad.push(*e);
        }
        if let Some(why) = &run.error {
            out.note(format!("{name}: {why}"));
        }
        bad.sort_unstable();
        bad.dedup();
        failed += bad.len() as u64;
        run
    };
    let before = pool.stats();
    let plain = batch("par.batch", false, spans, out);
    let delta = pool.stats().delta_since(&before);
    let traced = batch("instr.batch_traced", true, spans, out);

    let wall = plain.wall.as_secs_f64();
    out.metric("par.dag_dispatches", delta.dag_dispatches as f64, "count");
    out.metric("par.jobs_helped", delta.jobs_helped as f64, "count");
    out.metric(
        "par.steals",
        (delta.steals_compute + delta.steals_io) as f64,
        "count",
    );
    out.metric(
        "par.cross_lane_steals",
        delta.cross_lane_steals as f64,
        "count",
    );
    out.metric("par.os_threads", plain.threads_peak as f64, "count");
    out.metric(
        "par.idle_core_s",
        wall * probe::nproc() as f64 - plain.cpu.as_secs_f64(),
        "s",
    );
    out.metric("par.dispatch_us_per_task", median(&dispatch), "us");
    out.metric(
        "instr.trace_overhead_frac",
        traced.wall.as_secs_f64() / wall - 1.0,
        "fraction",
    );
    failed
}
