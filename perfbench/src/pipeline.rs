//! The two pipeline workloads: the six paper events through the cross-event
//! super-DAG (`batch6-dag`) and through the optimized sequential executor
//! (`batch6-seq`).

use crate::inputs::{self, Event, Scratch};
use crate::probe;
use crate::report::{median, percentile, Outcome};
use arp_core::{ImplKind, PipelineConfig, ReadyOrder, RunContext};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Which executor a pipeline workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// `run_batch_dag`, critical-path order, on the shared pool.
    SuperDag,
    /// `run_pipeline_labeled` with `ImplKind::SequentialOptimized`, one
    /// event after another; no pool.
    Sequential,
}

/// Scale of the cross-executor digest check run after the measurement.
const SMOKE_SCALE: f64 = 0.01;

/// Repetitions of the preparation at each of the points a run measures it:
/// before the first batch, after each batch and after the cross-executor
/// check. Spreading them over the run keeps `setup_s`, a median of
/// millisecond timings, from hanging on the host's speed at one moment.
const SETUP_REPS: usize = 11;

/// One measured batch. Its work tree is checked and removed before
/// `measure_batch` returns.
#[derive(Debug)]
pub struct BatchRun {
    pub wall: Duration,
    pub cpu: Duration,
    pub read_bytes: u64,
    pub peak_rss_mb: f64,
    pub threads_peak: u64,
    /// Per event: time from batch start until its last node finished, or
    /// `None` when it did not finish.
    pub latencies: Vec<Option<Duration>>,
    pub error: Option<String>,
    /// Events whose work tree failed `verify_run`, with the first issue.
    pub unverified: Vec<(usize, String)>,
    /// Bytes the batch left in its work tree.
    pub work_bytes: u64,
}

/// Per-event `(completed, total)` node counts from a `frontier_json`
/// snapshot.
fn frontier_counts(json: &str) -> Vec<(u64, u64)> {
    let field = |chunk: &str, key: &str| -> u64 {
        chunk
            .split_once(&format!("\"{key}\":"))
            .and_then(|(_, rest)| {
                rest.split(|c: char| !c.is_ascii_digit())
                    .next()
                    .and_then(|n| n.parse().ok())
            })
            .unwrap_or(0)
    };
    json.split("{\"label\":")
        .skip(1)
        .map(|chunk| {
            let completed = field(chunk, "completed");
            let total = ["pending", "running", "failed", "skipped"]
                .iter()
                .map(|k| field(chunk, k))
                .sum::<u64>()
                + completed;
            (completed, total)
        })
        .collect()
}

/// Runs `f`, adding its wall time, CPU time and bytes read to `run` and
/// raising `run.peak_rss_mb` to the peak RSS while it ran.
fn measured(run: &mut BatchRun, f: impl FnOnce()) {
    probe::reset_peak_rss();
    let (cpu0, read0, t0) = (probe::cpu_time(), probe::read_bytes(), Instant::now());
    f();
    run.wall += t0.elapsed();
    run.cpu += probe::cpu_time() - cpu0;
    run.read_bytes += probe::read_bytes() - read0;
    run.peak_rss_mb = run.peak_rss_mb.max(probe::peak_rss_mb());
}

/// Runs one batch of `events` into `work` and measures it, while a side
/// thread samples the live super-DAG frontier every millisecond (event
/// latencies) and the thread count every 16 ms.
///
/// The super-DAG batch is measured as a whole, then checked. The
/// sequential batch is measured event by event: each event's tree is
/// checked and removed between events, outside the clock. After each
/// removal the disk is synced, so the discards of the removed tree's
/// blocks are not issued inside the next measurement.
pub fn measure_batch(
    exec: Executor,
    events: &[Event],
    work: &Path,
    config: &PipelineConfig,
) -> BatchRun {
    let mut run = BatchRun {
        wall: Duration::ZERO,
        cpu: Duration::ZERO,
        read_bytes: 0,
        peak_rss_mb: 0.0,
        threads_peak: 0,
        latencies: vec![None; events.len()],
        error: None,
        unverified: Vec::new(),
        work_bytes: 0,
    };
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let seen = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut seen = vec![None; events.len()];
            let mut tick = 0u64;
            let mut threads_peak = 0;
            while !done.load(Ordering::Acquire) {
                if let Some(json) = arp_core::frontier_json() {
                    for (e, (completed, total)) in frontier_counts(&json).into_iter().enumerate() {
                        if seen[e].is_none() && total > 0 && completed == total {
                            seen[e] = Some(started.elapsed());
                        }
                    }
                }
                if tick.is_multiple_of(16) {
                    threads_peak = threads_peak.max(probe::threads());
                }
                tick += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            (seen, threads_peak)
        });
        let mut error = None;
        match exec {
            Executor::SuperDag => {
                let items = inputs::batch_items(events);
                measured(&mut run, || {
                    error = arp_core::run_batch_dag(&items, work, config, ReadyOrder::CriticalPath)
                        .err()
                        .map(|e| e.to_string());
                });
            }
            Executor::Sequential => {
                let mut ends = vec![None; events.len()];
                for (e, event) in events.iter().enumerate() {
                    let tree = work.join(&event.label);
                    let mut outcome = Ok(());
                    measured(&mut run, || {
                        outcome = RunContext::new(&event.dir, &tree, config.clone())
                            .and_then(|ctx| {
                                arp_core::run_pipeline_labeled(
                                    &ctx,
                                    ImplKind::SequentialOptimized,
                                    &event.label,
                                )
                            })
                            .map(|_| ());
                    });
                    match outcome {
                        Ok(()) => ends[e] = Some(run.wall),
                        Err(err) => {
                            error.get_or_insert_with(|| format!("{}: {err}", event.label));
                        }
                    }
                    for (_, why) in verify_events(std::slice::from_ref(event), work, config) {
                        run.unverified.push((e, why));
                    }
                    run.work_bytes += inputs::dir_bytes(&tree);
                    inputs::remove(&tree);
                    probe::flush_disk();
                }
                run.latencies = ends;
            }
        }
        run.error = error;
        done.store(true, Ordering::Release);
        let (seen, threads_peak) = sampler.join().expect("frontier sampler panicked");
        run.threads_peak = threads_peak;
        seen
    });
    if exec == Executor::SuperDag {
        run.latencies = seen;
        // An event that finished inside the sampler's last millisecond,
        // after which the frontier is retired, is complete when the batch
        // succeeded.
        if run.error.is_none() {
            for lat in &mut run.latencies {
                lat.get_or_insert(run.wall);
            }
        }
        run.unverified = verify_events(events, work, config);
        run.work_bytes = inputs::dir_bytes(work);
    }
    inputs::remove(work);
    probe::flush_disk();
    run
}

/// Events whose work tree fails `verify_run` (missing or unparseable
/// artifacts), with the first issue of each.
pub fn verify_events(
    events: &[Event],
    work: &Path,
    config: &PipelineConfig,
) -> Vec<(usize, String)> {
    let mut bad = Vec::new();
    for (e, event) in events.iter().enumerate() {
        let verdict = RunContext::new(&event.dir, work.join(&event.label), config.clone())
            .and_then(|ctx| arp_core::verify_run(&ctx));
        match verdict {
            Ok(issues) if issues.is_empty() => {}
            Ok(issues) => bad.push((e, format!("{} ({} issues)", issues[0], issues.len()))),
            Err(err) => bad.push((e, err.to_string())),
        }
    }
    bad
}

/// Times the program's own preparation before the first unit of work
/// `SETUP_REPS` times into `samples`: the batch discovery, a `RunContext`
/// per event and its input shape.
fn time_preparation(
    root: &Path,
    scratch: &Scratch,
    config: &PipelineConfig,
    samples: &mut Vec<f64>,
) -> Result<(), String> {
    for rep in 0..SETUP_REPS {
        let work = scratch.path(&format!("setup-{rep}"));
        let t0 = Instant::now();
        let items = arp_core::discover_batch(root).map_err(|e| e.to_string())?;
        for item in &items {
            let ctx = RunContext::new(&item.input_dir, work.join(&item.label), config.clone())
                .map_err(|e| e.to_string())?;
            arp_core::measure_input_shape(&ctx).map_err(|e| e.to_string())?;
        }
        samples.push(t0.elapsed().as_secs_f64());
        inputs::remove(&work);
    }
    Ok(())
}

/// Runs a pipeline workload: generates the inputs, measures batches for at
/// least `seconds`, checks every output and fills `out`.
pub fn run(
    exec: Executor,
    scale: f64,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let scratch = Scratch::new(match exec {
        Executor::SuperDag => "batch6-dag",
        Executor::Sequential => "batch6-seq",
    })?;
    let t_start = Instant::now();
    let events = inputs::generate(&scratch.path("in"), scale, seed)?;
    probe::flush_disk();
    let t_generated = Instant::now();
    let points: usize = events.iter().map(|e| e.points).sum();
    let config = PipelineConfig::default();

    // The global pool is sized once, at first use: the sequential baseline
    // runs with the I/O lane off, the super-DAG with the default lane.
    if exec == Executor::Sequential {
        arp_par::configure_global_io_threads(0);
    }
    let pool_start = match exec {
        Executor::SuperDag => {
            let t0 = Instant::now();
            arp_par::ThreadPool::global();
            t0.elapsed()
        }
        Executor::Sequential => Duration::ZERO,
    };
    let mut setup = Vec::new();
    time_preparation(&scratch.path("in"), &scratch, &config, &mut setup)?;

    let host0 = probe::HostSample::now();
    let t_measure = Instant::now();
    let mut runs = Vec::new();
    let mut failed_events = vec![false; events.len()];
    let mut measured = Duration::ZERO;
    while runs.is_empty() || measured.as_secs_f64() < seconds {
        let run = measure_batch(exec, &events, &scratch.path("work"), &config);
        measured += run.wall;
        if let Some(err) = &run.error {
            out.note(format!("batch error: {err}"));
        }
        for (e, lat) in run.latencies.iter().enumerate() {
            failed_events[e] |= lat.is_none();
        }
        for (e, why) in &run.unverified {
            out.note(format!("verify {}: {why}", events[*e].label));
            failed_events[*e] = true;
        }
        runs.push(run);
        time_preparation(&scratch.path("in"), &scratch, &config, &mut setup)?;
    }
    let host1 = probe::HostSample::now();
    let threads_peak = runs.iter().map(|r| r.threads_peak).max().unwrap_or(0);
    out.note(format!(
        "noise {}",
        probe::noise_record(host0, host1, threads_peak, scratch.root())
    ));

    let t_check = Instant::now();
    for (e, why) in cross_executor_check(&scratch, seed)? {
        out.note(format!("digest {}: {why}", events[e].label));
        failed_events[e] = true;
    }
    time_preparation(&scratch.path("in"), &scratch, &config, &mut setup)?;
    out.note(format!(
        "phases generate_s {:.1} setup_s {:.1} measure_s {:.1} cross_check_s {:.1}",
        (t_generated - t_start).as_secs_f64(),
        (t_measure - t_generated).as_secs_f64(),
        (t_check - t_measure).as_secs_f64(),
        t_check.elapsed().as_secs_f64()
    ));

    let per_run = |f: &dyn Fn(&BatchRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    // Event latencies pool over the batches: the scheduler's order, and so
    // each event's latency, changes from one batch of the same inputs to
    // the next.
    let latencies: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.latencies.iter().flatten())
        .map(Duration::as_secs_f64)
        .collect();
    let latency = |q: f64| {
        if latencies.is_empty() {
            per_run(&|r| r.wall.as_secs_f64())
        } else {
            percentile(&latencies, q)
        }
    };
    out.attempted = events.len() as u64;
    out.failed = failed_events.iter().filter(|&&f| f).count() as u64;
    let walls: Vec<String> = runs
        .iter()
        .map(|r| format!("{:.3}", r.wall.as_secs_f64()))
        .collect();
    for r in &runs {
        let lat: Vec<String> = r
            .latencies
            .iter()
            .map(|l| l.map_or("-".into(), |d| format!("{:.3}", d.as_secs_f64())))
            .collect();
        out.note(format!("event_latencies_s [{}]", lat.join(", ")));
    }
    out.note(format!(
        "batches {} walls_s [{}] points {points} scale {scale}",
        runs.len(),
        walls.join(", ")
    ));
    out.metric(
        "points_per_s",
        per_run(&|r| points as f64 / r.wall.as_secs_f64()),
        "points/s",
    );
    out.metric(
        "read_mb_per_s",
        per_run(&|r| r.read_bytes as f64 / 1e6 / r.wall.as_secs_f64()),
        "MB/s",
    );
    out.metric("latency_p50_s", latency(0.5), "s");
    out.metric("latency_p80_s", latency(0.8), "s");
    out.metric("cpu_s", per_run(&|r| r.cpu.as_secs_f64()), "s");
    out.metric(
        "peak_rss_mb",
        runs.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max),
        "MB",
    );
    out.metric(
        "work_bytes_per_point",
        per_run(&|r| r.work_bytes as f64) / points as f64,
        "bytes/point",
    );
    out.metric("setup_s", pool_start.as_secs_f64() + median(&setup), "s");
    Ok(())
}

/// Products are byte-identical across executors: runs the same seed's
/// events at smoke scale through `run_batch_dag` and through `run_batch`
/// with the optimized sequential executor, and returns the events whose
/// work trees differ.
fn cross_executor_check(scratch: &Scratch, seed: u64) -> Result<Vec<(usize, String)>, String> {
    let events = inputs::generate(&scratch.path("smoke-in"), SMOKE_SCALE, seed)?;
    let items = inputs::batch_items(&events);
    let config = PipelineConfig::default();
    let (dag, seq) = (scratch.path("smoke-dag"), scratch.path("smoke-seq"));
    let dag_err = arp_core::run_batch_dag(&items, &dag, &config, ReadyOrder::CriticalPath).err();
    let seq_err = arp_core::run_batch(&items, &seq, &config, ImplKind::SequentialOptimized).err();
    let mut bad = Vec::new();
    for (e, event) in events.iter().enumerate() {
        let a = inputs::tree_digest(&dag.join(&event.label))?;
        let b = inputs::tree_digest(&seq.join(&event.label))?;
        if a != b {
            let why = dag_err
                .as_ref()
                .or(seq_err.as_ref())
                .map_or_else(|| "products differ".to_string(), |e| e.to_string());
            bad.push((
                e,
                format!("super-DAG {a:016x} vs sequential {b:016x}: {why}"),
            ));
        }
    }
    for dir in ["smoke-in", "smoke-dag", "smoke-seq"] {
        inputs::remove(&scratch.path(dir));
    }
    Ok(bad)
}
