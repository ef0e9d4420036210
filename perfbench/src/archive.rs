//! The `archive-query` workload: a products archive of the six paper events
//! is built outside the measurement, then a fixed mix of `Query` scans per
//! event directory is timed, one query after another (a closed loop with
//! one client).

use crate::inputs::{self, Event, Scratch};
use crate::probe;
use crate::report::{median, percentile, Outcome};
use arp_core::{ImplKind, PipelineConfig};
use arp_formats::{Filter, Query, RecordEncoder, RecordKind, RecordReader};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Mixes (one pass over the 30 queries) repeat until the run's seconds
/// have elapsed and at least this many queries ran, so the 80th
/// percentile has at least 12 samples beyond it.
const MIN_QUERIES: usize = 60;

/// Repetitions of the query planning measured as `setup_s`, before the
/// first mix and after each one, so that the median does not hang on the
/// host's speed at one moment.
const SETUP_REPS: usize = 7;

/// Period band of the response-spectrum query (s).
const BAND: (f64, f64) = (0.1, 1.0);

/// The five queries run against every event directory, in mix order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueryKind {
    /// Every record, fully decoded.
    Full,
    /// V2 records with PGA at or above the event's median PGA.
    Pga,
    /// Response spectra overlapping `BAND`.
    Band,
    /// Every record of one station.
    Station,
    /// All V2 records, re-emitted through `RecordEncoder`.
    Reemit,
}

const MIX: [QueryKind; 5] = [
    QueryKind::Full,
    QueryKind::Pga,
    QueryKind::Band,
    QueryKind::Station,
    QueryKind::Reemit,
];

/// What one event directory holds, read with a full decode of every
/// record outside the measurement.
struct EventFacts {
    dir: PathBuf,
    pga_threshold: f64,
    station: String,
    expected: [usize; 5],
}

fn filters(kind: QueryKind, facts: &EventFacts) -> Vec<Filter> {
    match kind {
        QueryKind::Full => Vec::new(),
        QueryKind::Pga => vec![Filter::pga_range(Some(facts.pga_threshold), None)],
        QueryKind::Band => vec![Filter::period_band(Some(BAND.0), Some(BAND.1))],
        QueryKind::Station => vec![Filter::Station(facts.station.clone())],
        QueryKind::Reemit => vec![Filter::Kind(RecordKind::V2)],
    }
}

/// Decodes every record of an event directory and counts, with
/// record-level `Filter::matches`, how many each query must return.
fn event_facts(dir: &Path) -> Result<EventFacts, String> {
    let files = Query::new(dir)
        .candidate_files()
        .map_err(|e| e.to_string())?;
    let mut pgas = Vec::new();
    let mut station = None;
    for file in &files {
        for record in RecordReader::open(file).map_err(|e| e.to_string())? {
            let record = record.map_err(|e| e.to_string())?;
            if record.kind() == RecordKind::V2 {
                pgas.push(record.pga().unwrap_or(0.0));
                station.get_or_insert_with(|| record.station().to_string());
            }
        }
    }
    let mut facts = EventFacts {
        dir: dir.to_path_buf(),
        pga_threshold: median(&pgas),
        station: station.ok_or_else(|| format!("{}: no V2 records", dir.display()))?,
        expected: [0; 5],
    };
    for file in &files {
        for record in RecordReader::open(file).map_err(|e| e.to_string())? {
            let record = record.map_err(|e| e.to_string())?;
            for (k, kind) in MIX.iter().enumerate() {
                if filters(*kind, &facts).iter().all(|f| f.matches(&record)) {
                    facts.expected[k] += 1;
                }
            }
        }
    }
    Ok(facts)
}

/// Builds the products archive the queries read: the six events through
/// the optimized sequential executor, each checked with `verify_run`. The
/// sequential build keeps the process on one core, as the queries are.
pub fn build_archive(events: &[Event], archive: &Path) -> Result<(), String> {
    let items = inputs::batch_items(events);
    let config = PipelineConfig::default();
    arp_core::run_batch(&items, archive, &config, ImplKind::SequentialOptimized)
        .map_err(|e| format!("archive preparation: {e}"))?;
    match crate::pipeline::verify_events(events, archive, &config).first() {
        Some((e, why)) => Err(format!("archive preparation: {}: {why}", events[*e].label)),
        None => Ok(()),
    }
}

/// True when both files exist and hold the same bytes.
fn same_bytes(a: &Path, b: &Path) -> bool {
    matches!((std::fs::read(a), std::fs::read(b)), (Ok(x), Ok(y)) if x == y)
}

/// One timed query.
struct QueryRun {
    latency: Duration,
    cpu: Duration,
    read_bytes: u64,
    peak_rss_mb: f64,
    points: usize,
    matches: usize,
    /// Re-emitted files as `(source, copy)` pairs.
    emitted: Vec<(PathBuf, PathBuf)>,
    error: Option<String>,
}

fn run_query(query: Query, emit_dir: Option<&Path>) -> QueryRun {
    probe::reset_peak_rss();
    let cpu0 = probe::cpu_time();
    let read0 = probe::read_bytes();
    let t0 = Instant::now();
    let mut run = QueryRun {
        latency: Duration::ZERO,
        cpu: Duration::ZERO,
        read_bytes: 0,
        peak_rss_mb: 0.0,
        points: 0,
        matches: 0,
        emitted: Vec::new(),
        error: None,
    };
    let scan = || -> Result<(), String> {
        for hit in query.run().map_err(|e| e.to_string())? {
            let hit = hit.map_err(|e| e.to_string())?;
            run.matches += 1;
            run.points += hit.record.data_points();
            if let Some(dir) = emit_dir {
                let copy = dir.join(hit.path.file_name().unwrap_or_default());
                let mut enc = RecordEncoder::create(&copy).map_err(|e| e.to_string())?;
                enc.write_record(&hit.record).map_err(|e| e.to_string())?;
                enc.finish().map_err(|e| e.to_string())?;
                run.emitted.push((hit.path, copy));
            }
        }
        Ok(())
    };
    run.error = scan().err();
    run.latency = t0.elapsed();
    run.cpu = probe::cpu_time() - cpu0;
    run.read_bytes = probe::read_bytes() - read0;
    run.peak_rss_mb = probe::peak_rss_mb();
    run
}

/// Runs the workload and fills `out`.
pub fn run(scale: f64, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let scratch = Scratch::new("archive-query")?;
    let t_start = Instant::now();
    let events = inputs::generate(&scratch.path("in"), scale, seed)?;
    let archive = scratch.path("archive");
    let t_generated = Instant::now();
    build_archive(&events, &archive)?;
    let t_built = Instant::now();
    let facts: Vec<EventFacts> = events
        .iter()
        .map(|e| event_facts(&archive.join(&e.label)))
        .collect::<Result<_, _>>()?;
    probe::flush_disk();
    let t_facts = Instant::now();
    // One entry per query of a pass: event, kind, expected matches, query.
    let plan = || -> Result<Vec<(usize, QueryKind, usize, Query)>, String> {
        let mut plan = Vec::with_capacity(facts.len() * MIX.len());
        for (e, f) in facts.iter().enumerate() {
            for (kind, expected) in MIX.into_iter().zip(f.expected) {
                let query = Query::new(&f.dir).filters(filters(kind, f));
                query.candidate_files().map_err(|e| e.to_string())?;
                plan.push((e, kind, expected, query));
            }
        }
        Ok(plan)
    };
    let mut setup = Vec::new();
    let time_planning = |setup: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            std::hint::black_box(plan()?);
            setup.push(t0.elapsed().as_secs_f64());
        }
        Ok(())
    };
    time_planning(&mut setup)?;
    let plan = plan()?;

    let emit_root = scratch.path("emit");
    let host0 = probe::HostSample::now();
    let t_measure = Instant::now();
    let mut runs: Vec<QueryRun> = Vec::new();
    let mut measured = Duration::ZERO;
    let mut failed = 0u64;
    let mut emitted_bytes = 0u64;
    let mut emitted_points = 0usize;
    let mut mix_cpu = Vec::new();
    let mut mix_walls = Vec::new();
    while runs.len() < MIN_QUERIES || measured.as_secs_f64() < seconds {
        let first = runs.len();
        let measured0 = measured;
        for (e, kind, expected, query) in &plan {
            let emit_dir = (*kind == QueryKind::Reemit).then(|| emit_root.join(&events[*e].label));
            let run = run_query(query.clone(), emit_dir.as_deref());
            measured += run.latency;
            let mut wrong = run.error.clone();
            if wrong.is_none() && run.matches != *expected {
                wrong = Some(format!("{} matches, expected {expected}", run.matches));
            }
            if *kind == QueryKind::Reemit {
                for (source, copy) in &run.emitted {
                    emitted_bytes += std::fs::metadata(copy).map_or(0, |m| m.len());
                    if wrong.is_none() && !same_bytes(source, copy) {
                        wrong = Some(format!(
                            "{} re-emitted with different bytes",
                            source.display()
                        ));
                    }
                }
                emitted_points += run.points;
                // Each pass writes fresh files: a rewrite over old copies
                // would make ext4 flush them to disk at once.
                if let Some(dir) = &emit_dir {
                    inputs::remove(dir);
                }
            }
            if let Some(why) = wrong {
                failed += 1;
                out.note(format!("query {} {kind:?}: {why}", events[*e].label));
            }
            runs.push(run);
        }
        mix_cpu.push(
            runs[first..]
                .iter()
                .map(|r| r.cpu.as_secs_f64())
                .sum::<f64>(),
        );
        mix_walls.push(format!("{:.3}", (measured - measured0).as_secs_f64()));
        time_planning(&mut setup)?;
    }
    let peak_rss_mb = runs.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max);
    let threads = probe::threads();
    let host1 = probe::HostSample::now();
    out.note(format!(
        "noise {}",
        probe::noise_record(host0, host1, threads, scratch.root())
    ));

    out.note(format!(
        "phases generate_s {:.1} archive_s {:.1} reference_s {:.1} setup_s {:.1} mix_s {:.1}",
        (t_generated - t_start).as_secs_f64(),
        (t_built - t_generated).as_secs_f64(),
        (t_facts - t_built).as_secs_f64(),
        (t_measure - t_facts).as_secs_f64(),
        t_measure.elapsed().as_secs_f64()
    ));
    let wall = measured.as_secs_f64();
    let latencies: Vec<f64> = runs.iter().map(|r| r.latency.as_secs_f64()).collect();
    out.attempted = runs.len() as u64;
    out.failed = failed;
    out.note(format!(
        "mixes {} walls_s [{}] queries {} archive_bytes {} scale {scale}",
        mix_cpu.len(),
        mix_walls.join(", "),
        runs.len(),
        inputs::dir_bytes(&archive)
    ));
    out.metric(
        "points_per_s",
        runs.iter().map(|r| r.points).sum::<usize>() as f64 / wall,
        "points/s",
    );
    out.metric(
        "read_mb_per_s",
        runs.iter().map(|r| r.read_bytes).sum::<u64>() as f64 / 1e6 / wall,
        "MB/s",
    );
    out.metric("latency_p50_s", median(&latencies), "s");
    out.metric("latency_p80_s", percentile(&latencies, 0.8), "s");
    out.metric("cpu_s", median(&mix_cpu), "s");
    out.metric("peak_rss_mb", peak_rss_mb, "MB");
    out.metric(
        "work_bytes_per_point",
        emitted_bytes as f64 / emitted_points.max(1) as f64,
        "bytes/point",
    );
    out.metric("setup_s", median(&setup), "s");
    Ok(())
}
