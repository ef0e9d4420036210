//! Cross-crate integration: the five pipeline implementations are
//! output-equivalent and deterministic.

use arp_core::output::{diff_snapshots, snapshot};
use arp_core::{run_pipeline, ImplKind, PipelineConfig, RunContext};
use arp_synth::{paper_event, write_event_inputs};
use std::path::PathBuf;

fn setup(tag: &str, event_index: usize, scale: f64) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("arp-it-{tag}-{}", std::process::id()));
    let input = base.join("inputs");
    std::fs::create_dir_all(&input).unwrap();
    let event = paper_event(event_index, scale);
    write_event_inputs(&event, &input).unwrap();
    (base, input)
}

fn fast_config() -> PipelineConfig {
    PipelineConfig::fast()
}

#[test]
fn all_five_implementations_produce_identical_final_products() {
    let (base, input) = setup("equiv", 0, 0.004);
    let mut reference = None;
    for kind in ImplKind::ALL {
        let work = base.join(format!("work-{kind:?}"));
        let ctx = RunContext::new(&input, &work, fast_config()).unwrap();
        run_pipeline(&ctx, kind).unwrap();
        let snap = snapshot(&work).unwrap();
        assert!(!snap.is_empty());
        match &reference {
            None => reference = Some(snap),
            Some(r) => {
                let diffs = diff_snapshots(r, &snap);
                assert!(diffs.is_empty(), "{kind:?} diverged: {diffs:#?}");
            }
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn reruns_are_deterministic() {
    let (base, input) = setup("determ", 0, 0.003);
    let mut snaps = Vec::new();
    for run in 0..2 {
        let work = base.join(format!("work-{run}"));
        let ctx = RunContext::new(&input, &work, fast_config()).unwrap();
        run_pipeline(&ctx, ImplKind::FullyParallel).unwrap();
        snaps.push(snapshot(&work).unwrap());
    }
    assert!(diff_snapshots(&snaps[0], &snaps[1]).is_empty());
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn dag_matches_sequential_optimized_on_every_paper_event() {
    // The tentpole guarantee: deleting the stage barriers changes the
    // schedule, never the artifacts — on all six paper events.
    for event_index in 0..6 {
        let (base, input) = setup(&format!("dagev{event_index}"), event_index, 0.002);
        let work_seq = base.join("w-seq");
        let ctx_seq = RunContext::new(&input, &work_seq, fast_config()).unwrap();
        run_pipeline(&ctx_seq, ImplKind::SequentialOptimized).unwrap();

        let work_dag = base.join("w-dag");
        let ctx_dag = RunContext::new(&input, &work_dag, fast_config()).unwrap();
        let report = run_pipeline(&ctx_dag, ImplKind::DagParallel).unwrap();

        let diffs = diff_snapshots(&snapshot(&work_seq).unwrap(), &snapshot(&work_dag).unwrap());
        assert!(diffs.is_empty(), "event {event_index} diverged: {diffs:#?}");
        assert_eq!(report.processes.len(), 17);
        assert!(report.dag.is_some());
        std::fs::remove_dir_all(&base).unwrap();
    }
}

#[test]
fn dag_schedule_never_loses_to_the_barrier_plan() {
    // Fig. 9's stage plan is one linearization of the dependency graph, so
    // dependency-driven scheduling can only remove waiting, never add it.
    // Both makespans come from the same per-node durations of one run,
    // making the comparison exact for every paper event.
    for event_index in 0..6 {
        let (base, input) = setup(&format!("dagsim{event_index}"), event_index, 0.002);
        let ctx = RunContext::new(&input, base.join("w"), fast_config()).unwrap();
        let report = run_pipeline(&ctx, ImplKind::DagParallel).unwrap();
        let dag = report.dag.expect("DAG runs carry a schedule report");
        assert!(
            dag.dag_makespan <= dag.barrier_makespan,
            "event {event_index}: dag {:?} > barrier {:?}",
            dag.dag_makespan,
            dag.barrier_makespan
        );
        assert!(dag.critical_path_len <= dag.dag_makespan);
        std::fs::remove_dir_all(&base).unwrap();
    }
}

#[test]
fn single_station_event_works_end_to_end() {
    let base = std::env::temp_dir().join(format!("arp-it-single-{}", std::process::id()));
    let input = base.join("inputs");
    std::fs::create_dir_all(&input).unwrap();
    let mut event = paper_event(0, 0.004);
    event.stations.truncate(1);
    write_event_inputs(&event, &input).unwrap();

    for kind in ImplKind::ALL {
        let work = base.join(format!("w-{kind:?}"));
        let ctx = RunContext::new(&input, &work, fast_config()).unwrap();
        let report = run_pipeline(&ctx, kind).unwrap();
        assert_eq!(report.v1_files, 1);
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn duhamel_and_nigam_jennings_runs_both_complete() {
    // The two response-spectrum kernels produce numerically different R
    // files (different integration), but both pipelines must complete.
    use arp_dsp::backend::DspBackend;
    use arp_dsp::respspec::{log_spaced_periods, response_spectrum_with, ResponseMethod};
    let (base, input) = setup("kernels", 0, 0.004);
    for method in [ResponseMethod::NigamJennings, ResponseMethod::Duhamel] {
        let mut config = fast_config();
        config.response_method = method;
        let work = base.join(format!("w-{method:?}"));
        let ctx = RunContext::new(&input, &work, config).unwrap();
        run_pipeline(&ctx, ImplKind::SequentialOptimized).unwrap();
    }
    std::fs::remove_dir_all(&base).unwrap();

    // The O(D²)-per-period kernel costs more than the O(D) recurrence.
    // Timed on the kernel alone, on a record long enough (D = 2048) that
    // the gap is about a thousandfold, so I/O and host load cannot hide it.
    let dt = 0.01;
    let acc: Vec<f64> = (0..2048)
        .map(|i| (i as f64 * 0.07).sin() * (-(i as f64 - 600.0).powi(2) / 2e5).exp())
        .collect();
    let periods = log_spaced_periods(0.04, 15.0, 10);
    let time = |method| {
        let t0 = std::time::Instant::now();
        response_spectrum_with(&acc, dt, &periods, 0.05, method, DspBackend::Auto).unwrap();
        t0.elapsed()
    };
    let nigam_jennings = time(ResponseMethod::NigamJennings);
    let duhamel = time(ResponseMethod::Duhamel);
    assert!(
        duhamel > nigam_jennings,
        "Duhamel {duhamel:?} should dwarf Nigam-Jennings {nigam_jennings:?}"
    );
}
