//! I/O-lane integration: routing pure-I/O DAG nodes to a dedicated worker
//! lane changes *when* nodes run, never what they produce — and a mid-batch
//! failure is attributed to its event without corrupting siblings.

use arp_core::output::{diff_snapshots, snapshot};
use arp_core::process::filter::CorrectionPass;
use arp_core::process::{filter, filterinit, flags, gather, separate};
use arp_core::{run_batch_dag, BatchItem, PipelineConfig, PipelineError, ReadyOrder, RunContext};
use arp_synth::{paper_event, write_event_inputs};
use std::path::{Path, PathBuf};
use std::process::Command;

fn stage_two_events(base: &Path) -> Vec<BatchItem> {
    let mut items = Vec::new();
    for (i, label) in ["ev-a", "ev-b"].iter().enumerate() {
        let dir = base.join("batch").join(label);
        std::fs::create_dir_all(&dir).unwrap();
        write_event_inputs(&paper_event(i, 0.002), &dir).unwrap();
        items.push(BatchItem {
            label: label.to_string(),
            input_dir: dir,
        });
    }
    items
}

/// Every `tmp-*` staging folder found anywhere under `root`.
fn staging_dirs(root: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.filter_map(|e| e.ok()) {
            if !entry.file_type().map(|t| t.is_dir()).unwrap_or(false) {
                continue;
            }
            let path = entry.path();
            if entry.file_name().to_string_lossy().starts_with("tmp-") {
                found.push(path.clone());
            }
            stack.push(path);
        }
    }
    found
}

#[test]
fn lane_on_and_off_products_are_byte_identical() {
    // The acceptance bar for the I/O lane: `--io-threads 2` (lane on) and
    // `--io-threads 0` (lane off, the classic single-queue schedule) must
    // write byte-identical products. Each configuration runs in its own
    // process because the lane is sized when the global pool first spins up.
    let base = std::env::temp_dir().join(format!("arp-iolane-equiv-{}", std::process::id()));
    let items = stage_two_events(&base);
    let root = base.join("batch");

    let run = |io_threads: usize, work: &Path| -> String {
        let out = Command::new(env!("CARGO_BIN_EXE_arp"))
            .args([
                "batch",
                "--root",
                root.to_str().unwrap(),
                "--work",
                work.to_str().unwrap(),
                "--impl",
                "dag",
                "--io-threads",
                &io_threads.to_string(),
            ])
            .output()
            .expect("spawn arp batch");
        assert!(
            out.status.success(),
            "io_threads={io_threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let work_on = base.join("work-lane-on");
    let work_off = base.join("work-lane-off");
    let stdout_on = run(2, &work_on);
    run(0, &work_off);
    // The decomposition table reports the lane comparison.
    assert!(stdout_on.contains("with I/O lane"), "{stdout_on}");

    for item in &items {
        let diffs = diff_snapshots(
            &snapshot(&work_off.join(&item.label)).unwrap(),
            &snapshot(&work_on.join(&item.label)).unwrap(),
        );
        assert!(
            diffs.is_empty(),
            "event {} diverged between lane-off and lane-on: {diffs:#?}",
            item.label
        );
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn failed_event_is_attributed_and_isolated() {
    // Corrupt one event's data mid-file (the header stays valid, so the
    // failure happens inside the scheduled super-graph, not during setup)
    // and check three things: the error names the failing event, the
    // sibling event's finished products are byte-identical to a clean run,
    // and no staging folders survive.
    let base = std::env::temp_dir().join(format!("arp-iolane-isol-{}", std::process::id()));
    let items = stage_two_events(&base);

    let clean_work = base.join("work-clean");
    run_batch_dag(
        &items,
        &clean_work,
        &PipelineConfig::fast(),
        ReadyOrder::CriticalPath,
    )
    .unwrap();

    // Keep the BEGIN ACC header but replace the first data line with junk.
    let victim = items[1].input_dir.join(
        std::fs::read_dir(&items[1].input_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().ends_with(".v1"))
            .unwrap()
            .file_name(),
    );
    let mut text = std::fs::read_to_string(&victim).unwrap();
    let pos = text.find("BEGIN ACC").unwrap();
    let line_start = text[pos..].find('\n').unwrap() + pos + 1;
    let line_end = text[line_start..].find('\n').unwrap() + line_start;
    text.replace_range(line_start..line_end, "1.0 not_a_number 2.0");
    std::fs::write(&victim, text).unwrap();

    let failed_work = base.join("work-failed");
    let err = run_batch_dag(
        &items,
        &failed_work,
        &PipelineConfig::fast(),
        ReadyOrder::CriticalPath,
    )
    .unwrap_err();
    // The failure is attributed to the event's node...
    assert!(matches!(err, PipelineError::Node { .. }), "{err}");
    assert!(err.to_string().contains("ev-b"), "{err}");
    // ...the healthy sibling is not contaminated. Fail-fast skips only
    // nodes that have not started, so every product ev-a wrote is
    // complete: it equals the clean run's, or, for the products a later
    // node rewrites (#2/#10 the filter parameters, #4/#13 the V2 records
    // and max values), the version ev-a leaves after the default pass.
    let partial_work = base.join("work-partial");
    let ctx = RunContext::new(&items[0].input_dir, &partial_work, PipelineConfig::fast()).unwrap();
    flags::init_flags(&ctx).unwrap();
    gather::gather_inputs(&ctx, false).unwrap();
    filterinit::init_filter_params(&ctx).unwrap();
    separate::separate_components(&ctx, false).unwrap();
    filter::correct_signals(&ctx, CorrectionPass::Default, false).unwrap();
    let clean = snapshot(&clean_work.join("ev-a")).unwrap();
    let partial = snapshot(&partial_work).unwrap();
    let failed = snapshot(&failed_work.join("ev-a")).unwrap();
    for (name, hash) in &failed {
        assert!(
            clean.get(name) == Some(hash) || partial.get(name) == Some(hash),
            "ev-a product {name} diverged after ev-b failed"
        );
    }
    // ...and no staging folders leak from the interrupted protocol.
    assert_eq!(staging_dirs(&failed_work), Vec::<PathBuf>::new());
    std::fs::remove_dir_all(&base).unwrap();
}
