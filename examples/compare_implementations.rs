//! Runs one event through all five pipeline implementations, verifies they
//! produce byte-identical final products, and prints the timing comparison
//! (a one-event slice of the paper's Table I).
//!
//! ```text
//! cargo run --release --example compare_implementations
//! ```

use arp_core::output::{diff_snapshots, snapshot};
use arp_core::{run_pipeline_labeled, ImplKind, PipelineConfig, RunContext};
use arp_synth::{paper_event, write_event_inputs};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let event = paper_event(2, 0.02); // Jul'19: 9 stations
    let base = std::env::temp_dir().join(format!("arp-compare-{}", std::process::id()));
    let input_dir = base.join("inputs");
    std::fs::create_dir_all(&input_dir)?;
    write_event_inputs(&event, &input_dir)?;

    // Times are wall clock on this host's shared pool; speedups are bounded
    // by its core count.
    let config = PipelineConfig::default();

    println!(
        "event {}: {} stations, {} data points\n",
        event.id,
        event.v1_file_count(),
        event.total_data_points()
    );
    println!("{:<22} {:>12} {:>14}", "implementation", "time", "speedup");

    let mut baseline = None;
    let mut reference_snapshot = None;
    for kind in ImplKind::ALL {
        let work = base.join(format!("work-{}", kind.label().replace([' ', '.'], "")));
        let ctx = RunContext::new(&input_dir, &work, config.clone())?;
        let report = run_pipeline_labeled(&ctx, kind, &event.id)?;

        let snap = snapshot(&work)?;
        match &reference_snapshot {
            None => reference_snapshot = Some(snap),
            Some(reference) => {
                let diffs = diff_snapshots(reference, &snap);
                assert!(
                    diffs.is_empty(),
                    "{} diverged from the original outputs: {diffs:?}",
                    kind.label()
                );
            }
        }

        let secs = report.total.as_secs_f64();
        let speedup = match baseline {
            None => {
                baseline = Some(secs);
                1.0
            }
            Some(b) => b / secs,
        };
        println!("{:<22} {:>10.3} s {:>13.2}x", kind.label(), secs, speedup);
    }

    println!("\nall five implementations produced byte-identical final products ✓");
    std::fs::remove_dir_all(&base)?;
    Ok(())
}
