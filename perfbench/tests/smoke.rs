//! Smoke runs of the benchmark binary at a tiny scale: every workload
//! prints every metric `BENCHMARK.json` names, finite, with no failures;
//! an injected node panic is counted as a failure, not an abort.

use std::path::PathBuf;
use std::process::Command;

const SMOKE_SCALE: &str = "0.01";

/// Metric names of one section (`end_to_end` or `per_layer`) of the
/// repository's `BENCHMARK.json`.
fn metric_names(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

/// Runs one workload in its own directory and returns its last output
/// line (the JSON result).
fn run(workload: &str, trace: &str, inject_panic: Option<&str>) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{workload}-{trace}-{}",
        inject_panic.is_some()
    ));
    std::fs::create_dir_all(&dir).expect("smoke directory");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(&dir)
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .args(["--scale", SMOKE_SCALE]);
    match inject_panic {
        Some(node) => cmd.env("ARP_INJECT_PANIC", node),
        None => cmd.env_remove("ARP_INJECT_PANIC"),
    };
    let output = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{workload} exited with {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        !dir.join(".bench_work")
            .read_dir()
            .is_ok_and(|mut d| d.next().is_some()),
        "{workload} left its scratch directory behind"
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// The number after `"key": ` in the result line.
fn number(result: &str, key: &str) -> f64 {
    let rest = &result[result
        .find(key)
        .unwrap_or_else(|| panic!("{key} missing from {result}"))
        + key.len()..];
    let rest = rest.trim_start_matches(['"', ':', ' ']);
    let end = rest.find([',', '}']).expect("number ends");
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{key}: {e} in {result}"))
}

fn assert_metrics(result: &str, names: &[String]) {
    for name in names {
        let value = number(result, &format!("\"{name}\": {{\"value\""));
        assert!(value.is_finite(), "{name} = {value}");
    }
}

#[test]
fn clean_smoke_runs_report_every_metric() {
    let end_to_end = metric_names("end_to_end");
    let per_layer = metric_names("per_layer");
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    for workload in ["batch6-dag", "batch6-seq", "archive-query"] {
        for (trace, names) in [("0", &end_to_end), ("1", &per_layer)] {
            let result = run(workload, trace, None);
            assert!(
                result.contains("\"correct\": true"),
                "{workload} trace {trace}: {result}"
            );
            assert_eq!(number(&result, "\"failed\""), 0.0, "{workload}: {result}");
            assert_metrics(&result, names);
        }
    }
}

#[test]
fn injected_panic_counts_as_failed_and_still_reports() {
    let result = run("batch6-dag", "0", Some("ev3/#16"));
    assert!(result.contains("\"correct\": false"), "{result}");
    let failed = number(&result, "\"failed\"");
    let attempted = number(&result, "\"attempted\"");
    assert!(failed > 0.0 && failed <= attempted, "{result}");
    assert_metrics(&result, &metric_names("end_to_end"));
}
