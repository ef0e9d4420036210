//! Benchmark of the arp pipeline, driven in-process through its public API.
//!
//! ```text
//! perfbench --workload <batch6-dag|batch6-seq|archive-query> --seed <n>
//!           --seconds <s> --trace <0|1> [--scale <f>]
//! ```
//!
//! With `--trace 0` the run measures the workload's end-to-end metrics;
//! with `--trace 1` it measures every per-layer metric instead. Either way
//! it checks the outputs, prints one `metric <name> <value> <unit>` line
//! per metric and, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--scale` overrides the
//! workload's scale for smoke runs. See `README.md`.

mod archive;
mod inputs;
mod layers;
mod pipeline;
mod probe;
mod report;
mod spans;

use pipeline::Executor;
use report::Outcome;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        scale: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--scale" => {
                let scale: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err(bad(&"must be in (0, 1]"));
                }
                args.scale = Some(scale);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let default_scale = match args.workload.as_str() {
        "batch6-seq" => 0.5,
        "batch6-dag" | "archive-query" => 0.25,
        other => {
            return Err(format!(
                "unknown workload {other:?} (batch6-dag, batch6-seq, archive-query)"
            ))
        }
    };
    let scale = match (args.scale, args.trace) {
        (Some(scale), _) => scale,
        (None, true) => layers::SCALE,
        (None, false) => default_scale,
    };
    let mut out = Outcome::new();
    out.note(format!(
        "workload {} seed {} scale {scale} trace {} nproc {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        probe::nproc()
    ));
    if args.trace {
        layers::run(&args.workload, scale, args.seed, &mut out)?;
        return Ok(out);
    }
    match args.workload.as_str() {
        "batch6-dag" => {
            pipeline::run(Executor::SuperDag, scale, args.seed, args.seconds, &mut out)?
        }
        "batch6-seq" => pipeline::run(
            Executor::Sequential,
            scale,
            args.seed,
            args.seconds,
            &mut out,
        )?,
        _ => archive::run(scale, args.seed, args.seconds, &mut out)?,
    }
    Ok(out)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(out) => {
            out.print();
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
