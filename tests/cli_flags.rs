//! CLI flag validation: every `arp` subcommand rejects a flag it does not
//! read, and every flag the documented and CI-driven invocations use is
//! still accepted.

use std::collections::BTreeSet;
use std::process::{Command, Output};

const SUBCOMMANDS: &[&str] = &[
    "generate",
    "run",
    "verify",
    "inspect",
    "query",
    "summary",
    "batch",
    "profile",
    "trace-check",
    "metrics",
    "diag-check",
    "postmortem",
];

fn arp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_arp"))
        .args(args)
        .output()
        .expect("spawn arp")
}

#[test]
fn misspelt_flag_is_rejected_before_any_work() {
    let base = std::env::temp_dir().join(format!("arp-cli-typo-{}", std::process::id()));
    let work = base.join("w");
    let out = arp(&[
        "run",
        "--in",
        base.to_str().unwrap(),
        "--work",
        work.to_str().unwrap(),
        "--dsp-backnd",
        "scalar",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --dsp-backnd for `arp run`"),
        "{stderr}"
    );
    assert!(!work.exists(), "a rejected command must not start the run");

    // `run` and `batch` never read a thread count.
    let out = arp(&["batch", "--root", "r", "--work", "w", "--threads", "1"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --threads"), "{stderr}");
}

/// Every `(subcommand, --flag)` pair in the `arp` invocations of a
/// document: shell line continuations are joined, and flags are collected
/// up to the first redirection or command separator.
fn documented_flags(text: &str) -> BTreeSet<(String, String)> {
    let mut pairs = BTreeSet::new();
    let joined = text.replace("\\\n", " ");
    for line in joined.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        for (i, token) in tokens.iter().enumerate() {
            let is_arp = *token == "arp" || token.ends_with("/arp") || token.ends_with("`arp");
            if !is_arp {
                continue;
            }
            let mut rest = tokens[i + 1..].iter().peekable();
            if rest.peek() == Some(&&"--") {
                rest.next();
            }
            let Some(command) = rest.next().filter(|c| SUBCOMMANDS.contains(c)) else {
                continue;
            };
            for token in rest {
                if ["|", "||", "&&", ";", "&"].contains(token)
                    || token.starts_with('>')
                    || token.starts_with("2>")
                {
                    break;
                }
                if let Some(flag) = token.strip_prefix("--") {
                    let flag = flag.trim_end_matches(|c: char| !c.is_ascii_alphanumeric());
                    pairs.insert((command.to_string(), flag.to_string()));
                }
            }
        }
    }
    pairs
}

#[test]
fn every_flag_in_ci_and_readme_is_accepted() {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut pairs = BTreeSet::new();
    for doc in [".github/workflows/ci.yml", "README.md"] {
        let text = std::fs::read_to_string(format!("{root}/{doc}")).unwrap();
        let found = documented_flags(&text);
        assert!(!found.is_empty(), "no arp invocations found in {doc}");
        pairs.extend(found);
    }
    for (command, flag) in &pairs {
        // The probe flag is unknown everywhere, so validation fails before
        // any work starts; the error must name the probe alone.
        let out = arp(&[command, &format!("--{flag}"), "x", "--zz-probe", "x"]);
        assert!(!out.status.success(), "arp {command} --{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag --zz-probe for `arp {command}`")),
            "arp {command} rejects --{flag}: {stderr}"
        );
    }
}
