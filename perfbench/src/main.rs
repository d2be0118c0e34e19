#![forbid(unsafe_code)]
//! Command line of the benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload idc_pr|local_km|host_pr [--seed N] [--seconds S]
//!           [--trace 0|1] [--golden DIR] [--record-golden]
//! ```
//!
//! Prints a `{"detail": ...}` line, then the result line
//! `{"correct", "attempted", "failed", "metrics"}` last. Exits 0 when the
//! run finished, whether or not its operations passed; 2 on bad arguments;
//! 1 when `--record-golden` could not record.

use perfbench::harness::{run, Options};
use perfbench::workload::Bench;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload idc_pr|local_km|host_pr [--seed N] [--seconds S] \
         [--trace 0|1] [--golden DIR] [--record-golden]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut bench = None;
    let mut seed = 42u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut golden_dir = None;
    let mut record = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--record-golden" {
            record = true;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => Bench::parse(&value).map(|b| bench = Some(b)).is_some(),
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s >= 0.0)
                .map(|s| seconds = s)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            "--golden" => {
                golden_dir = Some(PathBuf::from(value.clone()));
                true
            }
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(bench) = bench else {
        return usage("--workload is required");
    };
    let opts = Options {
        bench,
        seed,
        seconds,
        trace,
        scale: bench.default_scale(),
        golden_dir,
    };

    let outcome = run(&opts);
    for failure in &outcome.tally.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    if record {
        let (Some(path), Some(text)) = (opts.golden_path(), outcome.tally.reference()) else {
            eprintln!("perfbench: --record-golden needs --golden and a completed run");
            return ExitCode::from(1);
        };
        if !outcome.correct() {
            eprintln!("perfbench: not recording a golden from a failing run");
            return ExitCode::from(1);
        }
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!("perfbench: recorded {}", path.display());
    }
    println!("{{\"detail\": {}}}", outcome.detail);
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
