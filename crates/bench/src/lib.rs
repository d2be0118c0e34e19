#![forbid(unsafe_code)]
//! # dl-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (Section V) plus ablations. Each binary prints the same rows
//! or series the paper reports and writes machine-readable results to
//! `target/results/<name>.json`.
//!
//! Run, e.g.:
//!
//! ```text
//! cargo run --release -p dl-bench --bin fig10_p2p
//! cargo run --release -p dl-bench --bin fig10_p2p -- --quick   # small inputs
//! cargo run --release -p dl-bench --bin fig10_p2p -- --scale 14
//! ```

pub mod fidelity;
pub mod sweep;

use dl_engine::stats::geomean;
use dl_engine::Ps;
use serde::Serialize;
use std::io::Write as _;
use sweep::SweepOptions;

/// Common command-line arguments of every experiment binary.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload scale (R-MAT log2 vertices etc.); default 13, `--quick` = 10.
    pub scale: u32,
    /// Input-generation seed.
    pub seed: u64,
    /// Quick mode for smoke-testing.
    pub quick: bool,
    /// Sweep worker threads (`--threads`; falls back to `DL_THREADS`).
    pub threads: Option<usize>,
    /// Sweep artifact directory (`--out`; default `target/sweeps`).
    pub out: Option<std::path::PathBuf>,
    /// Reuse journaled points from an interrupted run (`--resume`).
    pub resume: bool,
    /// Wall-clock watchdog per sweep point (`--point-budget SECS`).
    pub point_budget: Option<std::time::Duration>,
    /// Deterministic engine event budget per run (`--max-events N`).
    pub max_events: Option<u64>,
    /// Deterministic simulated-time budget per run (`--max-sim-ms N`).
    pub max_sim_ms: Option<u64>,
}

const USAGE: &str = "usage: [--scale N] [--seed N] [--quick] [--threads N] [--out DIR]\n       \
                     [--resume] [--point-budget SECS] [--max-events N] [--max-sim-ms N]";

/// Parses the value following `flag`, naming the flag in every error.
fn value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'"))
}

impl Args {
    /// Parses `--scale N`, `--seed N`, `--quick`, `--threads N`, `--out DIR`,
    /// `--resume`, `--point-budget SECS`, `--max-events N`, `--max-sim-ms N`
    /// from `std::env::args`. `--help` prints the usage and exits 0; any
    /// invalid argument prints the error and exits with status 2.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        Self::parse_from(args.into_iter()).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        })
    }

    /// Parses the arguments after the program name. Rejects unknown
    /// arguments, missing or unparsable values, `--scale` above
    /// [`dl_workloads::WorkloadParams::MAX_SCALE`], `--threads 0`, and a
    /// `--point-budget` that is not a positive number of seconds.
    pub fn parse_from(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            scale: 0,
            seed: 42,
            quick: false,
            threads: None,
            out: None,
            resume: false,
            point_budget: None,
            max_events: None,
            max_sim_ms: None,
        };
        let mut scale = None;
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    let s: u32 = value(&mut it, &a)?;
                    let max = dl_workloads::WorkloadParams::MAX_SCALE;
                    if s > max {
                        return Err(format!("--scale must be in 0..={max}, got {s}"));
                    }
                    scale = Some(s);
                }
                "--seed" => args.seed = value(&mut it, &a)?,
                "--quick" => args.quick = true,
                "--threads" => {
                    let n: usize = value(&mut it, &a)?;
                    if n == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    args.threads = Some(n);
                }
                "--out" => args.out = Some(value(&mut it, &a)?),
                "--resume" => args.resume = true,
                "--point-budget" => {
                    let secs: f64 = value(&mut it, &a)?;
                    let budget = Some(secs)
                        .filter(|s| *s > 0.0)
                        .and_then(|s| std::time::Duration::try_from_secs_f64(s).ok())
                        .ok_or_else(|| format!("--point-budget must be positive, got {secs}"))?;
                    args.point_budget = Some(budget);
                }
                "--max-events" => args.max_events = Some(value(&mut it, &a)?),
                "--max-sim-ms" => args.max_sim_ms = Some(value(&mut it, &a)?),
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        args.scale = scale.unwrap_or(if args.quick { 10 } else { 13 });
        Ok(args)
    }

    /// The sweep options these arguments describe.
    pub fn sweep_options(&self) -> SweepOptions {
        SweepOptions {
            threads: self.threads,
            out_dir: self.out.clone(),
            quiet: false,
            resume: self.resume,
            point_budget: self.point_budget,
            halt_after: None,
        }
    }

    /// The deterministic engine budget these arguments describe
    /// (unlimited when neither `--max-events` nor `--max-sim-ms` is given).
    pub fn run_budget(&self) -> dl_engine::RunBudget {
        dl_engine::RunBudget {
            max_events: self.max_events,
            max_sim_ps: self.max_sim_ms.map(|ms| ms.saturating_mul(1_000_000_000)),
        }
    }
}

/// Runs a sweep with this binary's options — applying any deterministic
/// engine budget from `--max-events`/`--max-sim-ms` — exiting with a
/// labeled error message if a point fails (completed points are journaled
/// first, so a rerun with `--resume` picks up where this one stopped).
pub fn run_sweep(mut s: sweep::Sweep, args: &Args) -> sweep::SweepOutcome {
    s.apply_budget(args.run_budget());
    match s.run_with(&args.sweep_options()) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Pretty-prints an aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8) + 2))
            .collect::<String>()
    };
    println!(
        "{}",
        line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// Writes `value` as JSON under `target/results/<name>.json`.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("target/results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = writeln!(
            f,
            "{}",
            serde_json::to_string_pretty(value).unwrap_or_default()
        );
        println!("[saved {}]", path.display());
    }
}

/// Formats a speedup.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Formats simulated time.
pub fn fmt_time(t: Ps) -> String {
    t.to_string()
}

/// Geometric mean over a slice.
pub fn geo(values: &[f64]) -> f64 {
    geomean(values.iter().copied())
}

/// Bandwidth in GB/s from bytes moved over a span.
pub fn gbps(bytes: u64, span: Ps) -> f64 {
    if span == Ps::ZERO {
        0.0
    } else {
        bytes as f64 / span.as_secs_f64() / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_and_format_helpers() {
        assert!((geo(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(fmt_x(1.5), "1.50x");
        assert_eq!(fmt_pct(0.305), "30.5%");
    }

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse_from(line.split_whitespace().map(String::from))
    }

    #[test]
    fn args_defaults() {
        let a = parse("").unwrap();
        assert_eq!((a.scale, a.seed, a.quick, a.resume), (13, 42, false, false));
        assert_eq!(a.threads, None);
        assert_eq!(a.out, None);
        assert_eq!(a.point_budget, None);
        assert_eq!((a.max_events, a.max_sim_ms), (None, None));
        assert_eq!(parse("--quick").unwrap().scale, 10);
        assert_eq!(parse("--quick --scale 12").unwrap().scale, 12);
    }

    #[test]
    fn args_parse_every_flag() {
        let a = parse(
            "--scale 9 --seed 7 --threads 3 --out dir --resume \
             --point-budget 1.5 --max-events 100 --max-sim-ms 20",
        )
        .unwrap();
        assert_eq!((a.scale, a.seed, a.threads), (9, 7, Some(3)));
        assert_eq!(a.out, Some(std::path::PathBuf::from("dir")));
        assert!(a.resume);
        assert_eq!(a.point_budget, Some(std::time::Duration::from_millis(1500)));
        assert_eq!((a.max_events, a.max_sim_ms), (Some(100), Some(20)));
    }

    const VALUED: [&str; 7] = [
        "--scale",
        "--seed",
        "--threads",
        "--out",
        "--point-budget",
        "--max-events",
        "--max-sim-ms",
    ];

    #[test]
    fn args_reject_unparsable_values() {
        for flag in VALUED.iter().filter(|f| **f != "--out") {
            let e = parse(&format!("{flag} abc")).unwrap_err();
            assert_eq!(e, format!("{flag}: cannot parse 'abc'"));
        }
        assert!(parse("--scale -1").is_err());
        assert!(parse("--seed -1").is_err());
    }

    #[test]
    fn args_reject_missing_values() {
        for flag in VALUED {
            let e = parse(&format!("--quick {flag}")).unwrap_err();
            assert_eq!(e, format!("{flag} needs a value"));
        }
    }

    #[test]
    fn args_reject_scale_above_max() {
        let max = dl_workloads::WorkloadParams::MAX_SCALE;
        assert_eq!(parse(&format!("--scale {max}")).unwrap().scale, max);
        assert!(parse(&format!("--scale {}", max + 1)).is_err());
        assert!(parse("--scale 4294967304").is_err());
    }

    #[test]
    fn args_reject_zero_threads_and_bad_budgets() {
        assert!(parse("--threads 0").is_err());
        for bad in ["0", "-1", "NaN", "inf", "1e300"] {
            assert!(parse(&format!("--point-budget {bad}")).is_err(), "{bad}");
        }
    }

    #[test]
    fn args_reject_unknown_arguments() {
        assert!(parse("--frobnicate").is_err());
        assert!(parse("stray").is_err());
        let e = parse("--sim-threads 4").unwrap_err();
        assert_eq!(e, "unknown argument '--sim-threads'");
    }

    #[test]
    fn gbps_math() {
        let v = gbps(19_200_000_000, Ps::from_ms(1000));
        assert!((v - 19.2).abs() < 1e-9);
        assert_eq!(gbps(100, Ps::ZERO), 0.0);
    }
}
