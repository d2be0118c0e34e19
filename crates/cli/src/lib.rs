#![forbid(unsafe_code)]
//! # dl-cli
//!
//! `dlsim` — the command-line front end of the DIMM-Link simulator.
//!
//! ```text
//! dlsim run     --workload pr --dimms 16 --channels 8 --idc dimm-link [--opt]
//! dlsim compare --workload sssp --dimms 16 --channels 8
//! dlsim sweep   --workload bfs --param dimms --values 4,8,12,16
//! dlsim sweep   --workload pr --param link-gbps --values 4,8,16,25,64
//! dlsim list
//! ```
//!
//! All subcommands accept `--scale N`, `--seed N`, `--json` (machine-readable
//! output on stdout) and the workload/system flags shown above. The binary
//! is a thin shell over [`dimm_link::runner`]; this library holds the
//! parsing and dispatch logic so it can be unit-tested.

use dimm_link::config::{IdcKind, PollingStrategy, SyncScheme, SystemConfig};
use dimm_link::runner::{host_baseline, simulate, simulate_optimized, RunResult};
use dl_bench::sweep::{Sweep, SweepOptions};
use dl_engine::{RunBudget, RunStatus};
use dl_noc::TopologyKind;
use dl_workloads::{WorkloadKind, WorkloadParams};
use std::fmt;
use std::path::PathBuf;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one workload on one system configuration.
    Run(RunSpec),
    /// Run one workload on every IDC mechanism plus the host baseline.
    Compare(RunSpec),
    /// Sweep one parameter.
    Sweep {
        /// Base specification.
        spec: RunSpec,
        /// Which parameter to sweep.
        param: SweepParam,
        /// Sweep values.
        values: Vec<u64>,
    },
    /// List available workloads, mechanisms, and knobs.
    List,
    /// Print usage.
    Help,
}

/// What `run`/`compare` execute.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Workload selector.
    pub workload: WorkloadKind,
    /// DIMM count.
    pub dimms: usize,
    /// Channel count.
    pub channels: usize,
    /// IDC mechanism (run only).
    pub idc: IdcKind,
    /// Apply Algorithm 1 (profile + min-cost max-flow placement).
    pub optimized: bool,
    /// Problem scale.
    pub scale: u32,
    /// Input seed.
    pub seed: u64,
    /// Broadcast formulation where supported.
    pub broadcast: bool,
    /// Graph community locality.
    pub locality: f64,
    /// DL-group topology.
    pub topology: TopologyKind,
    /// Polling strategy override.
    pub polling: Option<PollingStrategy>,
    /// Sync scheme override.
    pub sync: Option<SyncScheme>,
    /// Link bandwidth override, GB/s.
    pub link_gbps: Option<u64>,
    /// Emit JSON instead of tables.
    pub json: bool,
    /// Sweep worker threads (sweep only); `None` defers to `DL_THREADS`,
    /// then to `available_parallelism()`.
    pub threads: Option<usize>,
    /// Sweep artifact directory (sweep only); writes
    /// `<dir>/dlsim_<param>.jsonl` when set.
    pub out_dir: Option<PathBuf>,
    /// Reuse journaled points from an interrupted sweep (sweep only,
    /// requires `--out`).
    pub resume: bool,
    /// Wall-clock watchdog per sweep point, seconds (sweep only).
    pub point_budget_secs: Option<f64>,
    /// Deterministic engine event budget per run.
    pub max_events: Option<u64>,
    /// Deterministic simulated-time budget per run, milliseconds.
    pub max_sim_ms: Option<u64>,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            workload: WorkloadKind::Pagerank,
            dimms: 16,
            channels: 8,
            idc: IdcKind::DimmLink,
            optimized: false,
            scale: 11,
            seed: 42,
            broadcast: false,
            locality: 0.85,
            topology: TopologyKind::Chain,
            polling: None,
            sync: None,
            link_gbps: None,
            json: false,
            threads: None,
            out_dir: None,
            resume: false,
            point_budget_secs: None,
            max_events: None,
            max_sim_ms: None,
        }
    }
}

/// Sweepable parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepParam {
    /// DIMM count (channels scale as dimms/2).
    Dimms,
    /// Link bandwidth in GB/s.
    LinkGbps,
    /// Problem scale.
    Scale,
}

/// Errors from parsing or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Checks a problem scale from the command line (`--scale` or a swept
/// value) against `0..=WorkloadParams::MAX_SCALE`.
fn scale_of(v: u64) -> Result<u32, CliError> {
    u32::try_from(v)
        .ok()
        .filter(|&s| s <= WorkloadParams::MAX_SCALE)
        .ok_or_else(|| {
            err(format!(
                "scale must be in 0..={}, got {v}",
                WorkloadParams::MAX_SCALE
            ))
        })
}

/// Parses a workload name as accepted on the command line.
pub fn parse_workload(s: &str) -> Result<WorkloadKind, CliError> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "bfs" => WorkloadKind::Bfs,
        "hs" | "hotspot" => WorkloadKind::Hotspot,
        "km" | "kmeans" | "k-means" => WorkloadKind::KMeans,
        "nw" | "needleman-wunsch" => WorkloadKind::NeedlemanWunsch,
        "pr" | "pagerank" => WorkloadKind::Pagerank,
        "sssp" => WorkloadKind::Sssp,
        "spmv" => WorkloadKind::Spmv,
        "ts" | "tspow" | "ts.pow" => WorkloadKind::TsPow,
        other => return Err(err(format!("unknown workload '{other}' (try: dlsim list)"))),
    })
}

/// Parses an IDC mechanism name.
pub fn parse_idc(s: &str) -> Result<IdcKind, CliError> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "mcn" | "cpu" | "cpu-forwarding" => IdcKind::CpuForwarding,
        "aim" | "bus" | "dedicated-bus" => IdcKind::DedicatedBus,
        "abc" | "abc-dimm" => IdcKind::AbcDimm,
        "dl" | "dimm-link" | "dimmlink" => IdcKind::DimmLink,
        "cxl" | "dimm-link-cxl" => IdcKind::DimmLinkCxl,
        other => return Err(err(format!("unknown IDC mechanism '{other}'"))),
    })
}

fn parse_topology(s: &str) -> Result<TopologyKind, CliError> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "chain" => TopologyKind::Chain,
        "ring" => TopologyKind::Ring,
        "mesh" => TopologyKind::Mesh,
        "torus" => TopologyKind::Torus,
        other => return Err(err(format!("unknown topology '{other}'"))),
    })
}

fn parse_polling(s: &str) -> Result<PollingStrategy, CliError> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "base" => PollingStrategy::Base,
        "base-interrupt" | "base+itrpt" => PollingStrategy::BaseInterrupt,
        "proxy" | "p-p" => PollingStrategy::Proxy,
        "proxy-interrupt" | "p-p+itrpt" => PollingStrategy::ProxyInterrupt,
        other => return Err(err(format!("unknown polling strategy '{other}'"))),
    })
}

/// Parses the full argument vector (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "list" => return Ok(Command::List),
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "run" | "compare" | "sweep" => {}
        other => return Err(err(format!("unknown subcommand '{other}'"))),
    }

    let mut spec = RunSpec::default();
    let mut param: Option<SweepParam> = None;
    let mut values: Vec<u64> = Vec::new();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| err(format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--workload" | "-w" => spec.workload = parse_workload(next(a)?)?,
            "--dimms" | "-d" => {
                spec.dimms = next(a)?.parse().map_err(|_| err("--dimms: not a number"))?
            }
            "--channels" | "-c" => {
                spec.channels = next(a)?
                    .parse()
                    .map_err(|_| err("--channels: not a number"))?
            }
            "--idc" | "-i" => spec.idc = parse_idc(next(a)?)?,
            "--opt" => spec.optimized = true,
            "--scale" => {
                spec.scale = scale_of(next(a)?.parse().map_err(|_| err("--scale: not a number"))?)?
            }
            "--seed" => spec.seed = next(a)?.parse().map_err(|_| err("--seed: not a number"))?,
            "--broadcast" => spec.broadcast = true,
            "--locality" => {
                spec.locality = next(a)?
                    .parse()
                    .map_err(|_| err("--locality: not a number"))?;
                if !(0.0..=1.0).contains(&spec.locality) {
                    return Err(err("--locality must be in [0,1]"));
                }
            }
            "--topology" => spec.topology = parse_topology(next(a)?)?,
            "--polling" => spec.polling = Some(parse_polling(next(a)?)?),
            "--sync" => {
                spec.sync = Some(match next(a)?.to_ascii_lowercase().as_str() {
                    "central" => SyncScheme::Central,
                    "hierarchical" | "hier" => SyncScheme::Hierarchical,
                    other => return Err(err(format!("unknown sync scheme '{other}'"))),
                })
            }
            "--link-gbps" => {
                spec.link_gbps = Some(
                    next(a)?
                        .parse()
                        .map_err(|_| err("--link-gbps: not a number"))?,
                )
            }
            "--json" => spec.json = true,
            "--threads" => {
                let n: usize = next(a)?
                    .parse()
                    .map_err(|_| err("--threads: not a number"))?;
                if n == 0 {
                    return Err(err("--threads must be at least 1"));
                }
                spec.threads = Some(n);
            }
            "--out" => spec.out_dir = Some(PathBuf::from(next(a)?)),
            "--resume" => spec.resume = true,
            "--point-budget" => {
                let s: f64 = next(a)?
                    .parse()
                    .map_err(|_| err("--point-budget: not a number of seconds"))?;
                if s.is_nan() || s <= 0.0 {
                    return Err(err("--point-budget must be positive"));
                }
                spec.point_budget_secs = Some(s);
            }
            "--max-events" => {
                spec.max_events = Some(
                    next(a)?
                        .parse()
                        .map_err(|_| err("--max-events: not a number"))?,
                )
            }
            "--max-sim-ms" => {
                spec.max_sim_ms = Some(
                    next(a)?
                        .parse()
                        .map_err(|_| err("--max-sim-ms: not a number"))?,
                )
            }
            "--param" => {
                param = Some(match next(a)?.to_ascii_lowercase().as_str() {
                    "dimms" => SweepParam::Dimms,
                    "link-gbps" => SweepParam::LinkGbps,
                    "scale" => SweepParam::Scale,
                    other => return Err(err(format!("unknown sweep parameter '{other}'"))),
                })
            }
            "--values" => {
                values = next(a)?
                    .split(',')
                    .map(|v| v.trim().parse::<u64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| err("--values: comma-separated numbers expected"))?
            }
            other => return Err(err(format!("unknown flag '{other}'"))),
        }
    }

    match args[0].as_str() {
        "run" => Ok(Command::Run(spec)),
        "compare" => Ok(Command::Compare(spec)),
        "sweep" => {
            let param = param.ok_or_else(|| err("sweep needs --param"))?;
            if values.is_empty() {
                return Err(err("sweep needs --values a,b,c"));
            }
            Ok(Command::Sweep {
                spec,
                param,
                values,
            })
        }
        _ => unreachable!("validated above"),
    }
}

/// Builds the system configuration a spec describes, including the
/// deterministic run budget of `--max-events` and `--max-sim-ms`.
pub fn system_of(spec: &RunSpec) -> Result<SystemConfig, CliError> {
    if spec.dimms == 0 || spec.channels == 0 || !spec.dimms.is_multiple_of(spec.channels) {
        return Err(err(format!(
            "dimms ({}) must be a positive multiple of channels ({})",
            spec.dimms, spec.channels
        )));
    }
    let mut cfg = SystemConfig::nmp(spec.dimms, spec.channels).with_idc(spec.idc);
    cfg.topology = spec.topology;
    if let Some(p) = spec.polling {
        cfg.polling = p;
    }
    if let Some(s) = spec.sync {
        cfg.sync = s;
    }
    if let Some(gb) = spec.link_gbps {
        let bytes_per_sec = gb
            .checked_mul(1_000_000_000)
            .ok_or_else(|| err(format!("--link-gbps {gb} is too large")))?;
        cfg.link = cfg.link.with_bandwidth(bytes_per_sec);
    }
    cfg.budget = RunBudget {
        max_events: spec.max_events,
        max_sim_ps: spec.max_sim_ms.map(|ms| ms.saturating_mul(1_000_000_000)),
    };
    cfg.validate().map_err(CliError)?;
    Ok(cfg)
}

/// Builds the workload parameters a spec describes.
pub fn params_of(spec: &RunSpec) -> WorkloadParams {
    WorkloadParams {
        dimms: spec.dimms,
        threads_per_dimm: 4,
        scale: spec.scale,
        seed: spec.seed,
        broadcast: spec.broadcast,
        locality: spec.locality,
    }
}

/// Builds the workload a spec describes.
pub fn workload_of(spec: &RunSpec) -> dl_workloads::Workload {
    spec.workload.build(&params_of(spec))
}

/// Runs a spec and returns the result.
pub fn execute_run(spec: &RunSpec) -> Result<RunResult, CliError> {
    let cfg = system_of(spec)?;
    let wl = workload_of(spec);
    Ok(if spec.optimized {
        simulate_optimized(&wl, &cfg)
    } else {
        simulate(&wl, &cfg)
    })
}

/// One line of `compare` output.
#[derive(Debug, serde::Serialize)]
pub struct CompareRow {
    /// System label.
    pub system: String,
    /// End-to-end time in nanoseconds.
    pub elapsed_ns: f64,
    /// Speedup over the host baseline.
    pub speedup_vs_host: f64,
    /// Non-overlapped IDC stall fraction.
    pub idc_stall_frac: f64,
    /// Whether the run completed or stopped at a `--max-events` /
    /// `--max-sim-ms` budget (the host baseline always completes).
    pub status: RunStatus,
}

/// Runs the `compare` subcommand: host + all mechanisms + DL-opt.
pub fn execute_compare(spec: &RunSpec) -> Result<Vec<CompareRow>, CliError> {
    let host = host_baseline(spec.workload, spec.scale, spec.seed);
    let host_ns = host.elapsed.as_ns_f64();
    let mut rows = vec![CompareRow {
        system: "host-16core".into(),
        elapsed_ns: host_ns,
        speedup_vs_host: 1.0,
        idc_stall_frac: 0.0,
        status: RunStatus::Completed,
    }];
    for idc in [
        IdcKind::CpuForwarding,
        IdcKind::DedicatedBus,
        IdcKind::AbcDimm,
        IdcKind::DimmLink,
        IdcKind::DimmLinkCxl,
    ] {
        let mut s = spec.clone();
        s.idc = idc;
        s.polling = None;
        s.sync = None;
        let r = execute_run(&s)?;
        rows.push(CompareRow {
            system: idc.to_string(),
            elapsed_ns: r.elapsed.as_ns_f64(),
            speedup_vs_host: host_ns / r.elapsed.as_ns_f64(),
            idc_stall_frac: r.idc_stall_frac(),
            status: r.status,
        });
    }
    let mut s = spec.clone();
    s.idc = IdcKind::DimmLink;
    s.optimized = true;
    s.polling = None;
    s.sync = None;
    let r = execute_run(&s)?;
    rows.push(CompareRow {
        system: "DIMM-Link-opt".into(),
        elapsed_ns: r.elapsed.as_ns_f64(),
        speedup_vs_host: host_ns / r.elapsed.as_ns_f64(),
        idc_stall_frac: r.idc_stall_frac(),
        status: r.status,
    });
    Ok(rows)
}

/// Runs the `sweep` subcommand on the [`dl_bench::sweep`] harness; returns
/// `(value, elapsed_ns)` pairs in submission order. Points fan out over
/// `spec.threads` workers (else `DL_THREADS`, else all cores); when
/// `spec.out_dir` is set the JSON-lines artifact `dlsim_<param>.jsonl` is
/// written there and a summary line goes to stderr.
pub fn execute_sweep(
    spec: &RunSpec,
    param: SweepParam,
    values: &[u64],
) -> Result<Vec<(u64, f64)>, CliError> {
    let name = match param {
        SweepParam::Dimms => "dimms",
        SweepParam::LinkGbps => "link_gbps",
        SweepParam::Scale => "scale",
    };
    let mut sweep = Sweep::new(format!("dlsim_{name}"));
    for &v in values {
        let mut s = spec.clone();
        match param {
            SweepParam::Dimms => {
                s.dimms = v as usize;
                s.channels = (v as usize / 2).max(1);
            }
            SweepParam::LinkGbps => s.link_gbps = Some(v),
            SweepParam::Scale => s.scale = scale_of(v)?,
        }
        // Validates before spawning workers; the config carries the budget.
        let cfg = system_of(&s)?;
        let label = format!("{} / {name}={v}", s.workload);
        if s.optimized {
            sweep.simulate_optimized(label, s.workload, params_of(&s), cfg);
        } else {
            sweep.simulate(label, s.workload, params_of(&s), cfg);
        }
    }
    if spec.resume && spec.out_dir.is_none() {
        return Err(err("--resume needs --out DIR (the journal lives there)"));
    }
    let opts = SweepOptions {
        threads: spec.threads,
        out_dir: spec.out_dir.clone(),
        // Without --out there is no artifact to announce; keep stderr clean.
        quiet: spec.out_dir.is_none(),
        resume: spec.resume,
        point_budget: spec
            .point_budget_secs
            .map(std::time::Duration::from_secs_f64),
        halt_after: None,
    };
    let out = sweep.run_with(&opts).map_err(|e| CliError(e.to_string()))?;
    Ok(values
        .iter()
        .copied()
        .zip(out.records.iter().map(|r| r.elapsed_f64() / 1e3))
        .collect())
}

/// The `list` text.
pub fn listing() -> String {
    "workloads: bfs, hs (hotspot), km (k-means), nw (needleman-wunsch), pr (pagerank), \
     sssp, spmv, ts (ts.pow)\n\
     idc mechanisms: mcn (cpu-forwarding), aim (dedicated-bus), abc (abc-dimm), \
     dl (dimm-link), cxl (dimm-link-cxl)\n\
     topologies: chain, ring, mesh, torus\n\
     polling: base, base-interrupt, proxy, proxy-interrupt\n\
     sync: central, hierarchical\n\
     sweep params: dimms, link-gbps, scale"
        .to_string()
}

/// Usage text.
pub fn usage() -> String {
    "dlsim — DIMM-Link (HPCA'23) system simulator\n\n\
     USAGE:\n\
     \x20 dlsim run     --workload <w> [--dimms N --channels N --idc <m> --opt] [flags]\n\
     \x20 dlsim compare --workload <w> [--dimms N --channels N] [flags]\n\
     \x20 dlsim sweep   --workload <w> --param <p> --values a,b,c [--threads N --out DIR] [flags]\n\
     \x20 dlsim list\n\n\
     FLAGS: --scale N  --seed N  --broadcast  --locality F  --topology <t>\n\
     \x20      --polling <s>  --sync <s>  --link-gbps N  --json\n\
     \x20      --resume  --point-budget SECS  --max-events N  --max-sim-ms N\n\n\
     Sweeps fan out over --threads workers (default: DL_THREADS, else all\n\
     cores), one point per worker; results are deterministic regardless of\n\
     thread count. With --out DIR the sweep also writes\n\
     DIR/dlsim_<param>.jsonl, journaling each finished point to\n\
     DIR/dlsim_<param>.journal.jsonl so an interrupted sweep restarts where\n\
     it stopped with --resume.\n\
     --max-events/--max-sim-ms cap each run deterministically inside the\n\
     engine (the record is marked BudgetExceeded); --point-budget is a\n\
     wall-clock watchdog that abandons hung points.\n\n\
     Run `dlsim list` for accepted names."
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_run_with_flags() {
        let cmd = parse_args(&sv(&[
            "run",
            "--workload",
            "sssp",
            "--dimms",
            "8",
            "--channels",
            "4",
            "--idc",
            "aim",
            "--scale",
            "9",
            "--json",
        ]))
        .unwrap();
        let Command::Run(spec) = cmd else {
            panic!("expected Run")
        };
        assert_eq!(spec.workload, WorkloadKind::Sssp);
        assert_eq!(spec.dimms, 8);
        assert_eq!(spec.channels, 4);
        assert_eq!(spec.idc, IdcKind::DedicatedBus);
        assert_eq!(spec.scale, 9);
        assert!(spec.json);
    }

    #[test]
    fn parses_sweep() {
        let cmd = parse_args(&sv(&[
            "sweep",
            "--workload",
            "bfs",
            "--param",
            "dimms",
            "--values",
            "4,8,16",
        ]))
        .unwrap();
        let Command::Sweep { param, values, .. } = cmd else {
            panic!()
        };
        assert_eq!(param, SweepParam::Dimms);
        assert_eq!(values, vec![4, 8, 16]);
    }

    #[test]
    fn parses_sweep_harness_knobs() {
        let cmd = parse_args(&sv(&[
            "sweep",
            "--workload",
            "pr",
            "--param",
            "scale",
            "--values",
            "7,8",
            "--threads",
            "2",
            "--out",
            "/tmp/dlsim-artifacts",
        ]))
        .unwrap();
        let Command::Sweep { spec, .. } = cmd else {
            panic!("expected Sweep")
        };
        assert_eq!(spec.threads, Some(2));
        assert_eq!(spec.out_dir, Some(PathBuf::from("/tmp/dlsim-artifacts")));
        assert!(parse_args(&sv(&["sweep", "--threads", "0"])).is_err());
    }

    #[test]
    fn parses_crash_safety_knobs() {
        let cmd = parse_args(&sv(&[
            "sweep",
            "--workload",
            "pr",
            "--param",
            "scale",
            "--values",
            "7,8",
            "--out",
            "/tmp/dlsim-artifacts",
            "--resume",
            "--point-budget",
            "2.5",
            "--max-events",
            "100000",
            "--max-sim-ms",
            "50",
        ]))
        .unwrap();
        let Command::Sweep { spec, .. } = cmd else {
            panic!("expected Sweep")
        };
        assert!(spec.resume);
        assert_eq!(spec.point_budget_secs, Some(2.5));
        assert_eq!(spec.max_events, Some(100_000));
        assert_eq!(spec.max_sim_ms, Some(50));
        assert!(parse_args(&sv(&["sweep", "--point-budget", "0"])).is_err());
        assert!(parse_args(&sv(&["sweep", "--point-budget", "nope"])).is_err());
        assert!(parse_args(&sv(&["sweep", "--max-events", "nope"])).is_err());
    }

    #[test]
    fn resume_requires_an_out_dir() {
        let spec = RunSpec {
            workload: WorkloadKind::Hotspot,
            scale: 7,
            resume: true,
            ..RunSpec::default()
        };
        let e = execute_sweep(&spec, SweepParam::Dimms, &[4]).unwrap_err();
        assert!(e.to_string().contains("--out"), "{e}");
    }

    #[test]
    fn rejects_unknowns() {
        assert!(parse_args(&sv(&["frobnicate"])).is_err());
        assert!(parse_args(&sv(&["run", "--workload", "nope"])).is_err());
        assert!(parse_args(&sv(&["run", "--idc", "nope"])).is_err());
        assert!(parse_args(&sv(&["sweep", "--workload", "pr"])).is_err()); // no --param
        assert!(parse_args(&sv(&["run", "--locality", "7"])).is_err());
        assert!(parse_args(&sv(&["run", "--dimms"])).is_err()); // missing value
        assert!(parse_args(&sv(&["run", "--sim-threads", "2"])).is_err());
    }

    #[test]
    fn empty_args_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&sv(&["list"])).unwrap(), Command::List);
    }

    #[test]
    fn system_of_validates() {
        let mut spec = RunSpec {
            dimms: 10,
            channels: 4,
            ..RunSpec::default()
        };
        assert!(system_of(&spec).is_err());
        spec.dimms = 8;
        assert!(system_of(&spec).is_ok());
    }

    #[test]
    fn system_of_carries_the_budget() {
        let unbudgeted = system_of(&RunSpec::default()).unwrap();
        assert!(unbudgeted.budget.is_unlimited());
        let spec = RunSpec {
            max_events: Some(10),
            max_sim_ms: Some(3),
            ..RunSpec::default()
        };
        let cfg = system_of(&spec).unwrap();
        assert_eq!(cfg.budget.max_events, Some(10));
        assert_eq!(cfg.budget.max_sim_ps, Some(3_000_000_000));
    }

    #[test]
    fn zero_link_bandwidth_is_a_cli_error() {
        let Command::Run(spec) = parse_args(&sv(&["run", "--link-gbps", "0"])).unwrap() else {
            panic!("expected Run")
        };
        let e = execute_run(&spec).unwrap_err();
        assert!(
            e.to_string().contains("link bandwidth must be non-zero"),
            "{e}"
        );
        let spec = RunSpec {
            link_gbps: Some(u64::MAX),
            ..RunSpec::default()
        };
        assert!(system_of(&spec).is_err());
        let e = execute_sweep(&RunSpec::default(), SweepParam::LinkGbps, &[25, 0]).unwrap_err();
        assert!(e.to_string().contains("non-zero"), "{e}");
    }

    #[test]
    fn out_of_range_scales_are_rejected() {
        let max = WorkloadParams::MAX_SCALE.to_string();
        assert!(parse_args(&sv(&["run", "--scale", &max])).is_ok());
        assert!(parse_args(&sv(&["run", "--scale", "0"])).is_ok());
        for bad in ["25", "40", "4294967304", "-1"] {
            assert!(parse_args(&sv(&["run", "--scale", bad])).is_err(), "{bad}");
        }
        // Swept values are checked before any point runs; 2^32 + 8 must
        // not truncate to scale 8.
        for bad in [40, (1 << 32) + 8] {
            let e = execute_sweep(&RunSpec::default(), SweepParam::Scale, &[7, bad]).unwrap_err();
            assert!(e.to_string().contains("scale must be in"), "{e}");
        }
    }

    #[test]
    fn run_and_compare_execute() {
        let spec = RunSpec {
            workload: WorkloadKind::KMeans,
            dimms: 4,
            channels: 2,
            scale: 7,
            ..RunSpec::default()
        };
        let r = execute_run(&spec).unwrap();
        assert!(r.elapsed > dl_engine::Ps::ZERO);
        let rows = execute_compare(&spec).unwrap();
        assert_eq!(rows.len(), 7); // host + 5 mechanisms + DL-opt
        assert!(rows.iter().all(|r| r.elapsed_ns > 0.0));
        assert!(rows.iter().all(|r| r.status.is_complete()));
        let cut = execute_compare(&RunSpec {
            max_events: Some(10),
            ..spec
        })
        .unwrap();
        assert!(
            cut[0].status.is_complete(),
            "the host baseline has no budget"
        );
        assert!(cut[1..]
            .iter()
            .all(|r| r.status == RunStatus::BudgetExceeded(dl_engine::BudgetKind::Events)));
    }

    #[test]
    fn sweep_executes() {
        let spec = RunSpec {
            workload: WorkloadKind::Hotspot,
            scale: 7,
            ..RunSpec::default()
        };
        let out = execute_sweep(&spec, SweepParam::Dimms, &[4, 8]).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out[0].1 > 0.0 && out[1].1 > 0.0);
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let spec = RunSpec {
            workload: WorkloadKind::KMeans,
            scale: 7,
            ..RunSpec::default()
        };
        let serial = execute_sweep(
            &RunSpec {
                threads: Some(1),
                ..spec.clone()
            },
            SweepParam::Dimms,
            &[4, 8],
        )
        .unwrap();
        let parallel = execute_sweep(
            &RunSpec {
                threads: Some(4),
                ..spec
            },
            SweepParam::Dimms,
            &[4, 8],
        )
        .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn listing_mentions_everything() {
        let l = listing();
        for item in [
            "bfs",
            "pagerank",
            "dimm-link",
            "torus",
            "proxy",
            "hierarchical",
        ] {
            assert!(l.contains(item), "listing missing {item}");
        }
    }
}
