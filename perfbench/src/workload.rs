//! The benchmark's workloads and one timed iteration of each.
//!
//! One iteration is one operation of the benchmark: generate the trace,
//! then make every simulate call the workload needs, exactly as a user of
//! the public API would. The untraced iteration is what end-to-end metrics
//! time; the traced one splits the same work into the calls behind it.

use crate::fingerprint::Fingerprint;
use crate::span::Tracer;
use dimm_link::runner::host_baseline_for;
use dimm_link::system::optimized_placement;
use dimm_link::{
    natural_placement, random_placement, simulate_optimized, HostConfig, IdcKind, NmpSystem,
    SystemConfig,
};
use dl_engine::{Ps, RunStatus};
use dl_workloads::{Workload, WorkloadKind, WorkloadParams};

/// Community locality of the graph inputs (the evaluation default).
const LOCALITY: f64 = 0.85;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// PageRank on 16 DIMMs through the DIMM-Link-opt pipeline: bound by
    /// inter-DIMM traffic over links and the host.
    IdcPr,
    /// K-Means on 16 DIMMs with natural placement: event-dense and local.
    LocalKm,
    /// PageRank on the 16-core host baseline.
    HostPr,
}

impl Bench {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Bench; 3] = [Bench::IdcPr, Bench::LocalKm, Bench::HostPr];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Bench::IdcPr => "idc_pr",
            Bench::LocalKm => "local_km",
            Bench::HostPr => "host_pr",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The kernel whose trace the workload simulates.
    pub fn kind(self) -> WorkloadKind {
        match self {
            Bench::IdcPr | Bench::HostPr => WorkloadKind::Pagerank,
            Bench::LocalKm => WorkloadKind::KMeans,
        }
    }

    /// Input scale of the measured runs.
    pub fn default_scale(self) -> u32 {
        match self {
            Bench::IdcPr | Bench::HostPr => 14,
            Bench::LocalKm => 15,
        }
    }

    /// Trace-generation parameters. The host workload is shaped like
    /// `host_baseline` shapes it: one partition per host channel and one
    /// thread per host core.
    pub fn params(self, scale: u32, seed: u64) -> WorkloadParams {
        let (dimms, threads_per_dimm) = match self {
            Bench::HostPr => {
                let host = HostConfig::xeon_16core();
                (host.channels, host.cores / host.channels)
            }
            Bench::IdcPr | Bench::LocalKm => (16, 4),
        };
        WorkloadParams {
            dimms,
            threads_per_dimm,
            scale,
            seed,
            broadcast: false,
            locality: LOCALITY,
        }
    }

    /// The simulated NMP system: 16 DIMMs on 8 channels with DIMM-Link,
    /// placement randomised from the benchmark seed. Unused by `host_pr`.
    pub fn config(self, seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig::nmp(16, 8).with_idc(IdcKind::DimmLink);
        cfg.seed = seed;
        cfg
    }
}

/// Host seconds of the layer calls inside one traced iteration; zero for a
/// call the workload does not make.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTimes {
    /// `WorkloadKind::build`.
    pub build_s: f64,
    /// `NmpSystem::new` of the measured run.
    pub new_s: f64,
    /// `NmpSystem::run` of the measured run.
    pub run_s: f64,
    /// The profiling phase of DIMM-Link-opt: random placement, system
    /// construction and the truncated run.
    pub profile_s: f64,
    /// `optimized_placement` (min-cost max-flow).
    pub mcmf_s: f64,
    /// The host baseline model (`host_baseline_for`).
    pub host_sim_s: f64,
}

/// The measured NMP run of an iteration: where its threads ran and how
/// long it took in simulated time, profiling run excluded.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredRun {
    /// DIMM of each thread.
    pub placement: Vec<usize>,
    /// Simulated elapsed time of the run.
    pub elapsed: Ps,
}

/// Result of one iteration.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Host seconds before the first simulate call.
    pub setup_s: f64,
    /// Host seconds in simulate calls.
    pub sim_s: f64,
    /// Host seconds of the whole iteration.
    pub wall_s: f64,
    /// What the iteration computed.
    pub fingerprint: Fingerprint,
    /// Per-call split of the iteration. Untraced `idc_pr` makes one
    /// `simulate_optimized` call, so only its traced iterations split it.
    pub layers: LayerTimes,
    /// The measured NMP run; `None` for the host baseline and for untraced
    /// `idc_pr`, whose single call does not expose its placement.
    pub measured: Option<MeasuredRun>,
}

/// Runs one iteration of `bench`. With an enabled tracer, `idc_pr` calls
/// the pieces of `simulate_optimized` one at a time instead of the single
/// call, and every call is recorded as a span.
pub fn iterate(bench: Bench, scale: u32, seed: u64, tracer: &mut Tracer) -> Iteration {
    let params = bench.params(scale, seed);
    let cfg = bench.config(seed);
    let ((wl, setup_s, sim_s, layers, run, measured), wall_s) = tracer.time(bench.name(), |t| {
        let (wl, build_s) = t.time("workloads.build", |_| bench.kind().build(&params));
        let mut layers = LayerTimes {
            build_s,
            ..LayerTimes::default()
        };
        let mut measured = None;
        let (setup_s, sim_s, run) = match bench {
            Bench::IdcPr if t.enabled() => {
                let (run, sim_s) = t.time("simulate_optimized.split", |t| {
                    optimized_in_pieces(&wl, &cfg, t, &mut layers, &mut measured)
                });
                (build_s, sim_s, run)
            }
            Bench::IdcPr => {
                let (r, sim_s) = t.time("simulate_optimized", |_| simulate_optimized(&wl, &cfg));
                (build_s, sim_s, (r.elapsed, r.status, r.stats))
            }
            Bench::LocalKm => {
                let placement = natural_placement(&wl);
                let (sys, new_s) = t.time("system.new", |_| {
                    NmpSystem::new(&wl, &cfg, &placement, None)
                });
                let (raw, run_s) = t.time("system.run", |_| sys.run());
                layers.new_s = new_s;
                layers.run_s = run_s;
                measured = Some(MeasuredRun {
                    placement,
                    elapsed: raw.elapsed,
                });
                (build_s + new_s, run_s, (raw.elapsed, raw.status, raw.stats))
            }
            Bench::HostPr => {
                let (h, host_s) = t.time("host_sim.run", |_| host_baseline_for(&wl));
                layers.host_sim_s = host_s;
                (build_s, host_s, (h.elapsed, RunStatus::Completed, h.stats))
            }
        };
        (wl, setup_s, sim_s, layers, run, measured)
    });
    // Counting and freeing the trace stay outside the timed iteration.
    let (elapsed, status, stats) = run;
    let fingerprint = Fingerprint {
        elapsed,
        status,
        trace_ops: wl.total_ops(),
        mem_ops: wl.total_mem_ops(),
        stats,
    };
    drop(wl);
    Iteration {
        setup_s,
        sim_s,
        wall_s,
        fingerprint,
        layers,
        measured,
    }
}

/// `simulate_optimized`, one public call at a time: profile a truncated
/// run on a random placement, solve the placement, run the whole workload.
/// Returns the same elapsed time, status and statistics as the single call.
fn optimized_in_pieces(
    wl: &Workload,
    cfg: &SystemConfig,
    t: &mut Tracer,
    layers: &mut LayerTimes,
    measured: &mut Option<MeasuredRun>,
) -> (Ps, RunStatus, dl_engine::stats::StatSet) {
    let (profile, profile_s) = t.time("placement.profile", |t| {
        let start = random_placement(wl, cfg, cfg.seed);
        // The profiling share of the longest trace, as `simulate_optimized`
        // computes it.
        let max_len = wl.traces().iter().map(|tr| tr.len()).max().unwrap_or(0);
        let limit = ((max_len as f64 * cfg.profile_fraction) as usize).max(32);
        let (sys, _) = t.time("system.new.profile", |_| {
            NmpSystem::new(wl, cfg, &start, Some(limit))
        });
        t.time("system.run.profile", |_| sys.run()).0
    });
    let (placement, mcmf_s) = t.time("placement.mcmf", |_| optimized_placement(cfg, &profile));
    let (sys, new_s) = t.time("system.new", |_| NmpSystem::new(wl, cfg, &placement, None));
    let (raw, run_s) = t.time("system.run", |_| sys.run());
    *layers = LayerTimes {
        new_s,
        run_s,
        profile_s,
        mcmf_s,
        ..*layers
    };
    *measured = Some(MeasuredRun {
        placement,
        elapsed: raw.elapsed,
    });
    (
        raw.elapsed + profile.elapsed,
        profile.status.merge(raw.status),
        raw.stats,
    )
}
