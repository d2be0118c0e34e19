//! High-level experiment API: one call per (workload, system) run.

use crate::config::{HostConfig, PlacementPolicy, SystemConfig};
use crate::energy::{energy_of, EnergyBreakdown, EnergyParams};
use crate::host_sim::{simulate_host, HostRun};
use crate::system::{natural_placement, optimized_placement, random_placement, NmpSystem, RawRun};
use dl_engine::stats::StatSet;
use dl_engine::{Ps, RunStatus};
use dl_workloads::{Workload, WorkloadKind, WorkloadParams};

/// A finished experiment run with derived metrics.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// End-to-end time, including the profiling phase when Algorithm 1 ran.
    pub elapsed: Ps,
    /// Time spent in the profiling phase (zero without task mapping).
    pub profiling: Ps,
    /// All raw counters of the measured run.
    pub stats: StatSet,
    /// Energy of the measured run.
    pub energy: EnergyBreakdown,
    /// Whether every phase of the experiment ran to completion, or a
    /// configured [`dl_engine::RunBudget`] cut one short. For optimized
    /// runs this merges the profiling and measured phases.
    pub status: RunStatus,
}

impl RunResult {
    /// Fraction of core time stalled on non-overlapped IDC.
    pub fn idc_stall_frac(&self) -> f64 {
        self.stats.get("idc_stall_frac").unwrap_or(0.0)
    }

    /// Mean memory-channel occupancy.
    pub fn bus_occupancy(&self) -> f64 {
        self.stats.get("host.bus_occupancy").unwrap_or(0.0)
    }

    /// Traffic fractions `(local, link, host-forwarded, bus)` by bytes
    /// (Fig. 11's breakdown).
    pub fn traffic_breakdown(&self) -> (f64, f64, f64, f64) {
        let g = |k: &str| self.stats.get(k).unwrap_or(0.0);
        let local = g("traffic.local_bytes");
        let link = g("traffic.link_bytes");
        let fwd = g("traffic.fwd_bytes");
        let bus = g("traffic.bus_bytes");
        let total = local + link + fwd + bus;
        if total == 0.0 {
            (0.0, 0.0, 0.0, 0.0)
        } else {
            (local / total, link / total, fwd / total, bus / total)
        }
    }
}

fn finish(raw: RawRun, cfg: &SystemConfig, profiling: Ps, earlier: RunStatus) -> RunResult {
    let energy = energy_of(
        &raw.stats,
        raw.elapsed,
        cfg.dimms,
        cfg.idc,
        &EnergyParams::default(),
    );
    RunResult {
        elapsed: raw.elapsed + profiling,
        profiling,
        stats: raw.stats,
        energy,
        status: earlier.merge(raw.status),
    }
}

/// Runs `workload` on the NMP system with the configured static placement
/// (no task-mapping optimization — "DIMM-Link-base" and all baselines).
pub fn simulate(workload: &Workload, cfg: &SystemConfig) -> RunResult {
    let placement = match cfg.placement {
        PlacementPolicy::Natural => natural_placement(workload),
        PlacementPolicy::Random => random_placement(workload, cfg, cfg.seed),
    };
    let raw = NmpSystem::new(workload, cfg, &placement, None).run();
    finish(raw, cfg, Ps::ZERO, RunStatus::Completed)
}

/// Runs the full Algorithm 1 pipeline ("DIMM-Link-opt"): profile the first
/// `cfg.profile_fraction` of each trace on a random placement, solve the
/// min-cost max-flow, then run the whole workload on the optimized
/// placement. The profiling time is charged to `elapsed`, as in the paper.
pub fn simulate_optimized(workload: &Workload, cfg: &SystemConfig) -> RunResult {
    let start = random_placement(workload, cfg, cfg.seed);
    let max_len = workload.traces().iter().map(|t| t.len()).max().unwrap_or(0);
    let limit = ((max_len as f64 * cfg.profile_fraction) as usize).max(32);
    let profile_run = NmpSystem::new(workload, cfg, &start, Some(limit)).run();
    let placement = optimized_placement(cfg, &profile_run);
    let raw = NmpSystem::new(workload, cfg, &placement, None).run();
    finish(raw, cfg, profile_run.elapsed, profile_run.status)
}

/// Builds and runs the fixed 16-core host baseline for a workload kind at
/// the given scale. The host workload uses 16 threads over the host's 8
/// channels' worth of partitions, so total work matches the NMP runs of the
/// same scale.
pub fn host_baseline(kind: WorkloadKind, scale: u32, seed: u64) -> HostRun {
    let host = HostConfig::xeon_16core();
    let params = WorkloadParams {
        dimms: host.channels,
        threads_per_dimm: host.cores / host.channels,
        scale,
        seed,
        broadcast: false,
        locality: 0.85,
    };
    let wl = kind.build(&params);
    simulate_host(&wl, &host)
}

/// Convenience: the host baseline for an already-built host-shaped workload.
pub fn host_baseline_for(workload: &Workload) -> HostRun {
    simulate_host(workload, &HostConfig::xeon_16core())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IdcKind;

    fn params(dimms: usize) -> WorkloadParams {
        WorkloadParams {
            scale: 9,
            ..WorkloadParams::small(dimms)
        }
    }

    #[test]
    fn nmp_beats_host_on_memory_bound_graph_work() {
        let kind = WorkloadKind::Pagerank;
        let wl = kind.build(&params(16));
        let cfg = SystemConfig::nmp(16, 8).with_idc(IdcKind::DimmLink);
        let nmp = simulate(&wl, &cfg);
        let host = host_baseline(kind, 9, 42);
        let speedup = host.elapsed.as_ps() as f64 / nmp.elapsed.as_ps() as f64;
        assert!(speedup > 1.5, "NMP speedup only {speedup:.2}x");
    }

    #[test]
    fn optimized_includes_profiling_time() {
        let wl = WorkloadKind::Bfs.build(&params(4));
        let cfg = SystemConfig::nmp(4, 2).with_idc(IdcKind::DimmLink);
        let opt = simulate_optimized(&wl, &cfg);
        assert!(opt.profiling > Ps::ZERO);
        assert!(opt.elapsed > opt.profiling);
    }

    #[test]
    fn mechanism_ordering_on_a_graph_workload() {
        // At 16 DIMMs with an IDC-heavy graph kernel, the dedicated bus
        // saturates while DIMM-Link's per-link bandwidth scales (paper
        // Fig. 10's shape). Use a scale where that pressure exists.
        let wl = WorkloadKind::Sssp.build(&WorkloadParams {
            scale: 11,
            ..WorkloadParams::small(16)
        });
        let cfg = SystemConfig::nmp(16, 8);
        let dl = simulate(&wl, &cfg.clone().with_idc(IdcKind::DimmLink));
        let aim = simulate(&wl, &cfg.clone().with_idc(IdcKind::DedicatedBus));
        let mcn = simulate(&wl, &cfg.clone().with_idc(IdcKind::CpuForwarding));
        assert!(
            dl.elapsed < aim.elapsed && aim.elapsed < mcn.elapsed,
            "expected DL < AIM < MCN, got {} / {} / {}",
            dl.elapsed,
            aim.elapsed,
            mcn.elapsed
        );
    }

    #[test]
    fn budget_cuts_a_run_short_deterministically() {
        use dl_engine::BudgetKind;
        let wl = WorkloadKind::Bfs.build(&params(4));
        let mut cfg = SystemConfig::nmp(4, 2).with_idc(IdcKind::DimmLink);
        let full = simulate(&wl, &cfg);
        assert!(full.status.is_complete());

        cfg.budget.max_events = Some(5_000);
        let cut = simulate(&wl, &cfg);
        assert_eq!(cut.status, RunStatus::BudgetExceeded(BudgetKind::Events));
        assert!(cut.elapsed < full.elapsed);
        assert_eq!(cut.stats.get("run.completed"), Some(0.0));
        // The cut-off is a property of the simulation, not the machine:
        // repeating the run reproduces it exactly.
        let again = simulate(&wl, &cfg);
        assert_eq!(again.elapsed, cut.elapsed);
        assert_eq!(again.stats, cut.stats);

        cfg.budget = dl_engine::RunBudget {
            max_events: None,
            max_sim_ps: Some(full.elapsed.as_ps() / 4),
        };
        let timed = simulate(&wl, &cfg);
        assert_eq!(timed.status, RunStatus::BudgetExceeded(BudgetKind::SimTime));
        assert!(timed.elapsed < full.elapsed);
    }

    #[test]
    fn traffic_breakdown_sums_to_one() {
        let wl = WorkloadKind::Bfs.build(&params(16));
        let cfg = SystemConfig::nmp(16, 8).with_idc(IdcKind::DimmLink);
        let r = simulate(&wl, &cfg);
        let (a, b, c, d) = r.traffic_breakdown();
        assert!((a + b + c + d - 1.0).abs() < 1e-9);
        assert!(a > 0.0 && b > 0.0);
        assert!(
            c > 0.0,
            "16D system has two groups: some forwarding expected"
        );
    }

    #[test]
    fn energy_is_positive_and_dominated_by_reasonable_terms() {
        let wl = WorkloadKind::KMeans.build(&params(8));
        let cfg = SystemConfig::nmp(8, 4).with_idc(IdcKind::DimmLink);
        let r = simulate(&wl, &cfg);
        assert!(r.energy.total() > 0.0);
        assert!(r.energy.dram_j > 0.0);
        assert!(r.energy.nmp_cores_j > 0.0);
    }
}
