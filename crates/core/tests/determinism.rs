//! Regression tests for run-to-run determinism of the full system model.
//!
//! Within one process, every `HashMap` instance gets its own random
//! `RandomState`, so repeating the same simulation ten times genuinely
//! exercises ten different hash-iteration orders. Before `dl-analyze`
//! forced the simulation crates onto `BTreeMap`, `NmpSystem` counted DIMM
//! groups and drove barrier releases off hash-map iteration — an order leak
//! this test is designed to catch if it ever regresses.

use dimm_link::config::{IdcKind, PlacementPolicy, SystemConfig};
use dimm_link::runner::{simulate, simulate_optimized, RunResult};
use dl_workloads::{WorkloadKind, WorkloadParams};

/// Serializes everything observable about a run into one comparable blob.
/// `StatSet` is `BTreeMap`-backed, so its `Debug` order is stable by
/// construction; elapsed/profiling/energy are scalars.
fn fingerprint(r: &RunResult) -> String {
    format!(
        "elapsed={} profiling={} stats={:?} energy={:?}",
        r.elapsed, r.profiling, r.stats, r.energy
    )
}

fn workload_params(dimms: usize) -> WorkloadParams {
    WorkloadParams {
        scale: 8,
        ..WorkloadParams::small(dimms)
    }
}

#[test]
fn repeated_runs_are_byte_identical() {
    // 8 DIMMs over 4 channels: two DL groups, so the hierarchical barrier
    // (the converted release maps in system.rs) is on the hot path.
    let wl = WorkloadKind::Bfs.build(&workload_params(8));
    let cfg = SystemConfig::nmp(8, 4).with_idc(IdcKind::DimmLink);
    let golden = fingerprint(&simulate(&wl, &cfg));
    for i in 1..10 {
        let fp = fingerprint(&simulate(&wl, &cfg));
        assert_eq!(golden, fp, "run {i} diverged from run 0");
    }
}

#[test]
fn repeated_runs_are_byte_identical_across_idc_mechanisms() {
    let wl = WorkloadKind::Pagerank.build(&workload_params(8));
    for idc in [
        IdcKind::CpuForwarding,
        IdcKind::DedicatedBus,
        IdcKind::AbcDimm,
        IdcKind::DimmLink,
    ] {
        let cfg = SystemConfig::nmp(8, 4).with_idc(idc);
        let golden = fingerprint(&simulate(&wl, &cfg));
        for i in 1..10 {
            assert_eq!(
                golden,
                fingerprint(&simulate(&wl, &cfg)),
                "{idc:?} run {i} diverged"
            );
        }
    }
}

#[test]
fn optimized_pipeline_is_deterministic_with_random_placement() {
    // Random placement + profiling + min-cost max-flow + measured run: the
    // longest deterministic chain, seeded via `DetRng::stream("placement")`.
    let wl = WorkloadKind::Sssp.build(&workload_params(8));
    let mut cfg = SystemConfig::nmp(8, 4).with_idc(IdcKind::DimmLink);
    cfg.placement = PlacementPolicy::Random;
    let golden = fingerprint(&simulate_optimized(&wl, &cfg));
    for i in 1..10 {
        assert_eq!(
            golden,
            fingerprint(&simulate_optimized(&wl, &cfg)),
            "optimized run {i} diverged"
        );
    }
}
