#![forbid(unsafe_code)]
//! # dl-workloads
//!
//! The benchmark workloads of the DIMM-Link evaluation (paper Table IV and
//! Sections V-C/V-D), implemented as *trace generators*: each workload runs
//! its real algorithm at build time and records, per thread, the sequence of
//! compute bursts, line-granular memory accesses, synchronization events and
//! broadcasts that the simulated NMP cores (or host cores) then replay.
//!
//! | Paper workload | Builder | Input |
//! |---|---|---|
//! | BFS (breadth-first search) | [`graph_apps::bfs`] | R-MAT graph |
//! | PR (PageRank) | [`graph_apps::pagerank`] | R-MAT graph |
//! | SSSP (single-source shortest path) | [`graph_apps::sssp`] | R-MAT graph |
//! | SpMV (sparse matrix-vector) | [`graph_apps::spmv`] | R-MAT matrix |
//! | HS (Hotspot stencil) | [`stencil::hotspot`] | 2-D grid |
//! | NW (Needleman-Wunsch) | [`stencil::needleman_wunsch`] | 2-D wavefront |
//! | KM (K-Means) | [`kmeans::kmeans`] | random points |
//! | TS.Pow (SynCron) | [`tspow::ts_pow`] | time series |
//! | sync-interval sweep (Fig. 14-a) | [`synth::sync_sweep`] | synthetic |
//! | bulk-copy microbench (Fig. 1 / Table I) | [`synth::bulk_copy`] | synthetic |
//!
//! The paper's LiveJournal input (69 M edges) is substituted by a
//! deterministic R-MAT generator with the same skewed-degree structure at a
//! configurable scale (see DESIGN.md, "Substitutions").
//!
//! # Examples
//!
//! ```
//! use dl_workloads::{WorkloadKind, WorkloadParams};
//!
//! let params = WorkloadParams::small(4); // 4 DIMMs, 4 threads each
//! let wl = WorkloadKind::Bfs.build(&params);
//! assert_eq!(wl.traces().len(), 16);
//! assert!(wl.total_ops() > 0);
//! ```

pub mod graph;
pub mod graph_apps;
pub mod kmeans;
pub mod layout;
pub mod stencil;
pub mod synth;
pub mod trace;
pub mod tspow;

pub use graph::CsrGraph;
pub use layout::{DataLayout, Region, BYTES_PER_DIMM};
pub use trace::{Op, ThreadTrace, Workload};

use serde::{Deserialize, Serialize};

/// Parameters shared by every workload builder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadParams {
    /// Number of DIMMs data is partitioned over.
    pub dimms: usize,
    /// Threads per DIMM (the paper runs 4).
    pub threads_per_dimm: usize,
    /// Problem scale knob; each workload documents its meaning (R-MAT
    /// scale = log2 vertices, grid side, points, ...).
    pub scale: u32,
    /// Seed for deterministic input generation.
    pub seed: u64,
    /// Use the explicit-broadcast formulation (Fig. 12) where supported.
    pub broadcast: bool,
    /// Community-locality of graph inputs (see
    /// [`graph::CsrGraph::rmat_with_locality`]); fraction of edges redrawn
    /// near their source.
    pub locality: f64,
}

impl WorkloadParams {
    /// Largest supported `scale`. Every trace roughly doubles per step: at
    /// scale 24 an R-MAT input already has 2^27 edges, and beyond 31 its
    /// vertex ids no longer fit their `u32`.
    pub const MAX_SCALE: u32 = 24;

    /// A small, test-friendly configuration.
    pub fn small(dimms: usize) -> Self {
        WorkloadParams {
            dimms,
            threads_per_dimm: 4,
            scale: 10,
            seed: 42,
            broadcast: false,
            locality: 0.85,
        }
    }

    /// The evaluation-scale default (R-MAT 14 graphs, larger grids).
    pub fn evaluation(dimms: usize) -> Self {
        WorkloadParams {
            dimms,
            threads_per_dimm: 4,
            scale: 14,
            seed: 42,
            broadcast: false,
            locality: 0.85,
        }
    }

    /// Total thread count.
    pub fn threads(&self) -> usize {
        self.dimms * self.threads_per_dimm
    }
}

/// The workload taxonomy used throughout the benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Breadth-first search.
    Bfs,
    /// Hotspot 2-D thermal stencil.
    Hotspot,
    /// K-Means clustering.
    KMeans,
    /// Needleman-Wunsch wavefront alignment.
    NeedlemanWunsch,
    /// PageRank.
    Pagerank,
    /// Single-source shortest path (Bellman-Ford rounds).
    Sssp,
    /// Sparse matrix × dense vector.
    Spmv,
    /// SynCron's TS.Pow matrix-profile task (synchronization-rich).
    TsPow,
}

impl WorkloadKind {
    /// The six point-to-point workloads of Fig. 10.
    pub const P2P_SET: [WorkloadKind; 6] = [
        WorkloadKind::Bfs,
        WorkloadKind::Hotspot,
        WorkloadKind::KMeans,
        WorkloadKind::NeedlemanWunsch,
        WorkloadKind::Pagerank,
        WorkloadKind::Sssp,
    ];

    /// The three broadcast workloads of Fig. 12.
    pub const BROADCAST_SET: [WorkloadKind; 3] = [
        WorkloadKind::Pagerank,
        WorkloadKind::Sssp,
        WorkloadKind::Spmv,
    ];

    /// Short name as used in the paper's figures.
    pub fn short_name(self) -> &'static str {
        match self {
            WorkloadKind::Bfs => "BFS",
            WorkloadKind::Hotspot => "HS",
            WorkloadKind::KMeans => "KM",
            WorkloadKind::NeedlemanWunsch => "NW",
            WorkloadKind::Pagerank => "PR",
            WorkloadKind::Sssp => "SSSP",
            WorkloadKind::Spmv => "SPMV",
            WorkloadKind::TsPow => "TS.Pow",
        }
    }

    /// Builds the workload's thread traces.
    pub fn build(self, params: &WorkloadParams) -> Workload {
        match self {
            WorkloadKind::Bfs => graph_apps::bfs(params),
            WorkloadKind::Hotspot => stencil::hotspot(params),
            WorkloadKind::KMeans => kmeans::kmeans(params),
            WorkloadKind::NeedlemanWunsch => stencil::needleman_wunsch(params),
            WorkloadKind::Pagerank => graph_apps::pagerank(params),
            WorkloadKind::Sssp => graph_apps::sssp(params),
            WorkloadKind::Spmv => graph_apps::spmv(params),
            WorkloadKind::TsPow => tspow::ts_pow(params),
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_nonempty_traces() {
        let params = WorkloadParams::small(4);
        for kind in [
            WorkloadKind::Bfs,
            WorkloadKind::Hotspot,
            WorkloadKind::KMeans,
            WorkloadKind::NeedlemanWunsch,
            WorkloadKind::Pagerank,
            WorkloadKind::Sssp,
            WorkloadKind::Spmv,
            WorkloadKind::TsPow,
        ] {
            let wl = kind.build(&params);
            assert_eq!(wl.traces().len(), params.threads(), "{kind}");
            assert!(wl.total_ops() > 100, "{kind} produced a trivial trace");
            // Every trace touches memory.
            for (t, trace) in wl.traces().iter().enumerate() {
                assert!(
                    trace.ops().iter().any(|op| matches!(
                        op,
                        Op::Load { .. } | Op::Store { .. } | Op::Atomic { .. }
                    )),
                    "{kind} thread {t} never touches memory"
                );
            }
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let params = WorkloadParams::small(2);
        let a = WorkloadKind::Pagerank.build(&params);
        let b = WorkloadKind::Pagerank.build(&params);
        assert_eq!(a.total_ops(), b.total_ops());
        assert_eq!(a.traces()[0].ops()[..50], b.traces()[0].ops()[..50]);
    }

    #[test]
    fn broadcast_variants_emit_broadcast_ops() {
        let mut params = WorkloadParams::small(4);
        params.broadcast = true;
        for kind in WorkloadKind::BROADCAST_SET {
            let wl = kind.build(&params);
            let has_bc = wl
                .traces()
                .iter()
                .any(|t| t.ops().iter().any(|op| matches!(op, Op::Broadcast { .. })));
            assert!(has_bc, "{kind} broadcast variant has no Broadcast ops");
        }
    }

    #[test]
    fn barriers_are_balanced_across_threads() {
        // Every thread must pass the same number of barriers or the
        // simulation deadlocks.
        let params = WorkloadParams::small(4);
        for kind in WorkloadKind::P2P_SET {
            let wl = kind.build(&params);
            let counts: Vec<usize> = wl
                .traces()
                .iter()
                .map(|t| {
                    t.ops()
                        .iter()
                        .filter(|op| matches!(op, Op::Barrier))
                        .count()
                })
                .collect();
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "{kind}: unbalanced barrier counts {counts:?}"
            );
        }
    }
}
