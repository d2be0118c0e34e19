#![forbid(unsafe_code)]
//! # dimm-link
//!
//! A from-scratch reproduction of **DIMM-Link: Enabling Efficient Inter-DIMM
//! Communication for Near-Memory Processing** (HPCA 2023).
//!
//! The crate models a complete DIMM-based near-memory-processing system —
//! NMP cores, caches, DDR4 DIMMs, memory channels, the host CPU's polling
//! and forwarding path — and four interchangeable inter-DIMM communication
//! (IDC) mechanisms:
//!
//! * [`config::IdcKind::CpuForwarding`] — MCN / UPMEM-style host forwarding,
//! * [`config::IdcKind::DedicatedBus`] — AIM's shared multi-drop bus,
//! * [`config::IdcKind::AbcDimm`] — intra-channel broadcast,
//! * [`config::IdcKind::DimmLink`] — the paper's SerDes-linked DL groups
//!   with hybrid routing, polling proxy, hierarchical synchronization, and
//!   distance-aware task mapping (Algorithm 1).
//!
//! # Quickstart
//!
//! ```
//! use dimm_link::config::{IdcKind, SystemConfig};
//! use dimm_link::runner::simulate;
//! use dl_workloads::{WorkloadKind, WorkloadParams};
//!
//! // Build a small BFS workload for a 4-DIMM, 2-channel system...
//! let params = WorkloadParams { scale: 8, ..WorkloadParams::small(4) };
//! let workload = WorkloadKind::Bfs.build(&params);
//!
//! // ...and run it with DIMM-Link vs. CPU-forwarding.
//! let base = SystemConfig::nmp(4, 2);
//! let dl = simulate(&workload, &base.clone().with_idc(IdcKind::DimmLink));
//! let mcn = simulate(&workload, &base.with_idc(IdcKind::CpuForwarding));
//! assert!(dl.elapsed < mcn.elapsed);
//! ```

pub mod config;
pub mod energy;
pub mod host;
pub mod host_sim;
pub mod idc;
pub mod runner;
pub mod system;
mod txn;

pub use config::{HostConfig, IdcKind, PlacementPolicy, PollingStrategy, SyncScheme, SystemConfig};
pub use energy::{EnergyBreakdown, EnergyParams};
pub use runner::{host_baseline, simulate, simulate_optimized, RunResult};
pub use system::{natural_placement, random_placement, NmpSystem};
