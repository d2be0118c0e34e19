//! System configuration (paper Table V plus the knobs of Sections IV–VI).

use dl_engine::{Freq, Ps, RunBudget};
use dl_mem::{CacheConfig, DramConfig};
use dl_noc::{LinkParams, TopologyKind};
use serde::{Deserialize, Serialize};

/// Which inter-DIMM communication mechanism the system uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IdcKind {
    /// Host-CPU forwarding over the memory channels (MCN / UPMEM style).
    CpuForwarding,
    /// A dedicated multi-drop bus shared by all DIMMs (AIM).
    DedicatedBus,
    /// Intra-channel multi-drop broadcast, CPU forwarding across channels
    /// (ABC-DIMM).
    AbcDimm,
    /// DIMM-Link: external SerDes links between adjacent DIMMs with hybrid
    /// routing.
    DimmLink,
    /// DIMM-Link on disaggregated memory (paper Section VI): each DL group
    /// is a memory blade; inter-blade packets ride a CXL-class fabric
    /// instead of host-CPU forwarding.
    DimmLinkCxl,
}

impl std::fmt::Display for IdcKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            IdcKind::CpuForwarding => "MCN",
            IdcKind::DedicatedBus => "AIM",
            IdcKind::AbcDimm => "ABC-DIMM",
            IdcKind::DimmLink => "DIMM-Link",
            IdcKind::DimmLinkCxl => "DIMM-Link+CXL",
        };
        f.write_str(s)
    }
}

/// Host polling strategies (paper Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PollingStrategy {
    /// Periodically scan every DIMM of every channel.
    Base,
    /// ALERT_N interrupt, then scan the interrupting channel's DIMMs.
    BaseInterrupt,
    /// Scan only the proxy DIMM of each DL group (requests are aggregated
    /// at the proxy over DIMM-Link). Only meaningful with
    /// [`IdcKind::DimmLink`].
    Proxy,
    /// Interrupt plus proxy: scan one DIMM of the interrupting group.
    ProxyInterrupt,
}

impl std::fmt::Display for PollingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PollingStrategy::Base => "Base",
            PollingStrategy::BaseInterrupt => "Base+Itrpt",
            PollingStrategy::Proxy => "P-P",
            PollingStrategy::ProxyInterrupt => "P-P+Itrpt",
        };
        f.write_str(s)
    }
}

/// Barrier/lock coordination scheme (paper Section III-D, Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyncScheme {
    /// Every thread synchronizes against one global master core.
    Central,
    /// Core masters → DIMM master → group master → global (DIMM-Link-Hier).
    Hierarchical,
}

/// How threads are initially placed on DIMMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Thread `t` runs on its data's home DIMM (the static OpenMP-style
    /// mapping; what DIMM-Link-base uses).
    Natural,
    /// Uniformly random placement (the starting point of the profiling run
    /// in Algorithm 1).
    Random,
}

/// Full system configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of NMP DIMMs.
    pub dimms: usize,
    /// Number of host memory channels.
    pub channels: usize,
    /// NMP cores per DIMM (paper: 4 general-purpose cores).
    pub cores_per_dimm: usize,
    /// NMP core clock.
    pub nmp_freq: Freq,
    /// Maximum outstanding memory requests per NMP core (in-order, small).
    pub nmp_mlp: usize,
    /// NMP L1 configuration.
    pub nmp_l1: CacheConfig,
    /// Shared per-DIMM L2 (paper: 128 KB).
    pub nmp_l2: CacheConfig,
    /// DRAM configuration per DIMM.
    pub dram: DramConfig,
    /// Memory-channel bandwidth in bytes/s (DDR4-2400: 19.2 GB/s).
    pub channel_bandwidth: u64,
    /// One-way channel latency (command + IO path).
    pub channel_latency: Ps,
    /// IDC mechanism.
    pub idc: IdcKind,
    /// DIMM-Link link parameters (used when `idc == DimmLink`).
    pub link: LinkParams,
    /// DL-group topology.
    pub topology: TopologyKind,
    /// Number of DL groups (DIMMs on each side of the CPU socket).
    pub groups: usize,
    /// DL-Controller packetize/decode latency per endpoint.
    pub dl_proc: Ps,
    /// Polling strategy for host forwarding.
    pub polling: PollingStrategy,
    /// Full-scan polling period per channel.
    pub poll_period: Ps,
    /// Channel occupancy of polling one DIMM's registers.
    pub poll_cost: Ps,
    /// Interrupt delivery + context switch latency (ALERT_N path).
    pub interrupt_latency: Ps,
    /// Host packet-forwarding latency per packet (GEM5-profiled constant;
    /// pipelined — see `fwd_occupancy`).
    pub fwd_proc: Ps,
    /// Serialized initiation interval of the host forwarding thread: the
    /// host can start a new forward only this often (its pipeline
    /// throughput), even though each packet takes `fwd_proc` to emerge.
    pub fwd_occupancy: Ps,
    /// Synchronization scheme.
    pub sync: SyncScheme,
    /// Latency of intra-DIMM core synchronization (via shared L2).
    pub local_sync_latency: Ps,
    /// Serialized host-CPU occupancy per *synchronization* message it
    /// forwards: unlike bulk data (which moves through DMA burst engines at
    /// `fwd_occupancy`), sync flags are register-level operations performed
    /// by the polling thread itself.
    pub sync_fwd_occupancy: Ps,
    /// Serialized processing per message at a synchronization master core
    /// (aggregation, counter update, release initiation).
    pub sync_master_proc: Ps,
    /// Home-DIMM service time of one atomic operation.
    pub atomic_service: Ps,
    /// Arbitration + bus-turnaround overhead per transaction on the AIM
    /// dedicated multi-drop bus (shared-bus small-packet inefficiency).
    pub bus_txn_overhead: Ps,
    /// One-way latency of the AIM dedicated bus: arbitration among all
    /// DIMMs plus propagation along a heavily-loaded multi-drop trace (the
    /// signal-integrity-constrained topology the paper criticizes runs far
    /// slower than a point-to-point link).
    pub bus_latency: Ps,
    /// Initial thread placement.
    pub placement: PlacementPolicy,
    /// Fraction of each trace simulated during the profiling phase of
    /// Algorithm 1 (paper: 1 %).
    pub profile_fraction: f64,
    /// Seed for randomized placement.
    pub seed: u64,
    /// Per-blade CXL port bandwidth for [`IdcKind::DimmLinkCxl`]
    /// (CXL 2.0 x8-class).
    pub cxl_bandwidth: u64,
    /// One-way CXL fabric latency (port + switch + wire).
    pub cxl_latency: Ps,
    /// Deterministic run budget (scheduled events / simulated time); the
    /// default is unlimited. Exceeding it ends the run with
    /// [`dl_engine::RunStatus::BudgetExceeded`] instead of panicking.
    pub budget: RunBudget,
}

impl SystemConfig {
    /// The paper's default NMP system at a given size, e.g. `(16, 8)` for
    /// the 16D-8C configuration of Fig. 10.
    ///
    /// # Panics
    /// Panics if `dimms` is not a positive multiple of `channels`.
    pub fn nmp(dimms: usize, channels: usize) -> Self {
        assert!(
            dimms > 0 && channels > 0 && dimms.is_multiple_of(channels),
            "dimms ({dimms}) must be a positive multiple of channels ({channels})"
        );
        SystemConfig {
            dimms,
            channels,
            cores_per_dimm: 4,
            nmp_freq: Freq::from_ghz(2.0),
            nmp_mlp: 8,
            nmp_l1: CacheConfig::l1_32k(),
            nmp_l2: CacheConfig::l2_128k(),
            dram: DramConfig::ddr4_2400_lrdimm(),
            channel_bandwidth: 19_200_000_000,
            channel_latency: Ps::from_ns(15),
            idc: IdcKind::DimmLink,
            link: LinkParams::grs_25gbps(),
            topology: TopologyKind::Chain,
            groups: if dimms >= 8 { 2 } else { 1 },
            dl_proc: Ps::from_ns(10),
            polling: PollingStrategy::Base,
            poll_period: Ps::from_ns(200),
            poll_cost: Ps::from_ns(30),
            interrupt_latency: Ps::from_ns(400),
            fwd_proc: Ps::from_ns(150),
            fwd_occupancy: Ps::from_ns(4),
            sync: SyncScheme::Hierarchical,
            local_sync_latency: Ps::from_ns(25),
            sync_fwd_occupancy: Ps::from_ns(80),
            sync_master_proc: Ps::from_ns(15),
            atomic_service: Ps::from_ns(20),
            bus_txn_overhead: Ps::from_ns(2),
            bus_latency: Ps::from_ns(45),
            placement: PlacementPolicy::Natural,
            profile_fraction: 0.01,
            seed: 42,
            cxl_bandwidth: 32_000_000_000,
            cxl_latency: Ps::from_ns(250),
            budget: RunBudget::UNLIMITED,
        }
    }

    /// The four P2P evaluation configurations of Fig. 10.
    pub fn p2p_sweep() -> [(&'static str, SystemConfig); 4] {
        [
            ("4D-2C", Self::nmp(4, 2)),
            ("8D-4C", Self::nmp(8, 4)),
            ("12D-6C", Self::nmp(12, 6)),
            ("16D-8C", Self::nmp(16, 8)),
        ]
    }

    /// Builds a variant with a different IDC mechanism and its matching
    /// polling/sync defaults (MCN and AIM use base polling and central
    /// synchronization in the paper's comparisons).
    pub fn with_idc(mut self, idc: IdcKind) -> Self {
        self.idc = idc;
        match idc {
            IdcKind::CpuForwarding | IdcKind::AbcDimm => {
                self.polling = PollingStrategy::Base;
                self.sync = SyncScheme::Central;
            }
            IdcKind::DedicatedBus => {
                self.sync = SyncScheme::Central;
            }
            IdcKind::DimmLink => {
                self.polling = PollingStrategy::Proxy;
                self.sync = SyncScheme::Hierarchical;
            }
            IdcKind::DimmLinkCxl => {
                // No host involvement at all: polling is irrelevant (kept at
                // Base so no proxy channels are registered).
                self.polling = PollingStrategy::Base;
                self.sync = SyncScheme::Hierarchical;
            }
        }
        self
    }

    /// DIMMs per channel.
    pub fn dimms_per_channel(&self) -> usize {
        self.dimms / self.channels
    }

    /// The channel a DIMM sits on (DIMMs are filled channel-major).
    pub fn channel_of(&self, dimm: usize) -> usize {
        dimm / self.dimms_per_channel()
    }

    /// The DL group a DIMM belongs to (contiguous split across groups).
    pub fn group_of(&self, dimm: usize) -> usize {
        let per_group = self.dimms.div_ceil(self.groups);
        (dimm / per_group).min(self.groups - 1)
    }

    /// The DIMMs of one group, in chain order.
    pub fn group_members(&self, group: usize) -> Vec<usize> {
        (0..self.dimms)
            .filter(|&d| self.group_of(d) == group)
            .collect()
    }

    /// Total NMP threads (one per core).
    pub fn threads(&self) -> usize {
        self.dimms * self.cores_per_dimm
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.dimms == 0 || self.dimms > 32 {
            return Err(format!("dimms must be in 1..=32, got {}", self.dimms));
        }
        if !self.dimms.is_multiple_of(self.channels) {
            return Err("dimms must divide evenly over channels".into());
        }
        if self.groups == 0 || self.groups > self.dimms {
            return Err("groups must be in 1..=dimms".into());
        }
        if matches!(
            self.polling,
            PollingStrategy::Proxy | PollingStrategy::ProxyInterrupt
        ) && self.idc != IdcKind::DimmLink
        {
            return Err("proxy polling requires the DIMM-Link mechanism".into());
        }
        if self.nmp_mlp == 0 {
            return Err("nmp_mlp must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&self.profile_fraction) {
            return Err("profile_fraction must be in [0,1]".into());
        }
        // Each of these becomes a `BandwidthResource`, which cannot move
        // bytes at zero bandwidth.
        for (name, bytes_per_sec) in [
            ("link bandwidth", self.link.bytes_per_sec),
            ("channel bandwidth", self.channel_bandwidth),
            ("CXL bandwidth", self.cxl_bandwidth),
        ] {
            if bytes_per_sec == 0 {
                return Err(format!("{name} must be non-zero"));
            }
        }
        self.dram.validate()?;
        self.nmp_l1.validate()?;
        self.nmp_l2.validate()?;
        Ok(())
    }
}

/// Host-CPU baseline configuration (the fixed 16-core comparator of Fig. 10).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostConfig {
    /// Out-of-order cores.
    pub cores: usize,
    /// Core clock.
    pub freq: Freq,
    /// Outstanding-miss window (OoO cores hide much more latency).
    pub mlp: usize,
    /// Private L1.
    pub l1: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// Memory channels.
    pub channels: usize,
    /// Channel bandwidth in bytes/s.
    pub channel_bandwidth: u64,
    /// One-way channel latency.
    pub channel_latency: Ps,
    /// DRAM configuration per channel.
    pub dram: DramConfig,
}

impl HostConfig {
    /// The paper's baseline: 16 OoO cores at 3 GHz with 8 DDR4-2400
    /// channels.
    ///
    /// Two deliberate calibrations for the scaled-down inputs (see
    /// DESIGN.md): the LLC is shrunk to preserve the paper's working-set to
    /// cache ratio (LiveJournal-class inputs exceed a server LLC by more
    /// than an order of magnitude), and the per-access channel latency uses
    /// a loaded-system value rather than an unloaded pin-to-pin figure.
    pub fn xeon_16core() -> Self {
        HostConfig {
            cores: 16,
            freq: Freq::from_ghz(3.0),
            mlp: 10,
            l1: CacheConfig::l1_32k(),
            llc: CacheConfig {
                capacity_bytes: 512 * 1024,
                ways: 16,
                line_bytes: 64,
                hit_latency_cycles: 35,
            },
            channels: 8,
            channel_bandwidth: 19_200_000_000,
            channel_latency: Ps::from_ns(30),
            dram: DramConfig {
                bus_per_rank: false,
                ..DramConfig::ddr4_2400_lrdimm()
            },
        }
    }

    /// Validates the host's sizes and its DRAM and cache configurations.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("cores", self.cores),
            ("mlp", self.mlp),
            ("channels", self.channels),
        ] {
            if v == 0 {
                return Err(format!("host {name} must be >= 1"));
            }
        }
        if self.channel_bandwidth == 0 {
            return Err("host channel bandwidth must be non-zero".into());
        }
        self.dram.validate()?;
        self.l1.validate()?;
        self.llc.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for (_, cfg) in SystemConfig::p2p_sweep() {
            cfg.validate().unwrap();
            for idc in [
                IdcKind::CpuForwarding,
                IdcKind::DedicatedBus,
                IdcKind::AbcDimm,
                IdcKind::DimmLink,
            ] {
                cfg.clone().with_idc(idc).validate().unwrap();
            }
        }
    }

    #[test]
    fn group_and_channel_mapping() {
        let cfg = SystemConfig::nmp(16, 8);
        assert_eq!(cfg.dimms_per_channel(), 2);
        assert_eq!(cfg.channel_of(0), 0);
        assert_eq!(cfg.channel_of(15), 7);
        assert_eq!(cfg.group_of(0), 0);
        assert_eq!(cfg.group_of(7), 0);
        assert_eq!(cfg.group_of(8), 1);
        assert_eq!(cfg.group_members(0), (0..8).collect::<Vec<_>>());
        assert_eq!(cfg.group_members(1), (8..16).collect::<Vec<_>>());
    }

    #[test]
    fn single_group_for_small_systems() {
        let cfg = SystemConfig::nmp(4, 2);
        assert_eq!(cfg.groups, 1);
        assert_eq!(cfg.group_of(3), 0);
    }

    #[test]
    fn with_idc_swaps_polling_and_sync() {
        let dl = SystemConfig::nmp(16, 8).with_idc(IdcKind::DimmLink);
        assert_eq!(dl.polling, PollingStrategy::Proxy);
        assert_eq!(dl.sync, SyncScheme::Hierarchical);
        let mcn = SystemConfig::nmp(16, 8).with_idc(IdcKind::CpuForwarding);
        assert_eq!(mcn.polling, PollingStrategy::Base);
        assert_eq!(mcn.sync, SyncScheme::Central);
    }

    #[test]
    fn validate_rejects_proxy_polling_without_dimm_link() {
        let mut cfg = SystemConfig::nmp(16, 8).with_idc(IdcKind::CpuForwarding);
        cfg.polling = PollingStrategy::Proxy;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_bandwidths() {
        let mut cfg = SystemConfig::nmp(16, 8);
        cfg.link = cfg.link.with_bandwidth(0);
        assert_eq!(
            cfg.validate(),
            Err("link bandwidth must be non-zero".into())
        );
        let mut cfg = SystemConfig::nmp(16, 8);
        cfg.channel_bandwidth = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::nmp(16, 8);
        cfg.cxl_bandwidth = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_nmp_mlp() {
        let mut cfg = SystemConfig::nmp(16, 8);
        cfg.nmp_mlp = 0;
        assert_eq!(cfg.validate(), Err("nmp_mlp must be >= 1".into()));
    }

    #[test]
    fn host_baseline_validates() {
        HostConfig::xeon_16core().validate().unwrap();
    }

    #[test]
    fn host_validate_rejects_each_bad_field() {
        let rejects = |want: &str, spoil: fn(&mut HostConfig)| {
            let mut h = HostConfig::xeon_16core();
            spoil(&mut h);
            let err = h.validate().expect_err(want);
            assert!(err.contains(want), "{err:?} should mention {want:?}");
        };
        rejects("host cores must be >= 1", |h| h.cores = 0);
        rejects("host mlp must be >= 1", |h| h.mlp = 0);
        rejects("host channels must be >= 1", |h| h.channels = 0);
        rejects("host channel bandwidth must be non-zero", |h| {
            h.channel_bandwidth = 0
        });
        rejects("hit_streak_cap must be >= 1", |h| h.dram.hit_streak_cap = 0);
        rejects("ways must be >= 1", |h| h.l1.ways = 0);
        rejects("line_bytes must be a non-zero power of two", |h| {
            h.llc.line_bytes = 48
        });
    }

    #[test]
    #[should_panic(expected = "multiple of channels")]
    fn uneven_dimm_channel_split_panics() {
        let _ = SystemConfig::nmp(10, 4);
    }

    #[test]
    fn host_baseline_is_fixed() {
        let h = HostConfig::xeon_16core();
        assert_eq!(h.cores, 16);
        assert_eq!(h.channels, 8);
        assert!(!h.dram.bus_per_rank);
    }
}
