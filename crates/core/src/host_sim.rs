//! The fixed 16-core host-CPU baseline of Fig. 10.
//!
//! Runs the same workload traces on out-of-order host cores: every memory
//! access misses through a private L1 and a shared LLC onto one of eight
//! DDR4-2400 channels (line-interleaved), modelled by per-channel memory
//! controllers with a shared data bus. There is no IDC — the host sees one
//! flat physical address space — but it also has none of the NMP system's
//! aggregate rank-level bandwidth, which is exactly the gap near-memory
//! processing exploits.

use crate::config::HostConfig;
use crate::txn::TxnTable;
use dl_engine::stats::StatSet;
use dl_engine::{EventQueue, Ps, Resource};
use dl_mem::{AccessKind, Cache, CacheOutcome, DimmAddressMap, MemController, MemRequest};
use dl_workloads::{Op, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    WaitWindow,
    WaitDrain,
    WaitTxn(u64),
    WaitBarrier,
    Done,
}

#[derive(Debug)]
struct CoreState {
    pc: usize,
    outstanding: Vec<u64>,
    status: Status,
    ready_at: Ps,
    blocked_at: Ps,
    mem_stall: Ps,
    sync_stall: Ps,
    finish: Option<Ps>,
}

#[derive(Debug)]
enum Ev {
    Wake(usize),
    MemTick(usize),
    Done(u64),
}

/// Result of a host-baseline run.
#[derive(Debug, Clone)]
pub struct HostRun {
    /// End-to-end simulated time.
    pub elapsed: Ps,
    /// Counters.
    pub stats: StatSet,
}

/// Simulates `workload` on the host CPU baseline. One thread per core; the
/// workload should therefore be generated with `cfg.cores` threads (the
/// runner does this).
///
/// # Panics
/// Panics if `cfg` is invalid (see [`HostConfig::validate`]), if the
/// workload has more threads than the host has cores, or on deadlock.
pub fn simulate_host(workload: &Workload, cfg: &HostConfig) -> HostRun {
    cfg.validate().expect("invalid host configuration");
    assert!(
        workload.traces().len() <= cfg.cores,
        "host has {} cores but the workload has {} threads",
        cfg.cores,
        workload.traces().len()
    );
    HostSystem::new(workload, cfg).run()
}

struct HostSystem<'w> {
    cfg: HostConfig,
    workload: &'w Workload,
    events: EventQueue<Ev>,
    cores: Vec<CoreState>,
    l1: Vec<Cache>,
    llc: Cache,
    mcs: Vec<MemController>,
    mc_next: Vec<Ps>,
    map: DimmAddressMap,
    atomic_unit: Resource,
    /// txn -> (core, is-load)
    txns: TxnTable<(usize, bool)>,
    next_txn: u64,
    now: Ps,
    done: usize,
    // barrier
    arrived: usize,
    barrier_ready: Ps,
    waiting: Vec<usize>,
    barriers_passed: u64,
}

impl<'w> HostSystem<'w> {
    fn new(workload: &'w Workload, cfg: &HostConfig) -> Self {
        let threads = workload.traces().len();
        let mut events = EventQueue::new();
        for t in 0..threads {
            events.push(Ps::ZERO, Ev::Wake(t));
        }
        HostSystem {
            cfg: cfg.clone(),
            workload,
            events,
            cores: (0..threads)
                .map(|_| CoreState {
                    pc: 0,
                    outstanding: Vec::with_capacity(cfg.mlp),
                    status: Status::Ready,
                    ready_at: Ps::ZERO,
                    blocked_at: Ps::ZERO,
                    mem_stall: Ps::ZERO,
                    sync_stall: Ps::ZERO,
                    finish: None,
                })
                .collect(),
            l1: (0..threads).map(|_| Cache::new(cfg.l1)).collect(),
            llc: Cache::new(cfg.llc),
            mcs: (0..cfg.channels)
                .map(|c| MemController::new(format!("host-ch{c}"), &cfg.dram))
                .collect(),
            mc_next: vec![Ps::MAX; cfg.channels],
            map: DimmAddressMap::new(&cfg.dram),
            atomic_unit: Resource::new("host-atomics"),
            txns: TxnTable::new(),
            next_txn: 0,
            now: Ps::ZERO,
            done: 0,
            arrived: 0,
            barrier_ready: Ps::ZERO,
            waiting: Vec::new(),
            barriers_passed: 0,
        }
    }

    /// Line-interleaved channel mapping (maximizes host channel parallelism).
    fn channel_of(&self, addr: u64) -> usize {
        ((addr / 64) % self.cfg.channels as u64) as usize
    }

    fn run(mut self) -> HostRun {
        while let Some((t, ev)) = self.events.pop() {
            self.now = t;
            match ev {
                Ev::Wake(c) => self.advance_core(c),
                Ev::MemTick(ch) => self.mem_tick(ch),
                Ev::Done(id) => {
                    if let Some((c, _)) = self.txns.remove(id) {
                        self.complete(c, id);
                    }
                }
            }
            if self.done == self.cores.len() {
                break;
            }
        }
        assert_eq!(self.done, self.cores.len(), "host simulation deadlocked");
        self.collect()
    }

    fn advance_core(&mut self, c: usize) {
        if self.cores[c].status != Status::Ready {
            return;
        }
        let mut t = self.now.max(self.cores[c].ready_at);
        let trace = self.workload.traces()[c].ops();
        loop {
            let horizon = self.events.peek_time().unwrap_or(Ps::MAX);
            if t > horizon {
                self.cores[c].ready_at = t;
                self.events.push(t, Ev::Wake(c));
                return;
            }
            if self.cores[c].pc >= trace.len() {
                if self.cores[c].outstanding.is_empty() {
                    self.cores[c].status = Status::Done;
                    self.cores[c].finish = Some(t);
                    self.done += 1;
                } else {
                    self.cores[c].status = Status::WaitDrain;
                    self.cores[c].blocked_at = t;
                }
                return;
            }
            let op = trace[self.cores[c].pc];
            match op {
                Op::Comp(cycles) => {
                    self.cores[c].pc += 1;
                    t += self.cfg.freq.cycles(cycles as u64);
                }
                Op::Load { addr, cacheable } | Op::Store { addr, cacheable } => {
                    let is_write = matches!(op, Op::Store { .. });
                    if cacheable {
                        let l1_lat = self.cfg.freq.cycles(self.l1[c].hit_latency_cycles() as u64);
                        match self.l1[c].access(addr, is_write) {
                            CacheOutcome::Hit => {
                                self.cores[c].pc += 1;
                                t += l1_lat;
                                continue;
                            }
                            CacheOutcome::Miss { writeback } => {
                                if let Some(v) = writeback {
                                    self.llc.access(v, true);
                                }
                                let llc_lat =
                                    self.cfg.freq.cycles(self.llc.hit_latency_cycles() as u64);
                                match self.llc.access(addr, is_write) {
                                    CacheOutcome::Hit => {
                                        self.cores[c].pc += 1;
                                        t += l1_lat + llc_lat;
                                        continue;
                                    }
                                    CacheOutcome::Miss { writeback: wb } => {
                                        if let Some(v) = wb {
                                            self.background_write(v, t);
                                        }
                                    }
                                }
                            }
                        }
                    }
                    if self.cores[c].outstanding.len() >= self.cfg.mlp {
                        self.cores[c].status = Status::WaitWindow;
                        self.cores[c].blocked_at = t;
                        return;
                    }
                    self.cores[c].pc += 1;
                    self.issue_mem(c, addr, is_write, t);
                    t += self.cfg.freq.cycles(1);
                }
                Op::Atomic { .. } => {
                    if !self.cores[c].outstanding.is_empty() {
                        self.cores[c].status = Status::WaitDrain;
                        self.cores[c].blocked_at = t;
                        return;
                    }
                    self.cores[c].pc += 1;
                    // LLC-resident atomic: fast but serialized globally.
                    let done = self.atomic_unit.reserve(t, Ps::from_ns(25));
                    let id = self.alloc();
                    self.txns.insert(id, (c, false));
                    self.cores[c].status = Status::WaitTxn(id);
                    self.cores[c].blocked_at = t;
                    self.events.push(done, Ev::Done(id));
                    return;
                }
                Op::Broadcast { bytes, addr } => {
                    // Shared memory: a broadcast is just the stores of the
                    // payload, visible to everyone.
                    self.cores[c].pc += 1;
                    let lines = (bytes as u64).div_ceil(64);
                    for l in 0..lines {
                        if self.cores[c].outstanding.len() >= self.cfg.mlp {
                            break; // approximate: the rest hit the window later
                        }
                        self.issue_mem(c, addr + l * 64, true, t);
                    }
                    t += self.cfg.freq.cycles(lines);
                }
                Op::Barrier => {
                    if !self.cores[c].outstanding.is_empty() {
                        self.cores[c].status = Status::WaitDrain;
                        self.cores[c].blocked_at = t;
                        return;
                    }
                    self.cores[c].pc += 1;
                    self.cores[c].status = Status::WaitBarrier;
                    self.cores[c].blocked_at = t;
                    self.arrived += 1;
                    self.waiting.push(c);
                    self.barrier_ready = self.barrier_ready.max(t);
                    if self.arrived == self.cores.len() {
                        self.barriers_passed += 1;
                        // Shared-memory barrier: tens of ns once everyone is in.
                        let release = self.barrier_ready + Ps::from_ns(60);
                        let waiting = std::mem::take(&mut self.waiting);
                        self.arrived = 0;
                        self.barrier_ready = Ps::ZERO;
                        for w in waiting {
                            let stall = release.saturating_sub(self.cores[w].blocked_at);
                            self.cores[w].sync_stall += stall;
                            self.cores[w].status = Status::Ready;
                            self.cores[w].ready_at = release;
                            self.events.push(release, Ev::Wake(w));
                        }
                    }
                    return;
                }
            }
        }
    }

    fn alloc(&mut self) -> u64 {
        self.next_txn += 1;
        self.next_txn
    }

    fn issue_mem(&mut self, c: usize, addr: u64, is_write: bool, t: Ps) {
        let ch = self.channel_of(addr);
        let id = self.alloc();
        self.txns.insert(id, (c, !is_write));
        self.cores[c].outstanding.push(id);
        let kind = if is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        // Channel command/IO latency folded into the request arrival.
        let arrival = t + self.cfg.channel_latency;
        self.mc_enqueue(ch, arrival, MemRequest::new(id, kind, self.decode(addr)));
    }

    fn background_write(&mut self, addr: u64, t: Ps) {
        let ch = self.channel_of(addr);
        let id = self.alloc();
        // Not in txns: nobody waits.
        self.mc_enqueue(
            ch,
            t + self.cfg.channel_latency,
            MemRequest::new(id, AccessKind::Write, self.decode(addr)),
        );
    }

    fn decode(&self, addr: u64) -> dl_mem::DimmAddr {
        // Fold the interleaved address into the channel's local space.
        self.map.decode(addr / self.cfg.channels as u64)
    }

    fn mc_enqueue(&mut self, ch: usize, at: Ps, req: MemRequest) {
        self.mcs[ch].enqueue(at, req);
        let wake = at.max(self.now);
        if self.mc_next[ch] > wake {
            self.mc_next[ch] = wake;
            self.events.push(wake, Ev::MemTick(ch));
        }
    }

    fn mem_tick(&mut self, ch: usize) {
        if self.now != self.mc_next[ch] {
            return;
        }
        self.mc_next[ch] = Ps::MAX;
        // The data return crosses the channel too: deliver completions with
        // the return-path latency added.
        let lat = self.cfg.channel_latency;
        for comp in self.mcs[ch].service(self.now) {
            if self.txns.contains(comp.id) {
                self.events.push(self.now + lat, Ev::Done(comp.id));
            }
        }
        if let Some(w) = self.mcs[ch].next_wake() {
            if self.mc_next[ch] > w {
                self.mc_next[ch] = w;
                self.events.push(w, Ev::MemTick(ch));
            }
        }
    }

    fn complete(&mut self, c: usize, id: u64) {
        if let Status::WaitTxn(waited) = self.cores[c].status {
            if waited == id {
                let stall = self.now.saturating_sub(self.cores[c].blocked_at);
                self.cores[c].mem_stall += stall;
                self.cores[c].status = Status::Ready;
                self.cores[c].ready_at = self.now;
                self.events.push(self.now, Ev::Wake(c));
                return;
            }
        }
        if let Some(pos) = self.cores[c].outstanding.iter().position(|&x| x == id) {
            self.cores[c].outstanding.swap_remove(pos);
            match self.cores[c].status {
                Status::WaitWindow => {
                    let stall = self.now.saturating_sub(self.cores[c].blocked_at);
                    self.cores[c].mem_stall += stall;
                    self.cores[c].status = Status::Ready;
                    self.cores[c].ready_at = self.now;
                    self.events.push(self.now, Ev::Wake(c));
                }
                Status::WaitDrain if self.cores[c].outstanding.is_empty() => {
                    let stall = self.now.saturating_sub(self.cores[c].blocked_at);
                    self.cores[c].mem_stall += stall;
                    self.cores[c].status = Status::Ready;
                    self.cores[c].ready_at = self.now;
                    self.events.push(self.now, Ev::Wake(c));
                }
                _ => {}
            }
        }
    }

    fn collect(self) -> HostRun {
        let elapsed = self
            .cores
            .iter()
            .map(|c| c.finish.expect("finished"))
            .max()
            .unwrap_or(Ps::ZERO);
        let mut s = StatSet::new();
        s.set("elapsed_ps", elapsed.as_ps() as f64);
        s.set("threads", self.cores.len() as f64);
        s.set("barriers", self.barriers_passed as f64);
        let mut activates = 0.0;
        let mut bytes = 0.0;
        for mc in &self.mcs {
            activates += mc.activates() as f64;
            bytes += mc.bytes_moved() as f64;
        }
        s.set("dram.activates", activates);
        s.set("dram.bytes", bytes);
        let threads = self.cores.len() as f64;
        let mem_stall: Ps = self.cores.iter().map(|c| c.mem_stall).sum();
        s.set(
            "mem_stall_frac",
            if elapsed == Ps::ZERO {
                0.0
            } else {
                mem_stall.as_ps() as f64 / (elapsed.as_ps() as f64 * threads)
            },
        );
        HostRun { elapsed, stats: s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HostConfig;
    use dl_workloads::{synth, WorkloadKind, WorkloadParams};

    /// A host-shaped workload: 16 threads over 8 partitions.
    fn host_params() -> WorkloadParams {
        WorkloadParams {
            dimms: 8,
            threads_per_dimm: 2,
            scale: 8,
            seed: 42,
            broadcast: false,
            locality: 0.85,
        }
    }

    #[test]
    fn host_runs_synthetic_workload() {
        let wl = synth::uniform_random(&host_params(), 300, 0.5);
        let r = simulate_host(&wl, &HostConfig::xeon_16core());
        assert!(r.elapsed > Ps::ZERO);
        assert_eq!(r.stats.get("barriers"), Some(1.0));
    }

    #[test]
    fn host_runs_real_workloads() {
        for kind in [
            WorkloadKind::Bfs,
            WorkloadKind::KMeans,
            WorkloadKind::Hotspot,
        ] {
            let wl = kind.build(&host_params());
            let r = simulate_host(&wl, &HostConfig::xeon_16core());
            assert!(r.elapsed > Ps::ZERO, "{kind}");
        }
    }

    #[test]
    fn host_location_of_data_does_not_matter() {
        // On the host everything crosses the same channels: remote fraction
        // in the NMP sense has no effect.
        let local = synth::uniform_random(&host_params(), 400, 0.0);
        let remote = synth::uniform_random(&host_params(), 400, 1.0);
        let cfg = HostConfig::xeon_16core();
        let a = simulate_host(&local, &cfg);
        let b = simulate_host(&remote, &cfg);
        let ratio = a.elapsed.as_ps() as f64 / b.elapsed.as_ps() as f64;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "invalid host configuration")]
    fn zero_channels_rejected_before_simulating() {
        let wl = synth::uniform_random(&host_params(), 10, 0.0);
        let cfg = HostConfig {
            channels: 0,
            ..HostConfig::xeon_16core()
        };
        let _ = simulate_host(&wl, &cfg);
    }

    #[test]
    #[should_panic(expected = "host has 16 cores")]
    fn too_many_threads_rejected() {
        let params = WorkloadParams::small(8); // 32 threads
        let wl = synth::uniform_random(&params, 10, 0.0);
        let _ = simulate_host(&wl, &HostConfig::xeon_16core());
    }
}
