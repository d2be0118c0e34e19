//! Replays of a workload's own traffic through the public API of single
//! layers, timing each layer apart from the rest of the simulator.
//!
//! A replay is not a simulation: it feeds one layer the stream a run would
//! give it, at the run's mean simulated rate, so that the layer works on
//! its real access pattern and at its real depth. Each replay reports the
//! median over batches of the host nanoseconds per operation.

use crate::span::Stopwatch;
use crate::stats::median;
use dimm_link::idc::{wire_bytes, Interconnect, NOTIFY_BYTES};
use dimm_link::SystemConfig;
use dl_engine::{DetRng, EventQueue, Ps};
use dl_mem::{
    AccessKind, Cache, CacheConfig, CacheOutcome, DimmAddressMap, MemController, MemRequest,
};
use dl_noc::{PacketNet, Topology};
use dl_workloads::{Op, Workload};

/// Operations per timed batch.
const BATCH: u64 = 4096;

/// Host time of one replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Operations replayed.
    pub ops: u64,
    /// Host nanoseconds per operation, one sample per full batch.
    pub batch_ns: Vec<f64>,
}

impl Replay {
    /// Median host nanoseconds per operation; zero when nothing was
    /// replayed.
    pub fn ns_per_op(&self) -> f64 {
        if self.batch_ns.is_empty() {
            0.0
        } else {
            median(&self.batch_ns)
        }
    }
}

/// Collects per-batch timings while a replay runs.
struct Batches {
    clock: Stopwatch,
    mark: f64,
    in_batch: u64,
    ops: u64,
    batch_ns: Vec<f64>,
}

impl Batches {
    fn start() -> Self {
        Batches {
            clock: Stopwatch::start(),
            mark: 0.0,
            in_batch: 0,
            ops: 0,
            batch_ns: Vec::new(),
        }
    }

    /// Counts `n` finished operations.
    fn done(&mut self, n: u64) {
        self.ops += n;
        self.in_batch += n;
        if self.in_batch >= BATCH {
            let now = self.clock.secs();
            self.batch_ns
                .push((now - self.mark) * 1e9 / self.in_batch as f64);
            self.mark = now;
            self.in_batch = 0;
        }
    }

    fn finish(self) -> Replay {
        let mut batch_ns = self.batch_ns;
        // A replay shorter than one batch still yields one sample.
        if batch_ns.is_empty() && self.in_batch > 0 {
            batch_ns.push((self.clock.secs() - self.mark) * 1e9 / self.in_batch as f64);
        }
        Replay {
            ops: self.ops,
            batch_ns,
        }
    }
}

/// Where a memory operation falls in the run, if every thread advanced
/// through its trace at a uniform rate: a fraction of the run's elapsed
/// time, scaled to `u64` so that sorting is exact.
fn progress(i: usize, len: usize) -> u64 {
    (i as u128 * u64::MAX as u128 / len.max(1) as u128) as u64
}

/// Remote memory operations as `(progress, thread, op index)`, in time
/// order (ties by thread): those whose address lives on another DIMM than
/// the one `placement` runs the thread on.
fn remote_accesses(wl: &Workload, placement: &[usize]) -> Vec<(u64, u32, u32)> {
    let layout = wl.layout();
    let mut remote = Vec::new();
    for (thread, trace) in wl.traces().iter().enumerate() {
        let home = placement[thread];
        for (i, op) in trace.ops().iter().enumerate() {
            let addr = match *op {
                Op::Load { addr, .. } | Op::Store { addr, .. } | Op::Atomic { addr } => addr,
                _ => continue,
            };
            if layout.dimm_of(addr) != home {
                remote.push((progress(i, trace.len()), thread as u32, i as u32));
            }
        }
    }
    remote.sort_unstable();
    remote
}

/// The remote memory operations the `PacketNet` replay found in the
/// workload, before any cap. Loads are counted whether or not they are
/// cacheable, so they are at least the run's `remote_reads` (remote loads
/// that missed the L1 or bypassed it); they are equal when every remote
/// load is uncacheable, as in the benchmark's workloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteCount {
    /// Loads, stores and atomics.
    pub accesses: u64,
    /// Loads alone.
    pub loads: u64,
}

/// The simulated time of the `k`-th of `n` requests spread evenly over
/// `elapsed`: the run's mean inter-request spacing.
fn spaced(elapsed: Ps, k: usize, n: usize) -> Ps {
    Ps::from_ps((elapsed.as_ps() as u128 * k as u128 / n.max(1) as u128) as u64)
}

/// `EventQueue` under the hold model: keep `depth` events pending, then
/// `events` times pop the earliest and push a successor a random distance
/// ahead. One operation is one pop plus one push.
pub fn event_queue(events: u64, depth: usize, seed: u64) -> Replay {
    let mut rng = DetRng::seed(seed).stream("perfbench.hold");
    // Successor distances are drawn up front so the timed loop measures the
    // queue alone; a 4096-entry cycle keeps the table in cache.
    let horizon = 2_000 * depth.max(1) as u64;
    let steps: Vec<Ps> = (0..4096)
        .map(|_| Ps::from_ps(1 + rng.below(horizon)))
        .collect();
    let mut q = EventQueue::new();
    for i in 0..depth.max(1) {
        q.push(Ps::from_ps(rng.below(horizon)), i as u64);
    }
    let mut b = Batches::start();
    for k in 0..events {
        let (at, payload) = q.pop().expect("the hold model never drains the queue");
        q.push(
            at + steps[k as usize % steps.len()],
            std::hint::black_box(payload),
        );
        b.done(1);
    }
    b.finish()
}

/// `PacketNet::send` on the DL-group chains of `cfg`, fed the workload's
/// remote accesses under the run's `placement`. A remote access goes from
/// the DIMM the thread runs on to the DIMM holding the address. Inside a group it crosses the chain: a load
/// sends a request and its 64-byte response, a store its line, an atomic
/// its operand. Across groups only the notification to the group's proxy
/// rides the chain (the host forwards the rest). Accesses are spaced at
/// the run's mean inter-request time over `elapsed`, so each link's
/// `Resource` holds as many reservations as in the run. At most
/// `max_accesses` accesses are replayed, in time order.
pub fn packetnet(
    wl: &Workload,
    cfg: &SystemConfig,
    placement: &[usize],
    elapsed: Ps,
    max_accesses: usize,
) -> (Replay, RemoteCount) {
    let idc = Interconnect::new(cfg);
    let proxies: Vec<usize> = idc
        .dimm_link()
        .map(|dl| dl.proxies().to_vec())
        .unwrap_or_default();
    let layout = wl.layout();
    let groups: Vec<Vec<usize>> = (0..cfg.groups).map(|g| cfg.group_members(g)).collect();
    let mut index_in_group = vec![0usize; cfg.dimms];
    for members in &groups {
        for (i, &d) in members.iter().enumerate() {
            index_in_group[d] = i;
        }
    }
    let mut nets: Vec<PacketNet> = groups
        .iter()
        .map(|m| PacketNet::new(&Topology::new(cfg.topology, m.len()), cfg.link))
        .collect();
    let remote = remote_accesses(wl, placement);
    let count = RemoteCount {
        accesses: remote.len() as u64,
        loads: remote
            .iter()
            .filter(|&&(_, thread, i)| {
                matches!(
                    wl.traces()[thread as usize].ops()[i as usize],
                    Op::Load { .. }
                )
            })
            .count() as u64,
    };
    let mut b = Batches::start();
    for (k, &(_, thread, i)) in remote.iter().take(max_accesses).enumerate() {
        let now = spaced(elapsed, k, remote.len());
        let op = wl.traces()[thread as usize].ops()[i as usize];
        let src = placement[thread as usize];
        let dst = layout.dimm_of(op.addr().expect("remote accesses are memory operations"));
        let (g, gd) = (cfg.group_of(src), cfg.group_of(dst));
        let (ls, ld) = (index_in_group[src], index_in_group[dst]);
        let net = &mut nets[g];
        let sends = if g == gd {
            match op {
                Op::Load { .. } => {
                    let there = net.send(now, ls, ld, wire_bytes(0));
                    std::hint::black_box(net.send(there, ld, ls, wire_bytes(64)));
                    2
                }
                Op::Store { .. } => {
                    std::hint::black_box(net.send(now, ls, ld, wire_bytes(64)));
                    1
                }
                _ => {
                    std::hint::black_box(net.send(now, ls, ld, wire_bytes(8)));
                    1
                }
            }
        } else if let Some(&proxy) = proxies.get(g).filter(|&&p| p != src) {
            std::hint::black_box(net.send(now, ls, index_in_group[proxy], NOTIFY_BYTES));
            1
        } else {
            0
        };
        b.done(sends);
    }
    (b.finish(), count)
}

/// Misses of the L1 replay, in the order the controllers receive them.
pub struct Misses {
    /// Per DIMM of the layout: `(kind, DIMM-local byte offset)` in time
    /// order.
    per_dimm: Vec<Vec<(AccessKind, u64)>>,
}

impl Misses {
    /// Total requests across all DIMMs.
    pub fn len(&self) -> usize {
        self.per_dimm.iter().map(Vec::len).sum()
    }

    /// Whether there are no requests.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// `Cache::access` with a private 32 KB L1 per thread, fed every Load and
/// Store of the workload. The caches are private, so each thread's stream
/// is replayed whole in turn. Returns the timing and the misses, plus dirty
/// write-backs, in time order for [`controller`].
pub fn cache(wl: &Workload) -> (Replay, Misses) {
    let layout = wl.layout();
    let mut timed: Vec<Vec<(u64, u32, AccessKind, u64)>> = vec![Vec::new(); layout.dimms()];
    let mut b = Batches::start();
    for (thread, trace) in wl.traces().iter().enumerate() {
        let mut l1 = Cache::new(CacheConfig::l1_32k());
        for (i, op) in trace.ops().iter().enumerate() {
            let (addr, kind) = match *op {
                Op::Load { addr, .. } => (addr, AccessKind::Read),
                Op::Store { addr, .. } => (addr, AccessKind::Write),
                _ => continue,
            };
            let outcome = l1.access(addr, kind == AccessKind::Write);
            if let CacheOutcome::Miss { writeback } = outcome {
                let at = progress(i, trace.len());
                let mut to_dram = |addr: u64, kind| {
                    timed[layout.dimm_of(addr)].push((
                        at,
                        thread as u32,
                        kind,
                        layout.offset_of(addr),
                    ));
                };
                to_dram(addr, kind);
                if let Some(victim) = writeback {
                    to_dram(victim, AccessKind::Write);
                }
            }
            b.done(1);
        }
    }
    let replay = b.finish();
    let per_dimm = timed
        .into_iter()
        .map(|mut reqs| {
            // Stable: a miss and its write-back keep their order.
            reqs.sort_by_key(|&(at, thread, _, _)| (at, thread));
            reqs.into_iter()
                .map(|(_, _, kind, off)| (kind, off))
                .collect()
        })
        .collect();
    (replay, Misses { per_dimm })
}

/// One `MemController` per DIMM, fed that DIMM's L1 misses decoded through
/// `DimmAddressMap`, spaced evenly over `elapsed`. Each request is one
/// `enqueue` plus the `service` calls up to its arrival; the last batch
/// includes draining the queue.
pub fn controller(misses: &Misses, cfg: &SystemConfig, elapsed: Ps) -> Replay {
    let map = DimmAddressMap::new(&cfg.dram);
    let mut b = Batches::start();
    for (d, reqs) in misses.per_dimm.iter().enumerate() {
        let mut mc = MemController::new(format!("dimm{d}"), &cfg.dram);
        let n = reqs.len();
        for (k, &(kind, offset)) in reqs.iter().enumerate() {
            let now = spaced(elapsed, k, n);
            while let Some(w) = mc.next_wake().filter(|&w| w < now) {
                std::hint::black_box(mc.service(w));
            }
            mc.enqueue(now, MemRequest::new(k as u64, kind, map.decode(offset)));
            std::hint::black_box(mc.service(now));
            b.done(1);
        }
        while let Some(w) = mc.next_wake() {
            std::hint::black_box(mc.service(w));
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_workloads::{WorkloadKind, WorkloadParams};

    fn small() -> Workload {
        WorkloadKind::Pagerank.build(&WorkloadParams {
            scale: 8,
            ..WorkloadParams::small(16)
        })
    }

    #[test]
    fn remote_accesses_are_remote_and_in_time_order() {
        let wl = small();
        let natural = wl.home_dimm().to_vec();
        let remote = remote_accesses(&wl, &natural);
        assert!(!remote.is_empty());
        assert!(remote.windows(2).all(|w| w[0] <= w[1]));
        for &(_, thread, i) in &remote {
            let addr = wl.traces()[thread as usize].ops()[i as usize].addr();
            let dimm = wl.layout().dimm_of(addr.expect("memory operation"));
            assert_ne!(dimm, natural[thread as usize]);
        }
        // Another placement gives another set of remote accesses.
        let shifted: Vec<usize> = natural.iter().map(|&d| (d + 1) % 16).collect();
        assert_ne!(remote_accesses(&wl, &shifted), remote);
        assert_eq!(progress(0, 10), 0);
        assert!(progress(5, 10) < progress(6, 10));
    }

    #[test]
    fn spacing_spreads_requests_over_the_run() {
        let e = Ps::from_ns(1000);
        assert_eq!(spaced(e, 0, 4), Ps::ZERO);
        assert_eq!(spaced(e, 2, 4), Ps::from_ns(500));
        assert_eq!(spaced(e, 0, 0), Ps::ZERO);
    }

    #[test]
    fn replays_do_the_work_they_count() {
        let wl = small();
        let cfg = SystemConfig::nmp(16, 8);
        let elapsed = Ps::from_us(100);
        let q = event_queue(10_000, 4, 1);
        assert_eq!(q.ops, 10_000);
        assert_eq!(q.batch_ns.len(), 2);
        assert!(q.ns_per_op() > 0.0);

        let natural = wl.home_dimm().to_vec();
        let (net, count) = packetnet(&wl, &cfg, &natural, elapsed, usize::MAX);
        assert!(net.ops > 0 && net.ns_per_op() > 0.0);
        assert!(count.loads > 0 && count.loads <= count.accesses);
        assert_eq!(count.accesses, remote_accesses(&wl, &natural).len() as u64);
        let (capped, capped_count) = packetnet(&wl, &cfg, &natural, elapsed, 10);
        assert!(capped.ops <= 20);
        assert_eq!(capped_count, count);

        let (c, misses) = cache(&wl);
        assert!(c.ops > 0 && !misses.is_empty());
        assert!((misses.len() as u64) <= 2 * c.ops);
        let mc = controller(&misses, &cfg, elapsed);
        assert_eq!(mc.ops, misses.len() as u64);
        assert!(mc.ns_per_op() > 0.0);
    }
}
