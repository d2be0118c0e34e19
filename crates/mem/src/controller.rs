//! Per-DIMM memory controller: FR-FCFS scheduling over DDR4 bank/rank state.
//!
//! The controller is event-driven. Callers [`enqueue`](MemController::enqueue)
//! requests, then repeatedly call [`service`](MemController::service) with the
//! current time; `service` issues every command sequence that is legal at that
//! time, returns the requests whose data bursts have finished, and caches the
//! next time the controller needs attention ([`next_wake`](MemController::next_wake)).
//!
//! Modelled constraints: open-page row-buffer policy with row hit / empty /
//! conflict timing (tRCD/tRP/tRAS/tCL/tCWL/tCCD/tRTP/tWR), activation
//! throttling (tRRD, tFAW), write-to-read turnaround (tWTR), per-rank data-bus
//! serialization of bursts, and periodic refresh (tREFI/tRFC). FR-FCFS
//! prefers row hits over older requests, with a configurable hit-streak cap
//! to avoid starving row-conflict requests.
//!
//! Waiting requests sit in one FIFO per bank, in arrival order, and carry a
//! global arrival number. Each bank with waiting requests offers one
//! candidate (its oldest row hit while the hit streak is below the cap,
//! otherwise its oldest request); among the candidates legal at `now`, the
//! smallest arrival number issues. One `service` call therefore costs, per
//! issued request, one pass over the banks with waiting requests plus a
//! scan of each open bank's FIFO for its oldest hit, and one final pass
//! that evaluates at most three command plans per waiting bank (row-hit
//! read, row-hit write, anything else) to find the next wake time.

use crate::address::DimmAddr;
use crate::timing::{DramConfig, RowPolicy};
use dl_engine::stats::{Histogram, StatSet};
use dl_engine::{Ps, Resource};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read access; completes when the data burst has returned.
    Read,
    /// A write access; completes when the data burst has been consumed.
    Write,
}

/// One line-sized DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller-chosen identifier returned in the [`Completion`].
    pub id: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Decoded DRAM coordinates.
    pub addr: DimmAddr,
}

impl MemRequest {
    /// Convenience constructor.
    pub fn new(id: u64, kind: AccessKind, addr: DimmAddr) -> Self {
        MemRequest { id, kind, addr }
    }
}

/// A finished request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The identifier given at enqueue time.
    pub id: u64,
    /// Time the data burst finished.
    pub at: Ps,
    /// Whether the access hit an open row.
    pub row_hit: bool,
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u32>,
    /// Earliest time a CAS may issue to the open row.
    cas_ready: Ps,
    /// Earliest time a PRE may issue.
    pre_ready: Ps,
    /// Consecutive row hits served (FR-FCFS starvation cap).
    hit_streak: u32,
}

impl Bank {
    fn closed() -> Self {
        Bank {
            open_row: None,
            cas_ready: Ps::ZERO,
            pre_ready: Ps::ZERO,
            hit_streak: 0,
        }
    }
}

#[derive(Debug)]
struct Rank {
    /// Issue times of the most recent activations (tFAW window).
    act_window: VecDeque<Ps>,
    /// Earliest time a READ CAS may issue after a write burst (tWTR).
    wtr_ready: Ps,
    /// Data path for bursts.
    bus: Resource,
    /// Start of the next refresh window.
    next_refresh: Ps,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    req: MemRequest,
    arrival: Ps,
    /// Enqueue order over the whole controller: the FR-FCFS age.
    seq: u64,
}

#[derive(Debug, Clone, Copy)]
struct Plan {
    first_cmd_at: Ps,
    hit: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Finish {
    at: Ps,
    id: u64,
    row_hit: bool,
}

impl PartialOrd for Finish {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Finish {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.id.cmp(&other.id))
    }
}

/// FR-FCFS memory controller for one DIMM.
///
/// Requests wait in per-bank FIFOs; the bank is decoded once, at
/// [`enqueue`](MemController::enqueue). Ties between banks go to the
/// request that arrived first. See the [module documentation](self) for
/// the driving protocol and the cost of a [`service`](MemController::service)
/// call.
#[derive(Debug)]
pub struct MemController {
    name: String,
    cfg: DramConfig,
    banks: Vec<Bank>,
    ranks: Vec<Rank>,
    /// Waiting requests of each flat bank, oldest first.
    queues: Vec<VecDeque<Pending>>,
    /// Flat banks whose FIFO is non-empty, in no particular order.
    waiting: Vec<usize>,
    /// Arrival number of the next enqueued request.
    next_seq: u64,
    finishes: BinaryHeap<Reverse<Finish>>,
    next_wake: Option<Ps>,
    // statistics
    reads: u64,
    writes: u64,
    activates: u64,
    row_hits: u64,
    row_misses: u64,
    refreshes: u64,
    queue_latency: Histogram,
}

impl MemController {
    /// Creates a controller with all banks closed.
    ///
    /// # Panics
    /// Panics if `cfg` is invalid (see [`DramConfig::validate`]).
    pub fn new(name: impl Into<String>, cfg: &DramConfig) -> Self {
        cfg.validate().expect("invalid DRAM configuration");
        let name = name.into();
        let ranks = (0..cfg.ranks)
            .map(|r| Rank {
                act_window: VecDeque::with_capacity(4),
                wtr_ready: Ps::ZERO,
                bus: Resource::new(format!("{name}.rank{r}.bus")),
                next_refresh: cfg.timing.t(cfg.timing.refi),
            })
            .collect();
        let total_banks = cfg.total_banks() as usize;
        MemController {
            cfg: *cfg,
            banks: vec![Bank::closed(); total_banks],
            ranks,
            queues: vec![VecDeque::new(); total_banks],
            waiting: Vec::with_capacity(total_banks),
            next_seq: 0,
            finishes: BinaryHeap::new(),
            next_wake: None,
            reads: 0,
            writes: 0,
            activates: 0,
            row_hits: 0,
            row_misses: 0,
            refreshes: 0,
            queue_latency: Histogram::new(),
            name,
        }
    }

    /// Queues a request. Call [`service`](MemController::service) afterwards
    /// (with the same `now`) to let it issue.
    pub fn enqueue(&mut self, now: Ps, req: MemRequest) {
        let flat = req.addr.flat_bank(&self.cfg);
        if self.queues[flat].is_empty() {
            self.waiting.push(flat);
        }
        self.queues[flat].push_back(Pending {
            req,
            arrival: now,
            seq: self.next_seq,
        });
        self.next_seq += 1;
        // Force a re-evaluation no later than now.
        self.next_wake = Some(self.next_wake.map_or(now, |w| w.min(now)));
    }

    /// Number of requests waiting or in flight.
    pub fn inflight(&self) -> usize {
        let queued: usize = self.waiting.iter().map(|&b| self.queues[b].len()).sum();
        queued + self.finishes.len()
    }

    /// Issues every command sequence legal at `now` and returns requests
    /// whose data bursts completed at or before `now`.
    pub fn service(&mut self, now: Ps) -> Vec<Completion> {
        self.apply_refreshes(now);

        // Issue as long as something can start now.
        while let Some((flat, pos, plan)) = self.pick(now) {
            let pending = self.queues[flat]
                .remove(pos)
                .expect("picked index in range");
            if self.queues[flat].is_empty() {
                let w = self.waiting.iter().position(|&b| b == flat);
                self.waiting
                    .swap_remove(w.expect("a waiting bank is listed"));
            }
            self.issue(flat, pending, plan);
        }

        let done = self.pop_completions(now);

        // Cache the next interesting time. Times at or before `now` are
        // ignored (they belong to requests that are blocked behind their
        // bank's chosen candidate; the candidate's own future time, or a
        // pending completion, covers the bank's progress). Every request of
        // a bank shares one of at most three plans: a row-hit read, a
        // row-hit write, or anything else (a closed bank has only the
        // last), so the first request of each kind stands for the rest.
        let mut wake = self.finish_or_refresh_wake(now, !self.waiting.is_empty());
        for &flat in &self.waiting {
            let open_row = self.banks[flat].open_row;
            let mut reps: [Option<&MemRequest>; 3] = [None; 3];
            for p in &self.queues[flat] {
                let class = match p.req.kind {
                    _ if open_row != Some(p.req.addr.row) => 2,
                    AccessKind::Read => 0,
                    AccessKind::Write => 1,
                };
                reps[class].get_or_insert(&p.req);
                if open_row.is_none() || reps.iter().all(Option::is_some) {
                    break;
                }
            }
            for req in reps.into_iter().flatten() {
                consider_wake(&mut wake, now, self.plan_for(flat, req, now).first_cmd_at);
            }
        }
        self.next_wake = wake;
        done
    }

    /// Pops the completions due at or before `now`, in finish order.
    fn pop_completions(&mut self, now: Ps) -> Vec<Completion> {
        let mut done = Vec::new();
        while let Some(&Reverse(f)) = self.finishes.peek() {
            if f.at > now {
                break;
            }
            self.finishes.pop();
            done.push(Completion {
                id: f.id,
                at: f.at,
                row_hit: f.row_hit,
            });
        }
        done
    }

    /// The earliest pending completion or, while any request is waiting
    /// (`queued`) or in flight, refresh after `now`: the part of the next
    /// wake time that does not depend on the waiting requests' plans.
    fn finish_or_refresh_wake(&self, now: Ps, queued: bool) -> Option<Ps> {
        let mut wake = None;
        if let Some(Reverse(f)) = self.finishes.peek() {
            consider_wake(&mut wake, now, f.at);
        }
        if queued || !self.finishes.is_empty() {
            // Refresh only matters while work is pending.
            if let Some(refr) = self.ranks.iter().map(|r| r.next_refresh).min() {
                consider_wake(&mut wake, now, refr);
            }
        }
        wake
    }

    /// The next time `service` would make progress, cached by the last
    /// `service` call (or forced by `enqueue`).
    pub fn next_wake(&self) -> Option<Ps> {
        self.next_wake
    }

    fn apply_refreshes(&mut self, now: Ps) {
        let t = self.cfg.timing;
        let banks_per_rank = self.cfg.banks_per_rank() as usize;
        for (r, rank) in self.ranks.iter_mut().enumerate() {
            while rank.next_refresh <= now {
                let start = rank.next_refresh;
                let end = start + t.t(t.rfc);
                for b in 0..banks_per_rank {
                    let bank = &mut self.banks[r * banks_per_rank + b];
                    bank.open_row = None;
                    bank.hit_streak = 0;
                    bank.cas_ready = bank.cas_ready.max(end);
                    bank.pre_ready = bank.pre_ready.max(end);
                }
                rank.next_refresh = start + t.t(t.refi);
                self.refreshes += 1;
            }
        }
    }

    /// Earliest time an ACT may issue on `rank`, requested at `at`.
    fn act_ok(&self, rank: usize, at: Ps) -> Ps {
        let t = self.cfg.timing;
        let w = &self.ranks[rank].act_window;
        let mut earliest = at;
        if let Some(&last) = w.back() {
            earliest = earliest.max(last + t.t(t.rrd));
        }
        if w.len() >= 4 {
            earliest = earliest.max(w[w.len() - 4] + t.t(t.faw));
        }
        earliest
    }

    /// The first command a request to flat bank `flat` needs, and when it
    /// may issue at the earliest.
    fn plan_for(&self, flat: usize, req: &MemRequest, now: Ps) -> Plan {
        let bank = &self.banks[flat];
        let rank = req.addr.rank as usize;
        match bank.open_row {
            Some(row) if row == req.addr.row => Plan {
                first_cmd_at: now.max(bank.cas_ready).max(self.read_wtr(req, rank)),
                hit: true,
            },
            Some(_) => {
                let pre_at = now.max(bank.pre_ready);
                Plan {
                    first_cmd_at: pre_at,
                    hit: false,
                }
            }
            None => {
                let act_at = self.act_ok(rank, now.max(bank.pre_ready));
                Plan {
                    first_cmd_at: act_at,
                    hit: false,
                }
            }
        }
    }

    fn read_wtr(&self, req: &MemRequest, rank: usize) -> Ps {
        match req.kind {
            AccessKind::Read => self.ranks[rank].wtr_ready,
            AccessKind::Write => Ps::ZERO,
        }
    }

    /// FR-FCFS pick with per-bank fairness: returns the flat bank, the
    /// position in its FIFO and the plan of the request to issue.
    ///
    /// Each bank independently selects its next request: the oldest row hit
    /// while the bank's hit streak is below the cap, otherwise the oldest
    /// request for that bank (so capped banks drain conflicts instead of
    /// starving them behind an endless stream of ready hits). Among the
    /// per-bank candidates legal at `now`, the one that arrived first is
    /// issued.
    fn pick(&self, now: Ps) -> Option<(usize, usize, Plan)> {
        let mut best: Option<(u64, usize, usize, Plan)> = None;
        for &flat in &self.waiting {
            let queue = &self.queues[flat];
            let bank = &self.banks[flat];
            let is_hit = |p: &Pending| bank.open_row == Some(p.req.addr.row);
            let mut pos = 0;
            if bank.open_row.is_some()
                && bank.hit_streak < self.cfg.hit_streak_cap
                && !is_hit(&queue[0])
            {
                pos = queue.iter().position(is_hit).unwrap_or(0);
            }
            let cand = &queue[pos];
            if best.is_some_and(|(seq, ..)| seq < cand.seq) {
                continue;
            }
            let plan = self.plan_for(flat, &cand.req, now);
            if plan.first_cmd_at <= now {
                best = Some((cand.seq, flat, pos, plan));
            }
        }
        best.map(|(_, flat, pos, plan)| (flat, pos, plan))
    }

    /// Issues `pending`, waiting at flat bank `flat`, along `plan`.
    fn issue(&mut self, flat: usize, pending: Pending, plan: Plan) {
        let t = self.cfg.timing;
        let req = pending.req;
        let rank_idx = req.addr.rank as usize;

        // Command schedule.
        let cas_at = if plan.hit {
            plan.first_cmd_at
        } else {
            let (pre_extra, base) = match self.banks[flat].open_row {
                Some(_) => (t.t(t.rp), plan.first_cmd_at), // PRE then ACT
                None => (Ps::ZERO, plan.first_cmd_at),
            };
            let act_at = self.act_ok(rank_idx, base + pre_extra);
            let rank = &mut self.ranks[rank_idx];
            rank.act_window.push_back(act_at);
            while rank.act_window.len() > 4 {
                rank.act_window.pop_front();
            }
            self.activates += 1;
            let bank = &mut self.banks[flat];
            bank.open_row = Some(req.addr.row);
            // tRAS lower-bounds the next precharge.
            bank.pre_ready = act_at + t.t(t.ras);
            let mut cas = act_at + t.t(t.rcd);
            if matches!(req.kind, AccessKind::Read) {
                cas = cas.max(self.ranks[rank_idx].wtr_ready);
            }
            cas
        };

        // Data burst on the rank data path.
        let data_start = match req.kind {
            AccessKind::Read => cas_at + t.t(t.cl),
            AccessKind::Write => cas_at + t.t(t.cwl),
        };
        // With `bus_per_rank` (DIMM-NMP: each rank has an independent data
        // path) bursts of different ranks overlap; otherwise all ranks share
        // one data bus (a conventional DIMM/channel).
        let bus_rank = if self.cfg.bus_per_rank { rank_idx } else { 0 };
        let burst_end = self.ranks[bus_rank].bus.reserve(data_start, t.t(t.bl));

        // Bank bookkeeping.
        let bank = &mut self.banks[flat];
        bank.cas_ready = cas_at + t.t(t.ccd);
        match req.kind {
            AccessKind::Read => {
                bank.pre_ready = bank.pre_ready.max(cas_at + t.t(t.rtp));
                self.reads += 1;
            }
            AccessKind::Write => {
                bank.pre_ready = bank.pre_ready.max(burst_end + t.t(t.wr));
                self.ranks[rank_idx].wtr_ready = burst_end + t.t(t.wtr);
                self.writes += 1;
            }
        }
        let bank = &mut self.banks[flat];
        if plan.hit {
            bank.hit_streak += 1;
            self.row_hits += 1;
        } else {
            bank.hit_streak = 1;
            self.row_misses += 1;
        }
        if matches!(self.cfg.row_policy, RowPolicy::Closed) {
            // Auto-precharge: the row closes immediately after the access;
            // the next activation waits for the implicit precharge to
            // finish (the accumulated pre_ready constraints plus tRP).
            bank.open_row = None;
            bank.hit_streak = 0;
            bank.pre_ready += t.t(t.rp);
        }

        self.queue_latency
            .record((burst_end.saturating_sub(pending.arrival)).as_ps());
        self.finishes.push(Reverse(Finish {
            at: burst_end,
            id: req.id,
            row_hit: plan.hit,
        }));
    }

    /// Total bytes moved (reads + writes, one line each).
    pub fn bytes_moved(&self) -> u64 {
        (self.reads + self.writes) * self.cfg.line_bytes as u64
    }

    /// Number of row activations issued.
    pub fn activates(&self) -> u64 {
        self.activates
    }

    /// Reads serviced.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Writes serviced.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Row-buffer hit-rate over all serviced requests (0 when idle).
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Request latency distribution (enqueue to burst completion, in ps).
    pub fn latency_histogram(&self) -> &Histogram {
        &self.queue_latency
    }

    /// Exports counters as named statistics.
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.set("reads", self.reads as f64);
        s.set("writes", self.writes as f64);
        s.set("activates", self.activates as f64);
        s.set("row_hits", self.row_hits as f64);
        s.set("row_misses", self.row_misses as f64);
        s.set("refreshes", self.refreshes as f64);
        s.set("bytes_moved", self.bytes_moved() as f64);
        s.set("row_hit_rate", self.row_hit_rate());
        s.set("avg_latency_ps", self.queue_latency.mean());
        s
    }
}

/// Lowers `wake` to `t` if `t` lies after `now`.
fn consider_wake(wake: &mut Option<Ps>, now: Ps, t: Ps) {
    if t > now {
        *wake = Some(wake.map_or(t, |w| w.min(t)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::DimmAddressMap;

    fn setup() -> (DramConfig, DimmAddressMap, MemController) {
        let cfg = DramConfig::ddr4_2400_lrdimm();
        let map = DimmAddressMap::new(&cfg);
        let mc = MemController::new("t", &cfg);
        (cfg, map, mc)
    }

    /// Drives the controller until all `n` requests complete; returns
    /// completions in finish order.
    fn drain(mc: &mut MemController, n: usize) -> Vec<Completion> {
        let mut done = Vec::new();
        let mut now = Ps::ZERO;
        let mut guard = 0;
        while done.len() < n {
            done.extend(mc.service(now));
            if done.len() >= n {
                break;
            }
            now = mc
                .next_wake()
                .expect("controller stalled with work pending");
            guard += 1;
            assert!(guard < 1_000_000, "runaway drain loop");
        }
        done
    }

    #[test]
    fn single_read_latency_is_rcd_cl_bl() {
        let (cfg, map, mut mc) = setup();
        let t = cfg.timing;
        mc.enqueue(
            Ps::ZERO,
            MemRequest::new(1, AccessKind::Read, map.decode(0)),
        );
        let done = drain(&mut mc, 1);
        let expected = t.t(t.rcd + t.cl + t.bl);
        assert_eq!(done[0].at, expected);
        assert!(!done[0].row_hit);
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        let (cfg, map, mut mc) = setup();
        // Two accesses to the same row: second is a hit.
        mc.enqueue(
            Ps::ZERO,
            MemRequest::new(1, AccessKind::Read, map.decode(0)),
        );
        mc.enqueue(
            Ps::ZERO,
            MemRequest::new(2, AccessKind::Read, map.decode(64)),
        );
        let done = drain(&mut mc, 2);
        assert!(done[1].row_hit);
        let hit_gap = done[1].at - done[0].at;

        // Conflict: same bank, different row.
        let mut mc2 = MemController::new("t2", &cfg);
        let row_stride = cfg.total_banks() as u64 * cfg.row_bytes as u64;
        mc2.enqueue(
            Ps::ZERO,
            MemRequest::new(1, AccessKind::Read, map.decode(0)),
        );
        mc2.enqueue(
            Ps::ZERO,
            MemRequest::new(2, AccessKind::Read, map.decode(row_stride)),
        );
        let done2 = drain(&mut mc2, 2);
        assert!(!done2[1].row_hit);
        let miss_gap = done2[1].at - done2[0].at;
        assert!(
            miss_gap > hit_gap * 3,
            "conflict gap {miss_gap} should dwarf hit gap {hit_gap}"
        );
    }

    #[test]
    fn streaming_reads_reach_near_peak_bandwidth() {
        let (cfg, map, mut mc) = setup();
        // 512 sequential lines in one rank: row hits dominate.
        let n = 512u64;
        for i in 0..n {
            mc.enqueue(
                Ps::ZERO,
                MemRequest::new(i, AccessKind::Read, map.decode(i * 64)),
            );
        }
        let done = drain(&mut mc, n as usize);
        let end = done.iter().map(|c| c.at).max().unwrap();
        let bytes = n * 64;
        let achieved = bytes as f64 / end.as_secs_f64();
        let peak = cfg.timing.peak_bandwidth(64) as f64;
        assert!(
            achieved > 0.8 * peak,
            "streaming bandwidth {:.2} GB/s vs peak {:.2} GB/s",
            achieved / 1e9,
            peak / 1e9
        );
        assert!(mc.row_hit_rate() > 0.9);
    }

    #[test]
    fn bank_parallelism_beats_single_bank() {
        let (cfg, map, mut mc) = setup();
        let row_stride = cfg.total_banks() as u64 * cfg.row_bytes as u64;
        // 16 conflicting accesses to one bank.
        for i in 0..16u64 {
            mc.enqueue(
                Ps::ZERO,
                MemRequest::new(i, AccessKind::Read, map.decode(i * row_stride)),
            );
        }
        let serial_end = drain(&mut mc, 16).iter().map(|c| c.at).max().unwrap();

        // 16 accesses spread over 16 banks (row-conflict-free).
        let mut mc2 = MemController::new("t2", &cfg);
        for i in 0..16u64 {
            mc2.enqueue(
                Ps::ZERO,
                MemRequest::new(i, AccessKind::Read, map.decode(i * cfg.row_bytes as u64)),
            );
        }
        let parallel_end = drain(&mut mc2, 16).iter().map(|c| c.at).max().unwrap();
        assert!(
            serial_end.as_ps() > 3 * parallel_end.as_ps(),
            "serial {serial_end} vs parallel {parallel_end}"
        );
    }

    #[test]
    fn tfaw_limits_activation_rate() {
        let (cfg, map, mut mc) = setup();
        let t = cfg.timing;
        // 8 activations to 8 different banks in the same rank: the 5th..8th
        // must respect tFAW. Banks within one rank are row_bytes apart,
        // every other bank lands in rank 1, so use stride of two banks.
        let mut acts = Vec::new();
        for i in 0..8u64 {
            let addr = map.decode(i * cfg.row_bytes as u64 * 2);
            assert_eq!(addr.rank, 0);
            acts.push(addr);
        }
        for (i, a) in acts.iter().enumerate() {
            mc.enqueue(Ps::ZERO, MemRequest::new(i as u64, AccessKind::Read, *a));
        }
        let done = drain(&mut mc, 8);
        let last = done.iter().map(|c| c.at).max().unwrap();
        // Without tFAW, 8 ACTs at tRRD spacing finish around
        // 7*tRRD + tRCD + tCL + tBL. With tFAW, the 8th ACT cannot issue
        // before tFAW + ... (two full FAW windows for 8 ACTs).
        let lower_bound = t.t(t.faw) + t.t(t.rcd + t.cl + t.bl);
        assert!(
            last >= lower_bound,
            "last completion {last} should be >= tFAW-bound {lower_bound}"
        );
    }

    #[test]
    fn writes_then_read_respects_turnaround() {
        let (cfg, map, mut mc) = setup();
        let t = cfg.timing;
        mc.enqueue(
            Ps::ZERO,
            MemRequest::new(1, AccessKind::Write, map.decode(0)),
        );
        mc.enqueue(
            Ps::ZERO,
            MemRequest::new(2, AccessKind::Read, map.decode(64)),
        );
        let done = drain(&mut mc, 2);
        let write_end = done[0].at;
        let read_end = done[1].at;
        // Read CAS must wait for tWTR after write data.
        assert!(read_end >= write_end + t.t(t.wtr) + t.t(t.cl));
    }

    #[test]
    fn refresh_happens_and_closes_rows() {
        let (cfg, map, mut mc) = setup();
        let t = cfg.timing;
        mc.enqueue(
            Ps::ZERO,
            MemRequest::new(1, AccessKind::Read, map.decode(0)),
        );
        drain(&mut mc, 1);
        // Advance beyond several refresh intervals with a new request.
        let late = t.t(t.refi) * 3 + Ps::from_ns(10);
        mc.enqueue(late, MemRequest::new(2, AccessKind::Read, map.decode(0)));
        let done: Vec<_> = {
            let mut out = mc.service(late);
            while out.is_empty() {
                let now = mc.next_wake().unwrap();
                out = mc.service(now);
            }
            out
        };
        // The row was closed by refresh, so this is a miss again.
        assert!(!done[0].row_hit);
        let s = mc.stats();
        assert!(s.get("refreshes").unwrap() >= 3.0);
    }

    #[test]
    fn fr_fcfs_prefers_row_hits_but_caps_streak() {
        let (cfg, map, mut mc) = setup();
        let row_stride = cfg.total_banks() as u64 * cfg.row_bytes as u64;
        // One conflicting request enqueued first, then many hits to row 0.
        mc.enqueue(
            Ps::ZERO,
            MemRequest::new(0, AccessKind::Read, map.decode(0)),
        );
        // Prime: open row 0 first.
        let _ = drain(&mut mc, 1);
        let t0 = Ps::from_us(1);
        mc.enqueue(
            t0,
            MemRequest::new(100, AccessKind::Read, map.decode(row_stride)),
        );
        for i in 0..16u64 {
            mc.enqueue(
                t0,
                MemRequest::new(i + 1, AccessKind::Read, map.decode(64 * (i + 1))),
            );
        }
        let done = drain(&mut mc, 17);
        let conflict_pos = done.iter().position(|c| c.id == 100).unwrap();
        // The conflict is served after at most hit_streak_cap hits, not last.
        assert!(
            conflict_pos <= cfg.hit_streak_cap as usize,
            "conflict served at position {conflict_pos}"
        );
    }

    #[test]
    fn stats_are_consistent() {
        let (_, map, mut mc) = setup();
        for i in 0..10u64 {
            let kind = if i % 2 == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            mc.enqueue(Ps::ZERO, MemRequest::new(i, kind, map.decode(i * 64)));
        }
        drain(&mut mc, 10);
        assert_eq!(mc.reads(), 5);
        assert_eq!(mc.writes(), 5);
        assert_eq!(mc.bytes_moved(), 640);
        assert_eq!(mc.inflight(), 0);
        let s = mc.stats();
        assert_eq!(
            s.get("row_hits").unwrap() + s.get("row_misses").unwrap(),
            10.0
        );
        assert!(mc.latency_histogram().count() == 10);
    }

    #[test]
    fn next_wake_none_when_idle() {
        let (_, map, mut mc) = setup();
        assert!(mc.next_wake().is_none());
        mc.enqueue(
            Ps::ZERO,
            MemRequest::new(1, AccessKind::Read, map.decode(0)),
        );
        assert!(mc.next_wake().is_some());
        drain(&mut mc, 1);
        // After completion pops and queue empties, wake should clear.
        let _ = mc.service(Ps::from_ms(1));
        assert!(mc.next_wake().is_none());
    }
}

/// The whole-queue FR-FCFS scheduler the per-bank FIFOs replaced, as the
/// reference the differential test holds [`MemController`] to.
#[cfg(test)]
mod whole_queue_tests {
    use super::*;
    use crate::address::DimmAddressMap;
    use crate::timing::MappingScheme;
    use proptest::prelude::*;

    /// One arrival-ordered queue, rescanned by every pick and by the wake
    /// pass. It drives the bank, rank and timing state of an inner
    /// controller (whose own FIFOs stay empty) through the same `issue`,
    /// so it differs from [`MemController`] only in how it schedules.
    struct WholeQueue {
        mc: MemController,
        queue: VecDeque<Pending>,
    }

    impl WholeQueue {
        fn new(cfg: &DramConfig) -> Self {
            WholeQueue {
                mc: MemController::new("reference", cfg),
                queue: VecDeque::new(),
            }
        }

        fn enqueue(&mut self, now: Ps, req: MemRequest) {
            self.queue.push_back(Pending {
                req,
                arrival: now,
                seq: 0,
            });
            self.mc.next_wake = Some(self.mc.next_wake.map_or(now, |w| w.min(now)));
        }

        fn inflight(&self) -> usize {
            self.queue.len() + self.mc.finishes.len()
        }

        fn service(&mut self, now: Ps) -> Vec<Completion> {
            self.mc.apply_refreshes(now);
            while let Some((idx, plan)) = self.pick(now) {
                let pending = self.queue.remove(idx).expect("picked index in range");
                let flat = pending.req.addr.flat_bank(&self.mc.cfg);
                self.mc.issue(flat, pending, plan);
            }
            let done = self.mc.pop_completions(now);
            let mut wake = self.mc.finish_or_refresh_wake(now, !self.queue.is_empty());
            for p in &self.queue {
                let flat = p.req.addr.flat_bank(&self.mc.cfg);
                let plan = self.mc.plan_for(flat, &p.req, now);
                consider_wake(&mut wake, now, plan.first_cmd_at);
            }
            self.mc.next_wake = wake;
            done
        }

        fn pick(&self, now: Ps) -> Option<(usize, Plan)> {
            let mc = &self.mc;
            // flat_bank -> chosen queue index (oldest or oldest-hit).
            let mut candidate: Vec<Option<usize>> = vec![None; mc.banks.len()];
            for (i, p) in self.queue.iter().enumerate() {
                let flat = p.req.addr.flat_bank(&mc.cfg);
                let bank = &mc.banks[flat];
                let is_hit = bank.open_row == Some(p.req.addr.row);
                let hits_allowed = bank.hit_streak < mc.cfg.hit_streak_cap;
                match candidate[flat] {
                    None => candidate[flat] = Some(i),
                    Some(cur) => {
                        let cur_hit = bank.open_row == Some(self.queue[cur].req.addr.row);
                        if hits_allowed && is_hit && !cur_hit {
                            candidate[flat] = Some(i);
                        }
                    }
                }
            }
            let mut best: Option<(usize, Plan)> = None;
            for i in candidate.into_iter().flatten() {
                let req = &self.queue[i].req;
                let plan = mc.plan_for(req.addr.flat_bank(&mc.cfg), req, now);
                if plan.first_cmd_at > now {
                    continue;
                }
                if best.is_none_or(|(b, _)| i < b) {
                    best = Some((i, plan));
                }
            }
            best
        }
    }

    /// The configurations the schedulers are compared under.
    fn configs() -> Vec<DramConfig> {
        let base = DramConfig::ddr4_2400_lrdimm();
        let mut closed = base;
        closed.row_policy = RowPolicy::Closed;
        let mut xor = base;
        xor.mapping = MappingScheme::BankXor;
        let mut shared_bus = base;
        shared_bus.bus_per_rank = false;
        let mut cap1 = base;
        cap1.hit_streak_cap = 1;
        let mut cap16 = base;
        cap16.hit_streak_cap = 16;
        vec![base, closed, xor, shared_bus, cap1, cap16]
    }

    /// One step of a request stream, drawn as `(selector, bits, burst)`:
    /// a burst of requests at the current time (selector 0..3), or a
    /// `service` call at the next wake time (3..9), up to 60 ns later
    /// (9..11) or one to three refresh intervals ahead (11).
    type Step = (u8, u64, Vec<Request>);

    /// `(write, hot, bits)`: three of every four requests go to one of
    /// three hot rows in one of three hot banks, so the stream mixes row
    /// hits with conflicts in one bank; the rest spread over every bank
    /// and a thousand rows.
    type Request = (bool, u8, u64);

    fn step() -> impl Strategy<Value = Step> {
        (
            0u8..12,
            any::<u64>(),
            prop::collection::vec((any::<bool>(), 0u8..4, any::<u64>()), 1..12),
        )
    }

    fn check_stream(cfg: &DramConfig, steps: &[Step]) -> Result<(), TestCaseError> {
        let map = DimmAddressMap::new(cfg);
        let row_stride = cfg.total_banks() as u64 * cfg.row_bytes as u64;
        let refi = cfg.timing.t(cfg.timing.refi);
        let mut mc = MemController::new("under-test", cfg);
        let mut reference = WholeQueue::new(cfg);
        let mut now = Ps::ZERO;
        let mut next_id = 0;
        let mut calls = 0;
        let mut service = |now: Ps, mc: &mut MemController, r: &mut WholeQueue| {
            calls += 1;
            let (got, want) = (mc.service(now), r.service(now));
            let call = format!("{cfg:?}: service #{calls} at {now}");
            prop_assert_eq!(got, want, "{}", call);
            prop_assert_eq!(mc.next_wake(), r.mc.next_wake(), "{}", call);
            prop_assert_eq!(mc.inflight(), r.inflight(), "{}", call);
            Ok(())
        };
        for (selector, bits, burst) in steps {
            match selector {
                0..3 => {
                    for &(write, hot, bits) in burst {
                        let (banks, rows) = if hot < 3 { (3, 3) } else { (32, 1_000) };
                        let bank = bits % banks;
                        let row = (bits >> 8) % rows;
                        let col = (bits >> 20) % 128;
                        let kind = if write {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        };
                        let off = row * row_stride + bank * cfg.row_bytes as u64 + col * 64;
                        let req = MemRequest::new(next_id, kind, map.decode(off));
                        next_id += 1;
                        mc.enqueue(now, req);
                        reference.enqueue(now, req);
                        prop_assert_eq!(mc.next_wake(), reference.mc.next_wake());
                        prop_assert_eq!(mc.inflight(), reference.inflight());
                    }
                }
                3..9 => {
                    if let Some(w) = mc.next_wake() {
                        now = now.max(w);
                    }
                }
                9..11 => now += Ps::from_ps(bits % 60_000),
                _ => now += refi * (1 + bits % 3) + Ps::from_ps(bits % 1_000_000),
            }
            service(now, &mut mc, &mut reference)?;
        }
        while let Some(w) = mc.next_wake() {
            now = now.max(w);
            service(now, &mut mc, &mut reference)?;
        }
        prop_assert_eq!(mc.inflight(), 0);
        prop_assert_eq!(mc.stats(), reference.mc.stats(), "{:?}", cfg);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The per-bank scheduler returns the same completions, wake times
        /// and occupancy as the whole-queue one after every call, and ends
        /// with the same counters, under every configuration.
        #[test]
        fn matches_the_whole_queue_scheduler(
            steps in prop::collection::vec(step(), 1..200),
        ) {
            for cfg in configs() {
                check_stream(&cfg, &steps)?;
            }
        }
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::address::DimmAddressMap;
    use crate::timing::{DramConfig, MappingScheme, RowPolicy};
    use dl_engine::Ps;

    fn run_stream(cfg: &DramConfig, offsets: &[u64]) -> Ps {
        let map = DimmAddressMap::new(cfg);
        let mut mc = MemController::new("p", cfg);
        for (i, &off) in offsets.iter().enumerate() {
            mc.enqueue(
                Ps::ZERO,
                MemRequest::new(i as u64, AccessKind::Read, map.decode(off)),
            );
        }
        let mut end = Ps::ZERO;
        let mut got = 0;
        let mut now = Ps::ZERO;
        while got < offsets.len() {
            for c in mc.service(now) {
                end = end.max(c.at);
                got += 1;
            }
            if got < offsets.len() {
                now = mc.next_wake().expect("pending");
            }
        }
        end
    }

    #[test]
    fn closed_page_sacrifices_sequential_streams() {
        let seq: Vec<u64> = (0..128u64).map(|i| i * 64).collect();
        let open = run_stream(&DramConfig::ddr4_2400_lrdimm(), &seq);
        let mut cfg = DramConfig::ddr4_2400_lrdimm();
        cfg.row_policy = RowPolicy::Closed;
        let closed = run_stream(&cfg, &seq);
        assert!(
            closed.as_ps() > open.as_ps() * 2,
            "closed {closed} should be much slower than open {open} on a stream"
        );
    }

    #[test]
    fn closed_page_counts_no_row_hits() {
        let mut cfg = DramConfig::ddr4_2400_lrdimm();
        cfg.row_policy = RowPolicy::Closed;
        let map = DimmAddressMap::new(&cfg);
        let mut mc = MemController::new("p", &cfg);
        for i in 0..32u64 {
            mc.enqueue(
                Ps::ZERO,
                MemRequest::new(i, AccessKind::Read, map.decode(i * 64)),
            );
        }
        let mut got = 0;
        let mut now = Ps::ZERO;
        while got < 32 {
            got += mc.service(now).len();
            if got < 32 {
                now = mc.next_wake().expect("pending");
            }
        }
        assert_eq!(mc.row_hit_rate(), 0.0);
    }

    #[test]
    fn bank_xor_breaks_row_stride_conflicts() {
        // A row*banks stride hits the same bank every time under the plain
        // mapping; XOR folding spreads it.
        let plain = DramConfig::ddr4_2400_lrdimm();
        let stride = plain.total_banks() as u64 * plain.row_bytes as u64;
        let offsets: Vec<u64> = (0..32u64).map(|i| i * stride).collect();
        let t_plain = run_stream(&plain, &offsets);
        let mut xor = plain;
        xor.mapping = MappingScheme::BankXor;
        let t_xor = run_stream(&xor, &offsets);
        assert!(
            t_plain.as_ps() > 2 * t_xor.as_ps(),
            "plain {t_plain} should lose to xor {t_xor} on a conflict stride"
        );
    }

    #[test]
    fn bank_xor_roundtrips() {
        let mut cfg = DramConfig::ddr4_2400_lrdimm();
        cfg.mapping = MappingScheme::BankXor;
        let m = DimmAddressMap::new(&cfg);
        for off in [0u64, 64, 8192, 1 << 20, (1 << 28) + 64 * 5] {
            let a = m.decode(off);
            assert_eq!(m.encode(a), off & !63, "offset {off:#x}");
        }
    }
}

#[cfg(test)]
mod shared_bus_tests {
    use super::*;
    use crate::address::DimmAddressMap;
    use crate::timing::DramConfig;

    #[test]
    fn shared_bus_halves_two_rank_bandwidth() {
        let mut nmp = DramConfig::ddr4_2400_lrdimm();
        nmp.bus_per_rank = true;
        let mut host = nmp;
        host.bus_per_rank = false;
        let map = DimmAddressMap::new(&nmp);

        let run = |cfg: &DramConfig| {
            let mut mc = MemController::new("b", cfg);
            // Stream both ranks concurrently (rank bit flips at bank stride).
            let rank_stride = cfg.banks_per_rank() as u64 * cfg.row_bytes as u64;
            for i in 0..256u64 {
                let off = (i / 2) * 64 + (i % 2) * rank_stride;
                mc.enqueue(
                    Ps::ZERO,
                    MemRequest::new(i, AccessKind::Read, map.decode(off)),
                );
            }
            let mut end = Ps::ZERO;
            let mut got = 0;
            let mut now = Ps::ZERO;
            while got < 256 {
                for c in mc.service(now) {
                    end = end.max(c.at);
                    got += 1;
                }
                if got < 256 {
                    now = mc.next_wake().expect("pending");
                }
            }
            end
        };
        let t_nmp = run(&nmp);
        let t_host = run(&host);
        // Two ranks, one bank each: tCCD limits a single bank to ~80 % of
        // burst bandwidth, so per-rank buses give ~1.3x, and the shared bus
        // is pinned at the channel's peak.
        assert!(
            t_host.as_ps() > t_nmp.as_ps() * 5 / 4,
            "shared bus {t_host} should be slower than per-rank {t_nmp}"
        );
    }
}
