//! Contended, utilization-tracked resources.
//!
//! Memory channels, the AIM dedicated bus, and DIMM-Link SerDes links are all
//! modelled as shared resources: a transfer occupies the resource for a
//! duration; overlapping transfers queue. The resource additionally
//! integrates its busy time, which is how the paper's "memory bus
//! occupation" metric (Fig. 15-b) is measured.
//!
//! Scheduling is **work-conserving** (gap-filling): a reservation starts at
//! the earliest instant at or after its request time with enough idle
//! capacity. This matters because multi-stage transactions (read a channel,
//! cross the host, write another channel) reserve later stages at future
//! times; a naive single-cursor FIFO would permanently waste the idle gap in
//! front of every future reservation, silently serializing pipelined
//! traffic.

use crate::time::Ps;
use std::collections::VecDeque;

/// Reservations older than this (relative to the newest request time) are
/// pruned; requests are assumed never to arrive more than this far in the
/// past (event-driven callers are near-time-ordered).
const RETENTION: Ps = Ps::from_us(50);

/// A shared, capacity-1 resource (bus, link, port) with gap-filling
/// reservation.
///
/// # Complexity
///
/// The retained busy intervals are sorted, disjoint and never touch (an
/// insert merges touching neighbours), so their *ends* are sorted as well.
/// Every reservation therefore finds the first interval ending after its
/// request time, and every insert its position, by a search from the tail:
/// `O(log d)` for an answer `d` intervals from the back, at most
/// `O(log n)` in the `n` intervals retained over the last [`RETENTION`].
/// Requests arrive close to the newest reservations, so `d` is usually 0
/// or 1. A reservation then scans forward only over the intervals it has
/// to skip or fill. Inserting an interval that extends one neighbour
/// updates it in place; only a segment standing alone, or one joining two
/// neighbours, shifts the deque.
///
/// # Examples
///
/// ```
/// use dl_engine::{Resource, Ps};
///
/// let mut bus = Resource::new("memory-bus");
/// let first = bus.reserve(Ps::from_ns(0), Ps::from_ns(10));
/// assert_eq!(first, Ps::from_ns(10));
/// // A transfer requested at t=5 queues behind the first one.
/// let second = bus.reserve(Ps::from_ns(5), Ps::from_ns(10));
/// assert_eq!(second, Ps::from_ns(20));
/// assert_eq!(bus.busy_time(), Ps::from_ns(20));
/// // A reservation far in the future leaves the gap usable:
/// bus.reserve(Ps::from_us(1), Ps::from_ns(10));
/// let gap_fill = bus.reserve(Ps::from_ns(20), Ps::from_ns(10));
/// assert_eq!(gap_fill, Ps::from_ns(30));
/// ```
#[derive(Debug, Clone)]
pub struct Resource {
    name: String,
    /// Sorted, disjoint busy intervals `[start, end)`.
    intervals: VecDeque<(Ps, Ps)>,
    /// Largest request time seen (drives pruning).
    high_water: Ps,
    /// End of the latest busy interval ever pruned: the schedule before
    /// this instant is forgotten, including its idle gaps.
    pruned_until: Ps,
    busy: Ps,
    reservations: u64,
    /// Reservations requested before [`Resource::pruned_until`]. The idle
    /// gaps such a request could have filled are already discarded, so it
    /// is scheduled pessimistically (possibly later than a perfect
    /// schedule would allow). Always zero in a well-behaved simulation.
    out_of_window: u64,
}

impl Resource {
    /// Creates an idle resource with a diagnostic `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Resource {
            name: name.into(),
            intervals: VecDeque::new(),
            high_water: Ps::ZERO,
            pruned_until: Ps::ZERO,
            busy: Ps::ZERO,
            reservations: 0,
            out_of_window: 0,
        }
    }

    /// Reserves the resource for `dur`, starting at the earliest idle gap at
    /// or after `now`. Returns the completion time.
    pub fn reserve(&mut self, now: Ps, dur: Ps) -> Ps {
        self.reserve_with_start(now, dur).1
    }

    /// Like [`Resource::reserve`] but also returns the start time, which is
    /// useful when the caller needs the queueing delay separately.
    pub fn reserve_with_start(&mut self, now: Ps, dur: Ps) -> (Ps, Ps) {
        self.busy += dur;
        self.reservations += 1;
        self.high_water = self.high_water.max(now);
        self.prune();
        self.check_window(now);
        if dur == Ps::ZERO {
            return (now, now);
        }
        // Find the first gap of length >= dur starting at or after `now`.
        // Intervals ending at or before `now` cannot delay it; the rest are
        // disjoint and non-touching, so each one either leaves room before
        // it or pushes the start to its end.
        let mut start = now;
        for &(s, e) in self.intervals.range(self.first_ending_after(now)..) {
            if s >= start + dur {
                break;
            }
            start = e;
        }
        let end = start + dur;
        self.insert_interval(start, end);
        (start, end)
    }

    /// Like [`reserve_with_start`](Resource::reserve_with_start), but the
    /// occupancy may **split across idle gaps** instead of requiring one
    /// contiguous slot: the work starts in the earliest idle instant at or
    /// after `now` and fills forward, skipping already-reserved intervals,
    /// until `dur` of idle time is consumed.
    ///
    /// Returns `(start_of_first_segment, end_of_last_segment)`.
    ///
    /// This models resources that time-multiplex at fine granularity
    /// (flit-interleaved links with virtual-channel buffers): a short
    /// transfer requested early is not forced to queue behind a long
    /// reservation whose traffic arrives later, which is exactly how a
    /// contiguous-slot model diverges from cycle-accurate wormhole routing
    /// under contention.
    pub fn reserve_split_with_start(&mut self, now: Ps, dur: Ps) -> (Ps, Ps) {
        self.busy += dur;
        self.reservations += 1;
        self.high_water = self.high_water.max(now);
        self.prune();
        self.check_window(now);
        if dur == Ps::ZERO {
            return (now, now);
        }
        let mut idx = self.first_ending_after(now);
        let mut cursor = now;
        // `now` may sit inside a busy interval: the work starts at its end.
        if let Some(&(s, e)) = self.intervals.get(idx) {
            if s <= now {
                cursor = e;
                idx += 1;
            }
        }
        let first_start = cursor;
        let mut remaining = dur;
        loop {
            // `cursor` is idle up to the next busy interval (or forever).
            let gap_end = self.intervals.get(idx).map_or(Ps::MAX, |&(s, _)| s);
            let take = remaining.min(gap_end - cursor);
            let merged = self.insert_interval(cursor, cursor + take);
            remaining -= take;
            if remaining == Ps::ZERO {
                return (first_start, cursor + take);
            }
            // The segment filled the whole gap and merged with the interval
            // behind it: carry on after that interval.
            cursor = self.intervals[merged].1;
            idx = merged + 1;
        }
    }

    /// Index of the first retained interval that ends after `now`.
    ///
    /// The intervals are sorted and disjoint, so their ends are sorted too
    /// and the intervals ending at or before `now` form a prefix.
    fn first_ending_after(&self, now: Ps) -> usize {
        self.ends_partition_point(|e| e <= now)
    }

    /// The length of the prefix of retained intervals whose ends satisfy
    /// `pred`, which must hold on a prefix of the (sorted) ends: the index
    /// `partition_point` returns, searched from the tail.
    ///
    /// Requests arrive near the newest reservations, so the answer lies
    /// close to the back. Probing 1, 2, 4, … intervals back from the tail
    /// and bisecting the last step costs `O(log d)` for an answer `d`
    /// intervals from the back, instead of `O(log n)` over all of them.
    fn ends_partition_point(&self, pred: impl Fn(Ps) -> bool) -> usize {
        // Every interval at or after `hi` fails `pred`.
        let mut hi = self.intervals.len();
        let mut step = 1;
        // Every interval before `lo` satisfies `pred`.
        let mut lo = loop {
            if hi == 0 {
                return 0;
            }
            let probe = hi.saturating_sub(step);
            if pred(self.intervals[probe].1) {
                break probe + 1;
            }
            hi = probe;
            step *= 2;
        };
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.intervals[mid].1) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Inserts busy interval `[start, end)`, merging with neighbours, and
    /// returns the index of the interval that now contains it.
    ///
    /// Under `feature = "audit"`, panics if the interval strictly overlaps
    /// an existing reservation: this is a capacity-1 resource, so both
    /// reservation paths place work in idle gaps only, and an overlap means
    /// the schedule was double-booked.
    fn insert_interval(&mut self, start: Ps, end: Ps) -> usize {
        #[cfg(feature = "audit")]
        for &(s, e) in self.intervals.iter() {
            assert!(
                e <= start || end <= s,
                "resource '{}': reservation [{start}, {end}) overlaps busy [{s}, {e}) — \
                 capacity-1 schedule double-booked",
                self.name
            );
        }
        // Intervals in `pos..touch_end` overlap or touch `[start, end)`.
        let pos = self.ends_partition_point(|e| e < start);
        let touch_end = pos
            + self
                .intervals
                .range(pos..)
                .take_while(|&&(s, _)| s <= end)
                .count();
        if pos == touch_end {
            self.intervals.insert(pos, (start, end));
        } else {
            let new_s = start.min(self.intervals[pos].0);
            let new_e = end.max(self.intervals[touch_end - 1].1);
            self.intervals[pos] = (new_s, new_e);
            self.intervals.drain(pos + 1..touch_end);
        }
        pos
    }

    fn prune(&mut self) {
        let watermark = self.high_water.saturating_sub(RETENTION);
        while let Some(&(_, e)) = self.intervals.front() {
            if e < watermark && self.intervals.len() > 1 {
                self.intervals.pop_front();
                self.pruned_until = self.pruned_until.max(e);
            } else {
                break;
            }
        }
    }

    /// Contract check: a request predating the pruned schedule horizon may
    /// have lost the idle gap it would have filled — the reservation is
    /// still scheduled, but possibly later than the true gap-filling
    /// schedule. Catch that loudly instead of silently.
    fn check_window(&mut self, now: Ps) {
        if now < self.pruned_until {
            self.out_of_window += 1;
            // The audit build makes this a hard error even with
            // debug_assertions off; otherwise debug builds assert and
            // release builds count (telemetry for long sweeps).
            #[cfg(feature = "audit")]
            panic!(
                "resource '{}': reservation requested at {now} predates the \
                 pruned schedule horizon {} — idle gaps it could have filled \
                 were already discarded, so it may be mis-scheduled",
                self.name, self.pruned_until
            );
            #[cfg(not(feature = "audit"))]
            debug_assert!(
                false,
                "resource '{}': reservation requested at {now} predates the \
                 pruned schedule horizon {} — idle gaps it could have filled \
                 were already discarded, so it may be mis-scheduled",
                self.name, self.pruned_until
            );
        }
    }

    /// The end of the last scheduled reservation (the time after which the
    /// resource is certainly idle).
    pub fn free_at(&self) -> Ps {
        self.intervals.back().map_or(Ps::ZERO, |&(_, e)| e)
    }

    /// Whether the resource has no reservation at or after `now`.
    pub fn is_free(&self, now: Ps) -> bool {
        self.free_at() <= now
    }

    /// Total time the resource has been occupied.
    pub fn busy_time(&self) -> Ps {
        self.busy
    }

    /// Number of reservations made so far.
    pub fn reservations(&self) -> u64 {
        self.reservations
    }

    /// Reservations requested before the pruned schedule horizon (intervals
    /// older than [`RETENTION`] relative to the high-water mark are
    /// discarded together with the idle gaps around them). Non-zero means
    /// some reservations may have been scheduled later than a perfect
    /// gap-filling schedule would allow; debug builds additionally
    /// `debug_assert!` on the first offence.
    pub fn out_of_window(&self) -> u64 {
        self.out_of_window
    }

    /// Fraction of `[0, total]` this resource was occupied.
    ///
    /// Returns 0 for a zero-length window.
    pub fn utilization(&self, total: Ps) -> f64 {
        if total == Ps::ZERO {
            0.0
        } else {
            self.busy.as_ps() as f64 / total.as_ps() as f64
        }
    }

    /// Diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Counts `dur` of occupancy without scheduling it: used for work that
    /// provably happened during past idle time (e.g. backlogged polling
    /// periods) and therefore must contribute to utilization statistics but
    /// must not delay future reservations.
    pub fn account_busy(&mut self, dur: Ps) {
        self.busy += dur;
        self.reservations += 1;
    }

    /// Resets occupancy accounting (used between profiling and measured runs).
    pub fn reset_accounting(&mut self) {
        self.busy = Ps::ZERO;
        self.reservations = 0;
    }
}

/// A [`Resource`] with an associated bandwidth, reserving by transfer size.
///
/// # Examples
///
/// ```
/// use dl_engine::{BandwidthResource, Ps};
///
/// // A 25 GB/s DIMM-Link lane: 256 bytes take ~10.24 ns to serialize.
/// let mut link = BandwidthResource::new("dl-lane", 25_000_000_000);
/// let done = link.transfer(Ps::ZERO, 256);
/// assert_eq!(done, Ps::from_ps(10_240));
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthResource {
    inner: Resource,
    bytes_per_sec: u64,
    bytes_moved: u64,
}

impl BandwidthResource {
    /// Creates a resource moving `bytes_per_sec` bytes per second.
    ///
    /// # Panics
    /// Panics if `bytes_per_sec` is zero.
    pub fn new(name: impl Into<String>, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be non-zero");
        BandwidthResource {
            inner: Resource::new(name),
            bytes_per_sec,
            bytes_moved: 0,
        }
    }

    /// Duration needed to move `bytes` at this resource's bandwidth
    /// (rounded up to a whole picosecond, minimum 1 ps for non-empty
    /// transfers).
    pub fn duration_of(&self, bytes: u64) -> Ps {
        if bytes == 0 {
            return Ps::ZERO;
        }
        let ps = (bytes as u128 * 1_000_000_000_000u128).div_ceil(self.bytes_per_sec as u128);
        Ps::from_ps(ps as u64)
    }

    /// Reserves the resource to move `bytes` starting no earlier than `now`;
    /// returns the completion time.
    pub fn transfer(&mut self, now: Ps, bytes: u64) -> Ps {
        self.bytes_moved += bytes;
        let dur = self.duration_of(bytes);
        self.inner.reserve(now, dur)
    }

    /// Reserves for `bytes` and returns `(start, end)`.
    pub fn transfer_with_start(&mut self, now: Ps, bytes: u64) -> (Ps, Ps) {
        self.bytes_moved += bytes;
        let dur = self.duration_of(bytes);
        self.inner.reserve_with_start(now, dur)
    }

    /// Reserves for `bytes`, allowing the occupancy to split across idle
    /// gaps (see [`Resource::reserve_split_with_start`]); returns
    /// `(start_of_first_segment, end_of_last_segment)`.
    pub fn transfer_split_with_start(&mut self, now: Ps, bytes: u64) -> (Ps, Ps) {
        self.bytes_moved += bytes;
        let dur = self.duration_of(bytes);
        self.inner.reserve_split_with_start(now, dur)
    }

    /// Occupies the resource for a fixed duration unrelated to bandwidth
    /// (e.g. a polling register read on a memory channel).
    pub fn occupy(&mut self, now: Ps, dur: Ps) -> Ps {
        self.inner.reserve(now, dur)
    }

    /// See [`Resource::account_busy`].
    pub fn account_busy(&mut self, dur: Ps) {
        self.inner.account_busy(dur);
    }

    /// Whether the resource is idle at `now`.
    pub fn is_free(&self, now: Ps) -> bool {
        self.inner.is_free(now)
    }

    /// Total bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Configured bandwidth in bytes per second.
    pub fn bytes_per_sec(&self) -> u64 {
        self.bytes_per_sec
    }

    /// The earliest time a new reservation could start.
    pub fn free_at(&self) -> Ps {
        self.inner.free_at()
    }

    /// Total time occupied.
    pub fn busy_time(&self) -> Ps {
        self.inner.busy_time()
    }

    /// Fraction of `[0, total]` occupied.
    pub fn utilization(&self, total: Ps) -> f64 {
        self.inner.utilization(total)
    }

    /// Number of reservations made so far.
    pub fn reservations(&self) -> u64 {
        self.inner.reservations()
    }

    /// See [`Resource::out_of_window`].
    pub fn out_of_window(&self) -> u64 {
        self.inner.out_of_window()
    }

    /// Diagnostic name.
    pub fn name(&self) -> &str {
        self.inner.name()
    }

    /// Resets occupancy accounting (used between profiling and measured runs).
    pub fn reset_accounting(&mut self) {
        self.inner.reset_accounting();
        self.bytes_moved = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_serialization() {
        let mut r = Resource::new("r");
        assert_eq!(r.reserve(Ps::from_ns(0), Ps::from_ns(4)), Ps::from_ns(4));
        assert_eq!(r.reserve(Ps::from_ns(1), Ps::from_ns(4)), Ps::from_ns(8));
        // A late request starts immediately once the resource is free.
        assert_eq!(
            r.reserve(Ps::from_ns(100), Ps::from_ns(1)),
            Ps::from_ns(101)
        );
        assert_eq!(r.reservations(), 3);
    }

    #[test]
    fn utilization_integrates_busy_time() {
        let mut r = Resource::new("r");
        r.reserve(Ps::ZERO, Ps::from_ns(25));
        assert!((r.utilization(Ps::from_ns(100)) - 0.25).abs() < 1e-12);
        assert_eq!(r.utilization(Ps::ZERO), 0.0);
    }

    #[test]
    fn reserve_with_start_reports_queueing() {
        let mut r = Resource::new("r");
        r.reserve(Ps::ZERO, Ps::from_ns(10));
        let (start, end) = r.reserve_with_start(Ps::from_ns(2), Ps::from_ns(5));
        assert_eq!(start, Ps::from_ns(10));
        assert_eq!(end, Ps::from_ns(15));
    }

    #[test]
    fn bandwidth_duration_rounds_up() {
        let link = BandwidthResource::new("l", 1_000_000_000_000); // 1 byte/ps
        assert_eq!(link.duration_of(0), Ps::ZERO);
        assert_eq!(link.duration_of(7), Ps::from_ps(7));
        let slow = BandwidthResource::new("s", 3); // 3 bytes/sec
                                                   // 1 byte at 3 B/s = 333.33... ms, rounded up.
        assert_eq!(slow.duration_of(1), Ps::from_ps(333_333_333_334));
    }

    #[test]
    fn transfers_queue_and_count_bytes() {
        let mut link = BandwidthResource::new("l", 1_000_000_000_000);
        let a = link.transfer(Ps::ZERO, 100);
        let b = link.transfer(Ps::ZERO, 100);
        assert_eq!(a, Ps::from_ps(100));
        assert_eq!(b, Ps::from_ps(200));
        assert_eq!(link.bytes_moved(), 200);
    }

    #[test]
    fn reset_accounting_clears_counters_not_schedule() {
        let mut r = Resource::new("r");
        r.reserve(Ps::ZERO, Ps::from_ns(10));
        r.reset_accounting();
        assert_eq!(r.busy_time(), Ps::ZERO);
        assert_eq!(r.reservations(), 0);
        // The schedule (free_at) is preserved: the bus is still busy.
        assert_eq!(r.free_at(), Ps::from_ns(10));
    }

    #[test]
    fn gap_filling_backfills_idle_time() {
        let mut r = Resource::new("r");
        // A future reservation leaves the earlier gap usable.
        assert_eq!(
            r.reserve(Ps::from_ns(1000), Ps::from_ns(10)),
            Ps::from_ns(1010)
        );
        assert_eq!(r.reserve(Ps::from_ns(0), Ps::from_ns(10)), Ps::from_ns(10));
        // A gap too small is skipped.
        let end = r.reserve(Ps::from_ns(995), Ps::from_ns(10));
        assert_eq!(end, Ps::from_ns(1020));
        assert_eq!(r.busy_time(), Ps::from_ns(30));
    }

    #[test]
    fn pipelined_stages_do_not_serialize() {
        // The regression behind this design: stage-2 reservations at
        // now+offset must not consume the idle time before them.
        let mut r = Resource::new("cpu");
        let mut last = Ps::ZERO;
        for i in 0..100u64 {
            let stage2_at = Ps::from_ns(10 * i + 150);
            last = r.reserve(stage2_at, Ps::from_ns(5));
        }
        // 100 x 5 ns of work arriving every 10 ns: finishes ~ last arrival,
        // not 100 x 150 ns.
        assert!(
            last < Ps::from_ns(10 * 100 + 150 + 20),
            "serialized: {last}"
        );
    }

    #[test]
    fn account_busy_counts_without_scheduling() {
        let mut r = Resource::new("r");
        r.account_busy(Ps::from_ns(100));
        assert_eq!(r.busy_time(), Ps::from_ns(100));
        assert_eq!(r.free_at(), Ps::ZERO);
        assert_eq!(r.reserve(Ps::ZERO, Ps::from_ns(5)), Ps::from_ns(5));
    }

    #[test]
    fn adjacent_reservations_merge() {
        let mut r = Resource::new("r");
        for i in 0..1000u64 {
            r.reserve(Ps::from_ns(i), Ps::from_ns(1));
        }
        assert_eq!(r.free_at(), Ps::from_ns(1000));
        assert_eq!(r.busy_time(), Ps::from_ns(1000));
    }

    #[test]
    fn requests_inside_retention_window_are_in_contract() {
        // The documented contract: a request exactly RETENTION behind the
        // high-water mark is still in-window and schedules normally.
        let mut r = Resource::new("r");
        let far = Ps::from_us(200);
        r.reserve(far, Ps::from_ns(10));
        let edge = far.saturating_sub(RETENTION);
        let end = r.reserve(edge, Ps::from_ns(10));
        assert_eq!(end, edge + Ps::from_ns(10), "in-window gap fill");
        assert_eq!(r.out_of_window(), 0);
    }

    #[test]
    fn late_requests_without_pruning_are_in_contract() {
        // Regression: a request far behind the high-water mark is fine as
        // long as nothing has been pruned — the full schedule (and its
        // gaps) is still known. The AIM dedicated bus hits this: one long
        // transfer pushes the high-water mark out, and the next request
        // still arrives at t=0.
        let mut r = Resource::new("aim-bus");
        r.reserve(Ps::ZERO, Ps::from_us(120));
        let end = r.reserve(Ps::ZERO, Ps::from_ns(10));
        assert_eq!(end, Ps::from_us(120) + Ps::from_ns(10));
        assert_eq!(r.out_of_window(), 0);
    }

    // Requests predating the pruned schedule horizon violate the contract:
    // the gap they would fill is already discarded. Debug builds assert;
    // release builds count (telemetry for long sweeps).
    fn prune_then_request_before_horizon(r: &mut Resource) {
        r.reserve(Ps::ZERO, Ps::from_ns(10));
        r.reserve(Ps::from_us(200), Ps::from_ns(10));
        // This call's prune discards [0, 10 ns) — then the request at 5 ns
        // lands before the pruned horizon.
        let _ = r.reserve(Ps::from_ns(5), Ps::from_ns(10));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pruned schedule horizon")]
    fn out_of_window_request_asserts_in_debug() {
        let mut r = Resource::new("r");
        prune_then_request_before_horizon(&mut r);
    }

    #[test]
    #[cfg(all(not(debug_assertions), not(feature = "audit")))]
    fn out_of_window_request_is_counted_in_release() {
        let mut r = Resource::new("r");
        prune_then_request_before_horizon(&mut r);
        assert_eq!(r.out_of_window(), 1);
    }

    #[test]
    #[cfg(feature = "audit")]
    #[should_panic(expected = "pruned schedule horizon")]
    fn audit_makes_out_of_window_a_hard_error() {
        // Unlike the plain build (debug_assert), the audit build panics
        // even with debug_assertions off.
        let mut r = Resource::new("r");
        prune_then_request_before_horizon(&mut r);
    }

    #[test]
    #[cfg(feature = "audit")]
    #[should_panic(expected = "double-booked")]
    fn audit_catches_double_booking() {
        // No public path double-books (both reservation paths fill idle
        // gaps only) — drive the internal insert directly to prove the
        // auditor would catch a future scheduling bug.
        let mut r = Resource::new("r");
        r.insert_interval(Ps::from_ns(0), Ps::from_ns(10));
        r.insert_interval(Ps::from_ns(5), Ps::from_ns(7));
    }

    #[test]
    fn heavy_mixed_usage_stays_overlap_free() {
        // Exercised under the audit feature in CI: contiguous, split, and
        // gap-filling reservations interleaved must never double-book.
        let mut r = Resource::new("r");
        for i in 0..200u64 {
            r.reserve(Ps::from_ns(7 * i), Ps::from_ns(3));
            r.reserve_split_with_start(Ps::from_ns(5 * i), Ps::from_ns(2));
            r.reserve_with_start(Ps::from_ns(11 * i + 1), Ps::from_ns(1));
        }
        assert!(r.busy_time() > Ps::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bandwidth_panics() {
        let _ = BandwidthResource::new("z", 0);
    }

    #[test]
    fn split_reservation_matches_contiguous_when_uncontended() {
        let mut a = Resource::new("a");
        let mut b = Resource::new("b");
        let plain = a.reserve_with_start(Ps::from_ns(3), Ps::from_ns(10));
        let split = b.reserve_split_with_start(Ps::from_ns(3), Ps::from_ns(10));
        assert_eq!(plain, split);
        assert_eq!(a.busy_time(), b.busy_time());
    }

    #[test]
    fn split_reservation_uses_gap_too_small_for_contiguous() {
        // A 10 ns transfer requested at t=0 against a busy window [6, 20):
        // contiguous scheduling must wait until 20; split scheduling starts
        // at 0, runs 6 ns, and finishes the remaining 4 ns after 20.
        let mut r = Resource::new("r");
        r.reserve(Ps::from_ns(6), Ps::from_ns(14));
        let (start, end) = r.reserve_split_with_start(Ps::ZERO, Ps::from_ns(10));
        assert_eq!(start, Ps::ZERO);
        assert_eq!(end, Ps::from_ns(24));
        // Occupancy is conserved: [0, 24) is now fully busy.
        assert_eq!(r.free_at(), Ps::from_ns(24));
        assert_eq!(r.busy_time(), Ps::from_ns(24));
    }

    #[test]
    fn split_reservation_spans_multiple_gaps() {
        let mut r = Resource::new("r");
        r.reserve(Ps::from_ns(2), Ps::from_ns(2)); // busy [2, 4)
        r.reserve(Ps::from_ns(6), Ps::from_ns(2)); // busy [6, 8)
                                                   // 7 ns of work from t=0: gaps [0,2) + [4,6) + [8, 11).
        let (start, end) = r.reserve_split_with_start(Ps::ZERO, Ps::from_ns(7));
        assert_eq!(start, Ps::ZERO);
        assert_eq!(end, Ps::from_ns(11));
        assert_eq!(r.free_at(), Ps::from_ns(11));
    }

    #[test]
    fn split_reservation_zero_duration_is_noop() {
        let mut r = Resource::new("r");
        let (s, e) = r.reserve_split_with_start(Ps::from_ns(5), Ps::ZERO);
        assert_eq!((s, e), (Ps::from_ns(5), Ps::from_ns(5)));
        assert_eq!(r.free_at(), Ps::ZERO);
    }

    #[test]
    fn split_zero_duration_inside_busy_interval_schedules_nothing() {
        // Edge case under the overlap auditor: a zero-length request whose
        // `now` lands inside a busy interval must not insert a degenerate
        // interval (which would look like a double-booking).
        let mut r = Resource::new("r");
        r.reserve(Ps::from_ns(0), Ps::from_ns(10));
        let (s, e) = r.reserve_split_with_start(Ps::from_ns(5), Ps::ZERO);
        assert_eq!((s, e), (Ps::from_ns(5), Ps::from_ns(5)));
        assert_eq!(r.free_at(), Ps::from_ns(10));
        assert_eq!(r.out_of_window(), 0);
    }

    #[test]
    fn split_reservation_exactly_at_pruned_horizon_is_legal() {
        // The pruned-horizon contract is `now < pruned_until` = violation;
        // a request at exactly the horizon still sees every surviving gap
        // and must schedule normally (no panic under audit, no counter).
        let mut r = Resource::new("r");
        r.reserve(Ps::ZERO, Ps::from_ns(10));
        // Push the high-water mark far enough that prune() discards
        // [0, 10 ns): pruned_until becomes 10 ns.
        r.reserve(Ps::from_us(200), Ps::from_ns(10));
        let (s, e) = r.reserve_split_with_start(Ps::from_ns(10), Ps::from_ns(5));
        assert_eq!((s, e), (Ps::from_ns(10), Ps::from_ns(15)));
        assert_eq!(r.out_of_window(), 0);
    }

    #[test]
    fn fully_overlapping_split_requests_serialize() {
        // Two identical split requests: the second must queue entirely
        // behind the first (capacity 1), not share its segments. Under
        // `--features audit` the insert-time overlap assert also proves no
        // double-booking happened.
        let mut r = Resource::new("r");
        r.reserve(Ps::from_ns(4), Ps::from_ns(4)); // busy [4, 8)
        let a = r.reserve_split_with_start(Ps::ZERO, Ps::from_ns(6));
        let b = r.reserve_split_with_start(Ps::ZERO, Ps::from_ns(6));
        // First: [0,4) + [8,10); second fills what's left: [10, 16).
        assert_eq!(a, (Ps::ZERO, Ps::from_ns(10)));
        assert_eq!(b, (Ps::from_ns(10), Ps::from_ns(16)));
        // Occupancy conserved: [0, 16) fully busy, 4+6+6 ns accounted.
        assert_eq!(r.free_at(), Ps::from_ns(16));
        assert_eq!(r.busy_time(), Ps::from_ns(16));
    }

    #[test]
    fn many_interleaved_split_requests_never_double_book() {
        // Stress the splitter against the audit overlap assert: staggered
        // arrivals, varied durations, plus contiguous traffic in between.
        let mut r = Resource::new("r");
        for i in 0..100u64 {
            r.reserve(Ps::from_ns(13 * i), Ps::from_ns(4));
            r.reserve_split_with_start(Ps::from_ns(3 * i), Ps::from_ns(1 + i % 5));
        }
        let expected: u64 = 100 * 4 + (0..100u64).map(|i| 1 + i % 5).sum::<u64>();
        assert_eq!(r.busy_time(), Ps::from_ns(expected));
    }

    // Edge cases of the scan start (the first interval ending after `now`).

    /// Busy `[10, 20)` and `[30, 40)` ns, nothing pruned.
    fn two_busy_intervals() -> Resource {
        let mut r = Resource::new("r");
        r.reserve(Ps::from_ns(10), Ps::from_ns(10));
        r.reserve(Ps::from_ns(30), Ps::from_ns(10));
        r
    }

    #[test]
    fn request_strictly_inside_a_busy_interval_starts_at_its_end() {
        let mut r = two_busy_intervals();
        assert_eq!(
            r.reserve_with_start(Ps::from_ns(15), Ps::from_ns(5)),
            (Ps::from_ns(20), Ps::from_ns(25))
        );
        let mut r = two_busy_intervals();
        // Split: 10 ns of work fills [20, 30) and merges both neighbours.
        assert_eq!(
            r.reserve_split_with_start(Ps::from_ns(15), Ps::from_ns(10)),
            (Ps::from_ns(20), Ps::from_ns(30))
        );
        assert_eq!(r.intervals, [(Ps::from_ns(10), Ps::from_ns(40))]);
    }

    #[test]
    fn request_exactly_at_an_interval_end_starts_there() {
        // The interval ending at `now` is skipped by the search, and the
        // new reservation merges with it.
        let mut r = two_busy_intervals();
        assert_eq!(
            r.reserve_with_start(Ps::from_ns(20), Ps::from_ns(10)),
            (Ps::from_ns(20), Ps::from_ns(30))
        );
        assert_eq!(r.intervals, [(Ps::from_ns(10), Ps::from_ns(40))]);
        // A contiguous request that does not fit the gap skips it.
        let mut r = two_busy_intervals();
        assert_eq!(
            r.reserve_with_start(Ps::from_ns(20), Ps::from_ns(11)),
            (Ps::from_ns(40), Ps::from_ns(51))
        );
        let mut r = two_busy_intervals();
        assert_eq!(
            r.reserve_split_with_start(Ps::from_ns(20), Ps::from_ns(11)),
            (Ps::from_ns(20), Ps::from_ns(41))
        );
        assert_eq!(r.intervals, [(Ps::from_ns(10), Ps::from_ns(41))]);
    }

    #[test]
    fn request_before_the_first_retained_interval_fills_the_gap() {
        // Prune [0, 10 ns) away, then request before the first interval
        // still retained ([160, 160.004) us).
        let mut r = Resource::new("r");
        r.reserve(Ps::ZERO, Ps::from_ns(10));
        r.reserve(Ps::from_us(200), Ps::from_ns(10));
        r.reserve(Ps::from_us(160), Ps::from_ns(4));
        assert_eq!(r.pruned_until, Ps::from_ns(10));
        assert_eq!(
            r.reserve_with_start(Ps::from_us(150), Ps::from_ns(4)),
            (Ps::from_us(150), Ps::from_us(150) + Ps::from_ns(4))
        );
        assert_eq!(
            r.reserve_split_with_start(Ps::from_us(155), Ps::from_ns(6)),
            (Ps::from_us(155), Ps::from_us(155) + Ps::from_ns(6))
        );
        assert_eq!(r.intervals.len(), 4);
        assert_eq!(r.out_of_window(), 0);
    }

    #[test]
    fn request_after_the_last_interval_starts_immediately() {
        let mut r = two_busy_intervals();
        assert_eq!(
            r.reserve_with_start(Ps::from_ns(50), Ps::from_ns(5)),
            (Ps::from_ns(50), Ps::from_ns(55))
        );
        assert_eq!(
            r.reserve_split_with_start(Ps::from_ns(60), Ps::from_ns(5)),
            (Ps::from_ns(60), Ps::from_ns(65))
        );
        assert_eq!(r.intervals.len(), 4);
        assert_eq!(r.free_at(), Ps::from_ns(65));
    }

    #[test]
    fn split_fill_merges_with_both_neighbours_in_every_gap() {
        // Busy [10, 20), [30, 40), [50, 60): 25 ns of split work from t=20
        // fills [20, 30) and [40, 50) exactly (each merging both of its
        // neighbours into one interval), then runs [60, 65).
        let mut r = two_busy_intervals();
        r.reserve(Ps::from_ns(50), Ps::from_ns(10));
        assert_eq!(
            r.reserve_split_with_start(Ps::from_ns(20), Ps::from_ns(25)),
            (Ps::from_ns(20), Ps::from_ns(65))
        );
        assert_eq!(r.intervals, [(Ps::from_ns(10), Ps::from_ns(65))]);
        assert_eq!(r.busy_time(), Ps::from_ns(55));
    }

    /// The front-to-back scan both reservation paths used before they
    /// started at a binary-searched index, with the split path's per-call
    /// segment list: the reference the differential test holds `Resource`
    /// to.
    #[derive(Debug, Clone, Default)]
    struct ScanModel {
        intervals: VecDeque<(Ps, Ps)>,
        high_water: Ps,
        pruned_until: Ps,
        busy: Ps,
        reservations: u64,
        out_of_window: u64,
    }

    impl ScanModel {
        /// Accounting, pruning and the window check common to both paths.
        fn begin(&mut self, now: Ps, dur: Ps) {
            self.busy += dur;
            self.reservations += 1;
            self.high_water = self.high_water.max(now);
            self.prune();
            if now < self.pruned_until {
                self.out_of_window += 1;
            }
        }

        fn prune(&mut self) {
            let watermark = self.high_water.saturating_sub(RETENTION);
            while let Some(&(_, e)) = self.intervals.front() {
                if e < watermark && self.intervals.len() > 1 {
                    self.intervals.pop_front();
                    self.pruned_until = self.pruned_until.max(e);
                } else {
                    break;
                }
            }
        }

        fn reserve(&mut self, now: Ps, dur: Ps) -> (Ps, Ps) {
            self.begin(now, dur);
            if dur == Ps::ZERO {
                return (now, now);
            }
            let mut start = now;
            for &(s, e) in self.intervals.iter() {
                if e <= start {
                    continue;
                }
                if s >= start + dur {
                    break;
                }
                start = e;
            }
            self.insert(start, start + dur);
            (start, start + dur)
        }

        fn reserve_split(&mut self, now: Ps, dur: Ps) -> (Ps, Ps) {
            self.begin(now, dur);
            if dur == Ps::ZERO {
                return (now, now);
            }
            let mut remaining = dur;
            let mut cursor = now;
            let mut segments: Vec<(Ps, Ps)> = Vec::new();
            let mut idx = 0;
            while remaining > Ps::ZERO {
                while idx < self.intervals.len() && self.intervals[idx].1 <= cursor {
                    idx += 1;
                }
                if idx < self.intervals.len() && self.intervals[idx].0 <= cursor {
                    cursor = self.intervals[idx].1;
                    idx += 1;
                    continue;
                }
                let gap_end = self.intervals.get(idx).map_or(Ps::MAX, |&(s, _)| s);
                let take = remaining.min(gap_end.saturating_sub(cursor));
                segments.push((cursor, cursor + take));
                remaining = remaining.saturating_sub(take);
                cursor = gap_end;
            }
            let span = (segments[0].0, segments[segments.len() - 1].1);
            for (s, e) in segments {
                self.insert(s, e);
            }
            span
        }

        fn insert(&mut self, start: Ps, end: Ps) {
            let mut pos = self.intervals.partition_point(|&(s, _)| s < start);
            while pos > 0 && self.intervals[pos - 1].1 >= start {
                pos -= 1;
            }
            let (mut new_s, mut new_e) = (start, end);
            while pos < self.intervals.len() && self.intervals[pos].0 <= new_e {
                let (s, e) = self.intervals[pos];
                if e < new_s {
                    pos += 1;
                    continue;
                }
                new_s = new_s.min(s);
                new_e = new_e.max(e);
                self.intervals.remove(pos);
            }
            self.intervals.insert(pos, (new_s, new_e));
        }

        fn free_at(&self) -> Ps {
            self.intervals.back().map_or(Ps::ZERO, |&(_, e)| e)
        }

        /// The pruned horizon a request at `now` is checked against.
        fn horizon_at(&self, now: Ps) -> Ps {
            let mut probe = self.clone();
            probe.high_water = probe.high_water.max(now);
            probe.prune();
            probe.pruned_until
        }

        /// A request time drawn against the current schedule: inside, at
        /// the start or end of, just before or after a busy interval, at
        /// the edge of the retained window, near the high-water mark, far
        /// in the future (which prunes the schedule on the next request),
        /// or far back from the tail: at or inside the interval 2^k back,
        /// or the first one retained (just after a prune, the furthest
        /// back a request may go). It is then lifted to the pruned
        /// horizon, because an earlier request breaks the contract and
        /// panics in debug and audit builds.
        fn request_time(&self, at: u8, bits: u64) -> Ps {
            let jitter = Ps::from_ps(bits % 20_000);
            let interval = |idx: usize| {
                self.intervals
                    .get(idx.min(self.intervals.len().saturating_sub(1)))
                    .copied()
                    .unwrap_or((Ps::ZERO, Ps::ZERO))
            };
            let (s, e) = interval((bits >> 20) as usize % self.intervals.len().max(1));
            let (deep_s, deep_e) = match at {
                7 => interval(self.intervals.len().saturating_sub(1 << ((bits >> 4) % 12))),
                _ => interval(0),
            };
            let now = match at {
                0 if e > s => s + Ps::from_ps(bits % (e - s).as_ps()),
                1 => s,
                2 => e,
                3 => s.saturating_sub(jitter),
                4 => self.free_at() + jitter,
                5 => self.high_water.saturating_sub(RETENTION),
                6 => self.high_water + RETENTION + Ps::from_ps(bits % RETENTION.as_ps()),
                7 | 8 if bits & 1 == 0 => deep_s,
                7 | 8 => deep_s + Ps::from_ps((bits >> 1) % (deep_e - deep_s).as_ps().max(1)),
                _ => self.high_water.saturating_sub(Ps::from_ps(bits % 40_000)) + jitter,
            };
            now.max(self.horizon_at(now))
        }
    }

    /// A duration of class 0 (zero), 1 (a few ps), 2 (up to 5 ns), 3 (up
    /// to 40 ns) or 4 (exactly the idle time from `now` to the next busy
    /// interval, so a contiguous request just fits).
    fn duration(m: &ScanModel, now: Ps, class: u8, bits: u64) -> Ps {
        let next_start = m.intervals.iter().map(|&(s, _)| s).find(|&s| s > now);
        Ps::from_ps(match (class, next_start) {
            (0, _) => 0,
            (1, _) => 1 + bits % 16,
            (2, _) => 1 + bits % 5_000,
            (4, Some(s)) => (s - now).as_ps(),
            _ => 1 + bits % 40_000,
        })
    }

    /// Makes the same request of `r` and `m` and asserts that they return
    /// the same span and leave the same schedule and counters.
    fn same_step(
        r: &mut Resource,
        m: &mut ScanModel,
        call: &str,
        split: bool,
        now: Ps,
        dur: Ps,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let (got, want) = if split {
            (
                r.reserve_split_with_start(now, dur),
                m.reserve_split(now, dur),
            )
        } else {
            (r.reserve_with_start(now, dur), m.reserve(now, dur))
        };
        let call = format!("{call}: split={split} now={now} dur={dur}");
        proptest::prop_assert_eq!(got, want, "{call}");
        proptest::prop_assert_eq!(r.busy_time(), m.busy, "{call}");
        proptest::prop_assert_eq!(r.free_at(), m.free_at(), "{call}");
        proptest::prop_assert_eq!(r.reservations(), m.reservations, "{call}");
        proptest::prop_assert_eq!(r.out_of_window(), m.out_of_window, "{call}");
        proptest::prop_assert_eq!(&r.intervals, &m.intervals, "{call}");
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Both reservation paths return exactly what the front-to-back
        /// scan returns, and leave the same schedule and counters, after
        /// every call of a random mix of contiguous and split requests.
        ///
        /// The mix starts on a comb of up to 511 disjoint reservations,
        /// one every `pitch` ns, so the schedule is long enough (and, past
        /// 50 us, pruned) for requests far back from the tail to exercise
        /// every step of the tail search.
        #[test]
        fn matches_the_front_to_back_scan(
            (teeth, pitch) in (0u64..512, 1u64..200),
            requests in proptest::prop::collection::vec(
                (
                    proptest::prelude::any::<bool>(),
                    0u8..12,
                    0u8..5,
                    proptest::prelude::any::<u64>(),
                ),
                1..400,
            ),
        ) {
            let mut r = Resource::new("r");
            let mut m = ScanModel::default();
            for t in 0..teeth {
                let (now, dur) = (Ps::from_ns(pitch * t), Ps::from_ps(pitch * 500));
                same_step(&mut r, &mut m, &format!("tooth {t}"), false, now, dur)?;
            }
            for (i, &(split, at, class, bits)) in requests.iter().enumerate() {
                let now = m.request_time(at, bits);
                let dur = duration(&m, now, class, bits.rotate_left(17));
                same_step(&mut r, &mut m, &format!("call {i}"), split, now, dur)?;
            }
        }
    }
}
