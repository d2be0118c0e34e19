//! Host-speed calibration for the end-to-end times.
//!
//! The benchmark shares its host with other tenants, and their load changes
//! how fast the same code runs: on the reference host, 30-second medians of
//! one workload ranged over 1.3–2.3 s within half an hour, far more than the
//! regressions the bounds are meant to catch. The process keeps its CPU the
//! whole time (its CPU time tracks its wall time); what changes is how fast
//! that CPU executes. So every end-to-end time is divided by the host's
//! speed factor at that moment: the time of two fixed kernels, measured
//! right before and right after each iteration, relative to their median
//! time on the reference host. The kernels share no code with the
//! simulator, so a change to the simulator moves the workload's times and
//! never the factor.
//!
//! The two kernels stand for the two ways the simulator uses the host: a
//! sort (branchy comparisons over a few MiB, like the cores walking their
//! traces) and a priority queue under the hold model (like the event
//! loop). Over 36 runs of 30 seconds on the reference host, twelve per
//! workload, dividing by this factor cut the run-to-run coefficient of
//! variation of `wall_s` from 0.121, 0.077 and 0.114 (`idc_pr`, `host_pr`,
//! `local_km`) to 0.077, 0.049 and 0.038. A linear scan of an interval list
//! and a pointer chase were tried as kernels too and tracked the host worse.

use crate::span::Stopwatch;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

/// Keys sorted by the first kernel.
const SORT_LEN: u64 = 1 << 19;
/// Entries pending in the second kernel's queue, and pop-plus-push steps.
const HEAP_DEPTH: u64 = 64;
const HEAP_STEPS: u32 = 300_000;
/// Median kernel times on the reference host (a 2-core x86-64 container),
/// seconds.
const SORT_REF_S: f64 = 0.0149;
const HEAP_REF_S: f64 = 0.0186;

/// Times of one calibration, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// The sort kernel.
    pub sort_s: f64,
    /// The priority-queue kernel.
    pub heap_s: f64,
}

/// The `i`-th of a fixed sequence of well-mixed 64-bit values.
fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Calibration {
    /// Runs both kernels once.
    pub fn measure() -> Self {
        // Both kernels build their data before the clock starts, so the
        // allocator state the simulator leaves behind never enters a time.
        let keys: Vec<u64> = (0..SORT_LEN).map(mix).collect();
        let mut keys = black_box(keys);
        let clock = Stopwatch::start();
        keys.sort_unstable();
        black_box(&keys);
        let sort_s = clock.secs();
        drop(keys);

        let queue: BinaryHeap<Reverse<(u64, u64)>> = (0..HEAP_DEPTH)
            .map(|i| Reverse((mix(i) >> 40, i)))
            .collect();
        let mut queue = black_box(queue);
        let clock = Stopwatch::start();
        // Each popped entry comes back a pseudo-random 0..4096 ahead.
        let mut lcg = 1u64;
        for _ in 0..HEAP_STEPS {
            let Reverse((at, id)) = queue.pop().unwrap_or(Reverse((0, 0)));
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            queue.push(Reverse((at + (lcg >> 52), black_box(id))));
        }
        black_box(&queue);
        Calibration {
            sort_s,
            heap_s: clock.secs(),
        }
    }

    /// How much slower than the reference host this host ran the kernels.
    pub fn factor(&self) -> f64 {
        ((self.sort_s / SORT_REF_S) * (self.heap_s / HEAP_REF_S)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_measures_both_kernels() {
        let c = Calibration::measure();
        assert!(c.sort_s > 0.0 && c.heap_s > 0.0);
        let f = c.factor();
        assert!(f > 0.0 && f.is_finite());
        let twice = Calibration {
            sort_s: 2.0 * c.sort_s,
            heap_s: 2.0 * c.heap_s,
        };
        assert!((twice.factor() / f - 2.0).abs() < 1e-9);
    }
}
