//! Host-time measurement: a stopwatch and the span recorder of traced runs.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! simulator's public API; nothing inside the simulator is instrumented.
//! This module is the only place that reads the host clock.

// dl-analyze: allow(wall-clock) — the benchmark measures host time
use std::time::Instant;

/// Seconds elapsed since a starting instant.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    // dl-analyze: allow(wall-clock) — the benchmark measures host time
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            // dl-analyze: allow(wall-clock) — the benchmark measures host time
            start: Instant::now(),
        }
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// One timed call: name, start and end in seconds since the tracer's
/// origin, and the index of the span that was open when it began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Start, seconds since the tracer was created.
    pub start: f64,
    /// End, seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Times calls and, when enabled, keeps one [`Span`] per call in memory
/// until the run ends. A disabled tracer only times.
#[derive(Debug)]
pub struct Tracer {
    clock: Stopwatch,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            clock: Stopwatch::start(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, returning its result and its duration in seconds. When
    /// enabled, records a span named `name` whose parent is the innermost
    /// span open at the call.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start = self.clock.secs();
        if !self.enabled {
            let out = f(self);
            return (out, self.clock.secs() - start);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.clock.secs();
        self.spans[idx].end = end;
        (out, end - start)
    }

    /// Forgets the spans a panicking call left open, so that later spans
    /// get the right parent. The abandoned spans keep a zero duration.
    pub fn recover(&mut self) {
        self.open.clear();
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `idx`: its duration minus the time its direct
    /// children cover.
    pub fn self_secs(&self, idx: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::secs)
            .sum();
        self.spans[idx].secs() - children
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        let (v, outer) = t.time("outer", |t| {
            let (a, _) = t.time("a", |_| 1);
            let (b, _) = t.time("b", |t| t.time("b.inner", |_| 2).0);
            a + b
        });
        assert_eq!(v, 3);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("outer", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("b.inner", Some(2))
            ]
        );
        assert!((t.spans()[0].secs() - outer).abs() < 1e-12);
        let covered = t.spans()[1].secs() + t.spans()[2].secs();
        assert!((t.self_secs(0) - (outer - covered)).abs() < 1e-12);
        assert!(t.spans().iter().all(|s| s.end >= s.start));
    }

    #[test]
    fn disabled_tracer_times_without_recording() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("x", |t| t.time("y", |_| 7).0);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
