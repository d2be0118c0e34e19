//! Run fingerprints and the failure count of a benchmark run.
//!
//! A fingerprint is everything a run computes that must not change when
//! only the simulator's speed changes: simulated elapsed time, completion
//! status, the full `StatSet`, and the size of the generated trace. Two
//! fingerprints are compared through their canonical text, so every
//! floating-point statistic must match bit for bit.

use dl_engine::stats::StatSet;
use dl_engine::{Ps, RunStatus};
use std::fmt::Write as _;

/// The deterministic outcome of one workload iteration.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Simulated end-to-end time.
    pub elapsed: Ps,
    /// Whether every phase ran to completion.
    pub status: RunStatus,
    /// Trace operations of the generated workload (`Workload::total_ops`).
    pub trace_ops: u64,
    /// Memory operations of the generated workload.
    pub mem_ops: u64,
    /// Every counter the run exported.
    pub stats: StatSet,
}

impl Fingerprint {
    /// Canonical text: one `key value` line per field, statistics in name
    /// order, floats in their shortest round-trip form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "elapsed_ps {}", self.elapsed.as_ps());
        let _ = writeln!(out, "status {:?}", self.status);
        let _ = writeln!(out, "workloads.trace_ops {}", self.trace_ops);
        let _ = writeln!(out, "workloads.mem_ops {}", self.mem_ops);
        for (name, value) in self.stats.iter() {
            let _ = writeln!(out, "stat {name} {value:?}");
        }
        out
    }

    /// A statistic of the run, zero when the run's model does not export it.
    pub fn stat(&self, name: &str) -> f64 {
        self.stats.get(name).unwrap_or(0.0)
    }
}

/// The first line where two canonical texts differ, for error messages.
pub fn first_difference(expected: &str, got: &str) -> Option<String> {
    let mut want = expected.lines();
    let mut have = got.lines();
    loop {
        match (want.next(), have.next()) {
            (None, None) => return None,
            (w, h) if w == h => continue,
            (w, h) => {
                return Some(format!(
                    "expected `{}`, got `{}`",
                    w.unwrap_or("<end>"),
                    h.unwrap_or("<end>")
                ))
            }
        }
    }
}

/// Counts attempted and failed operations against a reference fingerprint.
///
/// The reference is the recorded golden fingerprint when one exists for
/// the run's workload, seed and scale; otherwise the first completed
/// operation becomes the reference and every later one must repeat it.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that panicked, did not complete, or did not match.
    pub failed: u64,
    /// One line per failure, in order.
    pub failures: Vec<String>,
    reference: Option<String>,
    golden: bool,
}

impl Tally {
    /// A tally checking against `golden` when given.
    pub fn new(golden: Option<String>) -> Self {
        Tally {
            golden: golden.is_some(),
            reference: golden,
            ..Tally::default()
        }
    }

    /// Whether operations are checked against a recorded golden fingerprint.
    pub fn has_golden(&self) -> bool {
        self.golden
    }

    /// The reference text, once there is one.
    pub fn reference(&self) -> Option<&str> {
        self.reference.as_deref()
    }

    /// Records one operation: its fingerprint, or the reason it produced
    /// none (a panic). Returns whether it passed.
    pub fn record(&mut self, label: &str, outcome: Result<&Fingerprint, String>) -> bool {
        self.attempted += 1;
        let problem = match outcome {
            Err(reason) => Some(reason),
            Ok(fp) if fp.status != RunStatus::Completed => {
                Some(format!("run did not complete: {}", fp.status))
            }
            Ok(fp) => {
                let text = fp.to_text();
                match &self.reference {
                    None => {
                        self.reference = Some(text);
                        None
                    }
                    Some(want) => first_difference(want, &text).map(|d| {
                        let against = if self.golden { "golden" } else { "first run" };
                        format!("fingerprint differs from the {against}: {d}")
                    }),
                }
            }
        };
        match problem {
            None => true,
            Some(p) => {
                self.failed += 1;
                self.failures.push(format!("{label}: {p}"));
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_engine::BudgetKind;

    fn fp(elapsed_ns: u64, reads: f64) -> Fingerprint {
        let mut stats = StatSet::new();
        stats.set("dram.reads", reads);
        stats.set("cache.l1_hit_rate_mean", 0.1 + 0.2);
        Fingerprint {
            elapsed: Ps::from_ns(elapsed_ns),
            status: RunStatus::Completed,
            trace_ops: 10,
            mem_ops: 4,
            stats,
        }
    }

    #[test]
    fn text_is_canonical_and_exact() {
        let a = fp(5, 3.0);
        assert_eq!(
            a.to_text(),
            "elapsed_ps 5000\nstatus Completed\nworkloads.trace_ops 10\n\
             workloads.mem_ops 4\nstat cache.l1_hit_rate_mean 0.30000000000000004\n\
             stat dram.reads 3.0\n"
        );
        assert_eq!(a.stat("dram.reads"), 3.0);
        assert_eq!(a.stat("host.polls"), 0.0);
    }

    #[test]
    fn first_difference_names_the_line() {
        let a = fp(5, 3.0).to_text();
        let b = fp(5, 4.0).to_text();
        assert_eq!(first_difference(&a, &a), None);
        let d = first_difference(&a, &b).expect("differ");
        assert!(d.contains("stat dram.reads 3.0") && d.contains("stat dram.reads 4.0"));
        let d = first_difference(&a, "").expect("truncated");
        assert!(d.contains("<end>"), "{d}");
    }

    #[test]
    fn without_golden_the_first_run_is_the_reference() {
        let mut t = Tally::new(None);
        assert!(t.record("1", Ok(&fp(5, 3.0))));
        assert!(t.record("2", Ok(&fp(5, 3.0))));
        assert!(!t.record("3", Ok(&fp(6, 3.0))));
        assert_eq!((t.attempted, t.failed), (3, 1));
        assert!(t.failures[0].starts_with("3: fingerprint differs from the first run"));
    }

    #[test]
    fn golden_mismatch_counts_every_operation() {
        let mut t = Tally::new(Some(fp(5, 3.0).to_text()));
        assert!(t.has_golden());
        assert!(!t.record("1", Ok(&fp(5, 4.0))));
        assert!(!t.record("2", Ok(&fp(5, 4.0))));
        assert!(t.record("3", Ok(&fp(5, 3.0))));
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert!(t.failures[0].contains("golden"));
    }

    #[test]
    fn panics_and_incomplete_runs_fail() {
        let mut t = Tally::new(None);
        assert!(!t.record("1", Err("panicked: boom".into())));
        let mut cut = fp(5, 3.0);
        cut.status = RunStatus::BudgetExceeded(BudgetKind::Events);
        assert!(!t.record("2", Ok(&cut)));
        // Neither failure became the reference.
        assert_eq!(t.reference(), None);
        assert!(t.record("3", Ok(&fp(5, 3.0))));
        assert_eq!((t.attempted, t.failed), (3, 2));
    }
}
