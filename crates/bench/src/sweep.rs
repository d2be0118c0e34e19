//! Work-stealing sweep runner shared by every figure/table binary.
//!
//! Each paper figure is a sweep over independent `(workload, SystemConfig)`
//! points. This module runs those points across `min(points, threads)`
//! workers (plain `std::thread` + channels; the workspace builds offline
//! with no extra dependencies) while keeping the output **bit-identical
//! regardless of thread count**:
//!
//! * every point is fully described by its [`Job`] — seeds come from the
//!   point itself, never from worker identity;
//! * results are collected back in **submission order**, so the record
//!   stream, the derived tables, and the JSON-lines artifact do not depend
//!   on scheduling;
//! * wall-clock timing is kept out of the serialized records
//!   (`#[serde(skip)]`), so `target/sweeps/<name>.jsonl` can be `diff`ed
//!   across machines and thread counts.
//!
//! # Crash safety
//!
//! Long sweeps survive kills, OOMs, and individual bad points:
//!
//! * every finished point is appended **immediately** to a journal
//!   (`<out>/<name>.journal.jsonl`, one fsync'd line per point keyed by a
//!   content hash of the point's label, config, and job parameters);
//! * with [`SweepOptions::resume`], journaled points are loaded instead of
//!   re-simulated, and the final artifact is still emitted in submission
//!   order — byte-identical to an uninterrupted run at any thread count;
//! * the artifact itself is written to `<name>.jsonl.tmp` and atomically
//!   renamed, so a killed process never leaves a truncated artifact;
//! * a panicking point is journaled as `failed`, the remaining points run
//!   to completion, and the artifact of successful points is still
//!   written; the sweep then reports the first failure;
//! * an optional wall-clock watchdog ([`SweepOptions::point_budget`])
//!   journals a hung point as `timed_out` and moves on. Wall-clock time is
//!   inherently nondeterministic, which is why this budget lives here in
//!   `crates/bench` (the only crate the `wall-clock` lint allows to read
//!   host time); *deterministic* per-point budgets are the engine's
//!   event/sim-time [`dl_engine::RunBudget`], applied with
//!   [`Sweep::apply_budget`].
//!
//! Thread count resolution: explicit option > `DL_THREADS` env var >
//! `std::thread::available_parallelism()`.
//!
//! ```no_run
//! use dl_bench::sweep::Sweep;
//! use dimm_link::config::{IdcKind, SystemConfig};
//! use dl_workloads::{WorkloadKind, WorkloadParams};
//!
//! let mut sweep = Sweep::new("example");
//! let cfg = SystemConfig::nmp(4, 2).with_idc(IdcKind::DimmLink);
//! let params = WorkloadParams { scale: 8, ..WorkloadParams::small(4) };
//! let i = sweep.simulate("km 4D-2C", WorkloadKind::KMeans, params, cfg);
//! let out = sweep.run().unwrap();
//! println!("elapsed: {} ps", out.records[i].elapsed_ps);
//! ```

use dimm_link::config::SystemConfig;
use dimm_link::runner::{host_baseline, simulate, simulate_optimized, RunResult};
use dimm_link::EnergyBreakdown;
use dl_engine::stats::StatSet;
use dl_engine::{Ps, RunBudget, RunStatus};
use dl_workloads::{WorkloadKind, WorkloadParams};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// What one sweep point executes. Everything a job needs (notably the
/// seed) lives in the job itself so any worker produces the same result.
pub enum Job {
    /// `runner::simulate` / `runner::simulate_optimized` on an NMP system.
    Simulate {
        /// Workload selector; the workload is built inside the worker.
        kind: WorkloadKind,
        /// Workload parameters (carry the seed and scale).
        params: WorkloadParams,
        /// System under test (boxed: `SystemConfig` dwarfs the other
        /// variants).
        cfg: Box<SystemConfig>,
        /// Apply Algorithm 1 (profile + min-cost max-flow placement).
        optimized: bool,
    },
    /// The fixed 16-core host baseline.
    HostBaseline {
        /// Workload selector.
        kind: WorkloadKind,
        /// Problem scale.
        scale: u32,
        /// Input seed.
        seed: u64,
    },
    /// Anything else (raw `NmpSystem` runs, IDC microbenchmarks, model
    /// cross-checks). The closure must be deterministic to keep the sweep
    /// artifact thread-count-independent.
    Custom(Box<dyn Fn() -> RunResult + Send + Sync>),
}

/// A labelled unit of work in a sweep.
pub struct SweepPoint {
    /// Row label, e.g. `"pr / 16D-8C / DIMM-Link"`.
    pub label: String,
    /// Human-readable configuration summary stored in the record.
    pub config: String,
    /// The work itself.
    pub job: Job,
}

/// One finished sweep point, as serialized to the JSON-lines artifact.
///
/// `wall_clock_ms` is measurement noise, not simulation output, so it is
/// excluded from serialization — the artifact stays byte-identical across
/// thread counts and machines, and a record loaded back from the journal
/// re-serializes to exactly the bytes that were written.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Point label (submission order is preserved).
    pub label: String,
    /// Configuration summary.
    pub config: String,
    /// End-to-end simulated time in picoseconds.
    pub elapsed_ps: u64,
    /// Simulated time spent in the profiling phase (zero unless optimized).
    pub profiling_ps: u64,
    /// All raw counters of the run.
    pub stats: StatSet,
    /// Energy split by component.
    pub energy: EnergyBreakdown,
    /// Whether the run completed or a deterministic [`RunBudget`] cut it
    /// short.
    pub status: RunStatus,
    /// Host wall-clock time spent simulating this point.
    #[serde(skip)]
    pub wall_clock_ms: f64,
}

impl RunRecord {
    /// Simulated elapsed time as a typed duration.
    pub fn elapsed(&self) -> Ps {
        Ps::from_ps(self.elapsed_ps)
    }

    /// Simulated elapsed time in picoseconds as `f64` (ratio math).
    pub fn elapsed_f64(&self) -> f64 {
        self.elapsed_ps as f64
    }

    /// Profiling-phase time as a typed duration.
    pub fn profiling(&self) -> Ps {
        Ps::from_ps(self.profiling_ps)
    }

    /// Fraction of core time stalled on non-overlapped IDC.
    pub fn idc_stall_frac(&self) -> f64 {
        self.stats.get("idc_stall_frac").unwrap_or(0.0)
    }

    /// Mean memory-channel occupancy.
    pub fn bus_occupancy(&self) -> f64 {
        self.stats.get("host.bus_occupancy").unwrap_or(0.0)
    }

    /// Traffic fractions `(local, link, host-forwarded, bus)` by bytes.
    pub fn traffic_breakdown(&self) -> (f64, f64, f64, f64) {
        let g = |k: &str| self.stats.get(k).unwrap_or(0.0);
        let local = g("traffic.local_bytes");
        let link = g("traffic.link_bytes");
        let fwd = g("traffic.fwd_bytes");
        let bus = g("traffic.bus_bytes");
        let total = local + link + fwd + bus;
        if total == 0.0 {
            (0.0, 0.0, 0.0, 0.0)
        } else {
            (local / total, link / total, fwd / total, bus / total)
        }
    }
}

/// How one sweep point ended, as journaled. `Done` entries are reused by
/// `--resume`; `Failed` and `TimedOut` entries are re-run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PointOutcome {
    /// The point finished and produced a record.
    Done(RunRecord),
    /// The point panicked.
    Failed {
        /// Panic payload text.
        message: String,
    },
    /// The wall-clock watchdog gave up on the point.
    TimedOut {
        /// The watchdog budget that expired, in milliseconds.
        budget_ms: u64,
    },
}

/// One line of the crash-safety journal.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct JournalLine {
    /// Content hash of the point (label + config + job parameters).
    key: String,
    /// What happened to it.
    outcome: PointOutcome,
}

/// A sweep point failed (its job panicked, timed out, or never ran).
#[derive(Debug, Clone)]
pub struct SweepError {
    /// Label of the first failing point in submission order.
    pub label: String,
    /// Panic payload or error text.
    pub message: String,
    /// Points that completed and were journaled despite the failure.
    pub completed: usize,
    /// Points that failed, timed out, or never ran.
    pub failed: usize,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep point '{}' failed: {}", self.label, self.message)?;
        if self.completed > 0 || self.failed > 1 {
            write!(
                f,
                " [{} completed and journaled, {} failed]",
                self.completed, self.failed
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for SweepError {}

/// Execution knobs, usually filled from [`crate::Args`].
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; `None` falls back to `DL_THREADS`, then to
    /// `available_parallelism()`.
    pub threads: Option<usize>,
    /// Artifact directory; `None` means `target/sweeps`.
    pub out_dir: Option<PathBuf>,
    /// Suppress the summary line and skip writing the artifact and journal
    /// (tests).
    pub quiet: bool,
    /// Load previously journaled points instead of re-simulating them.
    pub resume: bool,
    /// Wall-clock watchdog per point: a point still running after this
    /// long is journaled as `timed_out` and the sweep moves on (its worker
    /// thread is left behind — safe Rust cannot kill it). `None` disables
    /// the watchdog. Nondeterministic by nature; prefer
    /// [`Sweep::apply_budget`] for reproducible cut-offs.
    pub point_budget: Option<Duration>,
    /// Test hook simulating a killed process: dispatch only this many
    /// not-yet-journaled points, journal them, then bail out with an error
    /// before writing the artifact.
    pub halt_after: Option<usize>,
}

/// Resolves the worker-thread count: explicit request, else `DL_THREADS`,
/// else `available_parallelism()` (at least 1).
///
/// # Errors
/// Rejects an explicit zero and an unparsable or zero `DL_THREADS` (these
/// were previously ignored silently, masking typos like `DL_THREADS=abc`).
pub fn resolve_threads(requested: Option<usize>) -> Result<usize, String> {
    resolve_threads_with_env(requested, std::env::var("DL_THREADS").ok().as_deref())
}

/// [`resolve_threads`] with the environment value passed explicitly
/// (testable without racy `set_var` calls).
pub fn resolve_threads_with_env(
    requested: Option<usize>,
    env: Option<&str>,
) -> Result<usize, String> {
    if let Some(n) = requested {
        if n == 0 {
            return Err("thread count must be at least 1".into());
        }
        return Ok(n);
    }
    if let Some(v) = env {
        return match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!(
                "DL_THREADS='{v}' is not a positive integer (unset it or use DL_THREADS=4)"
            )),
        };
    }
    Ok(std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1))
}

/// A declarative list of sweep points; build it up, then [`Sweep::run`].
pub struct Sweep {
    name: String,
    points: Vec<SweepPoint>,
}

/// What [`Sweep::run`] returns: records in submission order plus timing.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One record per submitted point, in submission order.
    pub records: Vec<RunRecord>,
    /// Worker threads actually used.
    pub threads: usize,
    /// Points loaded from the journal instead of simulated (`--resume`).
    pub resumed: usize,
    /// Wall-clock time of the whole sweep.
    pub wall_ms: f64,
    /// Sum of per-point wall times (what a serial run would have cost).
    pub serial_estimate_ms: f64,
    /// Where the JSON-lines artifact was written, if it was.
    pub path: Option<PathBuf>,
}

impl Sweep {
    /// Creates an empty sweep named `name` (also the artifact file stem).
    pub fn new(name: impl Into<String>) -> Self {
        Sweep {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Number of submitted points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points have been submitted.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Submits a fully-formed point; returns its submission index.
    pub fn push(&mut self, point: SweepPoint) -> usize {
        self.points.push(point);
        self.points.len() - 1
    }

    /// Submits a plain `simulate` point; returns its submission index.
    pub fn simulate(
        &mut self,
        label: impl Into<String>,
        kind: WorkloadKind,
        params: WorkloadParams,
        cfg: SystemConfig,
    ) -> usize {
        self.sim_point(label.into(), kind, params, cfg, false)
    }

    /// Submits a `simulate_optimized` (Algorithm 1) point.
    pub fn simulate_optimized(
        &mut self,
        label: impl Into<String>,
        kind: WorkloadKind,
        params: WorkloadParams,
        cfg: SystemConfig,
    ) -> usize {
        self.sim_point(label.into(), kind, params, cfg, true)
    }

    fn sim_point(
        &mut self,
        label: String,
        kind: WorkloadKind,
        params: WorkloadParams,
        cfg: SystemConfig,
        optimized: bool,
    ) -> usize {
        let config = format!(
            "{}D-{}C {}{}",
            cfg.dimms,
            cfg.channels,
            cfg.idc,
            if optimized { " opt" } else { "" }
        );
        self.push(SweepPoint {
            label,
            config,
            job: Job::Simulate {
                kind,
                params,
                cfg: Box::new(cfg),
                optimized,
            },
        })
    }

    /// Submits a host-baseline point.
    pub fn host(
        &mut self,
        label: impl Into<String>,
        kind: WorkloadKind,
        scale: u32,
        seed: u64,
    ) -> usize {
        self.push(SweepPoint {
            label: label.into(),
            config: "host-16core".into(),
            job: Job::HostBaseline { kind, scale, seed },
        })
    }

    /// Submits an arbitrary deterministic closure as a point.
    pub fn custom(
        &mut self,
        label: impl Into<String>,
        config: impl Into<String>,
        f: impl Fn() -> RunResult + Send + Sync + 'static,
    ) -> usize {
        self.push(SweepPoint {
            label: label.into(),
            config: config.into(),
            job: Job::Custom(Box::new(f)),
        })
    }

    /// Applies a deterministic engine budget to every `Simulate` point.
    ///
    /// Host baselines and custom closures are not engine event loops, so
    /// they are unaffected; the wall-clock watchdog
    /// ([`SweepOptions::point_budget`]) still covers them. The budget is
    /// part of each point's journal key: budgeted and unbudgeted runs of
    /// the same sweep never reuse each other's journal entries.
    pub fn apply_budget(&mut self, budget: RunBudget) {
        if budget.is_unlimited() {
            return;
        }
        for p in &mut self.points {
            if let Job::Simulate { cfg, .. } = &mut p.job {
                cfg.budget = budget;
            }
        }
    }

    /// Runs with defaults (env-resolved threads, `target/sweeps`).
    ///
    /// # Errors
    /// See [`Sweep::run_with`].
    pub fn run(self) -> Result<SweepOutcome, SweepError> {
        self.run_with(&SweepOptions::default())
    }

    /// Runs every point across `min(points, threads)` workers, collecting
    /// records in submission order, journaling each finished point,
    /// writing the JSON-lines artifact atomically, and printing the
    /// per-sweep summary.
    ///
    /// Every point runs even if some fail: failures are journaled, the
    /// artifact of successful records is still written, and only then is
    /// the first failure (in submission order) reported.
    ///
    /// # Errors
    /// Returns the first (in submission order) point that panicked or
    /// timed out; `SweepError::completed` counts the work that was
    /// preserved. On `Ok`, `records` holds every point.
    pub fn run_with(self, opts: &SweepOptions) -> Result<SweepOutcome, SweepError> {
        let Sweep { name, points } = self;
        let total = points.len();
        let started = Instant::now();
        let artifacts = !opts.quiet;
        let out_dir = opts
            .out_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("target/sweeps"));

        // Content keys double as journal keys. Labels are kept aside for
        // error reporting (the points themselves move into the workers).
        let keys: Vec<String> = points.iter().map(point_key).collect();
        let labels: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
        let mut slots: Vec<Option<PointOutcome>> = (0..total).map(|_| None).collect();

        // Resume: prefill slots from the journal; only `Done` outcomes are
        // reused (failed/timed-out points get another chance).
        let journal_path = out_dir.join(format!("{name}.journal.jsonl"));
        let mut resumed = 0usize;
        if artifacts && opts.resume {
            let prior = load_journal(&journal_path);
            for (i, key) in keys.iter().enumerate() {
                if let Some(PointOutcome::Done(rec)) = prior.get(key) {
                    slots[i] = Some(PointOutcome::Done(rec.clone()));
                    resumed += 1;
                }
            }
        }
        let mut journal = if artifacts {
            let _ = std::fs::create_dir_all(&out_dir);
            Journal::open(&journal_path, opts.resume)
        } else {
            None
        };

        // Points still to run, in submission order.
        let mut pending: Vec<usize> = (0..total).filter(|&i| slots[i].is_none()).collect();
        if let Some(k) = opts.halt_after {
            pending.truncate(k);
        }

        let threads = resolve_threads(opts.threads)
            .map_err(|message| SweepError {
                label: "<sweep options>".into(),
                message,
                completed: 0,
                failed: total,
            })?
            .min(pending.len())
            .max(1);

        let (tx, rx) = mpsc::channel::<Msg>();
        let ctx = WorkerCtx {
            points: Arc::new(points),
            pending: Arc::new(pending.clone()),
            next: Arc::new(AtomicUsize::new(0)),
            tx,
        };
        for _ in 0..threads {
            spawn_worker(ctx.clone());
        }
        // Keep a sender only if the watchdog may need replacement workers;
        // otherwise let the channel disconnect when the workers finish.
        let replacer = opts.point_budget.map(|_| ctx.clone());
        drop(ctx);

        let mut wall: Vec<f64> = vec![0.0; total];
        let mut inflight: BTreeMap<usize, Instant> = BTreeMap::new();
        let mut abandoned: BTreeSet<usize> = BTreeSet::new();
        let mut unresolved = pending.len();
        while unresolved > 0 {
            let earliest = opts
                .point_budget
                .and_then(|b| inflight.values().map(|&t0| t0 + b).min());
            let msg = match earliest {
                Some(deadline) => {
                    let wait = deadline.saturating_duration_since(Instant::now());
                    match rx.recv_timeout(wait) {
                        Ok(m) => Some(m),
                        Err(mpsc::RecvTimeoutError::Timeout) => None,
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                }
                None => match rx.recv() {
                    Ok(m) => Some(m),
                    Err(_) => break,
                },
            };
            match msg {
                Some(Msg::Started { slot }) => {
                    inflight.insert(slot, Instant::now());
                }
                Some(Msg::Finished {
                    slot,
                    result,
                    wall_ms,
                }) => {
                    if abandoned.contains(&slot) {
                        continue; // late finisher of a timed-out point
                    }
                    inflight.remove(&slot);
                    wall[slot] = wall_ms;
                    let outcome = match *result {
                        Ok(record) => PointOutcome::Done(record),
                        Err(message) => PointOutcome::Failed { message },
                    };
                    if let Some(j) = journal.as_mut() {
                        j.append(&keys[slot], &outcome);
                    }
                    slots[slot] = Some(outcome);
                    unresolved -= 1;
                }
                None => {
                    // Watchdog tick: give up on every point over budget.
                    let Some(budget) = opts.point_budget else {
                        continue;
                    };
                    let now = Instant::now();
                    let expired: Vec<usize> = inflight
                        .iter()
                        .filter(|&(_, &t0)| now.duration_since(t0) >= budget)
                        .map(|(&s, _)| s)
                        .collect();
                    for slot in expired {
                        inflight.remove(&slot);
                        abandoned.insert(slot);
                        let outcome = PointOutcome::TimedOut {
                            budget_ms: budget.as_millis() as u64,
                        };
                        if let Some(j) = journal.as_mut() {
                            j.append(&keys[slot], &outcome);
                        }
                        slots[slot] = Some(outcome);
                        unresolved -= 1;
                        // The stuck worker cannot be killed in safe Rust;
                        // restore parallelism with a fresh one.
                        if let Some(ctx) = &replacer {
                            spawn_worker(ctx.clone());
                        }
                    }
                }
            }
        }
        drop(rx);

        // Workers only exit without reporting on an abnormal break above.
        for &slot in &pending {
            if slots[slot].is_none() {
                slots[slot] = Some(PointOutcome::Failed {
                    message: "worker thread exited without reporting a result".into(),
                });
            }
        }

        if opts.halt_after.is_some() {
            // Simulated kill: journaled work stays, no artifact is written.
            let completed = slots
                .iter()
                .filter(|s| matches!(s, Some(PointOutcome::Done(_))))
                .count();
            return Err(SweepError {
                label: "<halted>".into(),
                message: format!("sweep halted by test hook after {} points", pending.len()),
                completed,
                failed: total - completed,
            });
        }

        let mut completed = 0usize;
        let mut failed = 0usize;
        let mut first_failure: Option<(usize, String)> = None;
        for (i, slot) in slots.iter().enumerate() {
            let problem = match slot {
                Some(PointOutcome::Done(_)) => {
                    completed += 1;
                    continue;
                }
                Some(PointOutcome::Failed { message }) => message.clone(),
                Some(PointOutcome::TimedOut { budget_ms }) => {
                    format!("timed out after {budget_ms} ms (wall-clock point budget)")
                }
                None => "never ran".into(),
            };
            failed += 1;
            if first_failure.is_none() {
                first_failure = Some((i, problem));
            }
        }

        let records: Vec<RunRecord> = slots
            .iter()
            .filter_map(|s| match s {
                Some(PointOutcome::Done(r)) => Some(r.clone()),
                _ => None,
            })
            .collect();

        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let serial_estimate_ms: f64 = wall.iter().sum();
        let path = if artifacts {
            write_jsonl(&out_dir, &name, &records)
        } else {
            None
        };
        if failed == 0 {
            // The journal is a checkpoint, not an archive: once the full
            // artifact exists it has nothing left to protect.
            drop(journal.take());
            if artifacts {
                let _ = std::fs::remove_file(&journal_path);
            }
        }

        let outcome = SweepOutcome {
            records,
            threads,
            resumed,
            wall_ms,
            serial_estimate_ms,
            path,
        };
        if !opts.quiet {
            eprintln!("{}", outcome.summary_line(&name));
        }
        match first_failure {
            Some((i, message)) => Err(SweepError {
                label: labels[i].clone(),
                message,
                completed,
                failed,
            }),
            None => Ok(outcome),
        }
    }
}

impl SweepOutcome {
    /// The one-line sweep summary: points, simulated time, wall time, and
    /// speedup over the serial estimate.
    pub fn summary_line(&self, name: &str) -> String {
        let sim: u64 = self.records.iter().map(|r| r.elapsed_ps).sum();
        let speedup = if self.wall_ms > 0.0 {
            self.serial_estimate_ms / self.wall_ms
        } else {
            1.0
        };
        let saved = match &self.path {
            Some(p) => format!(", saved {}", p.display()),
            None => String::new(),
        };
        let resumed = if self.resumed > 0 {
            format!(" ({} resumed)", self.resumed)
        } else {
            String::new()
        };
        format!(
            "[sweep {name}: {} points{resumed} on {} threads, sim {}, wall {:.0} ms, {:.1}x vs serial estimate{saved}]",
            self.records.len(),
            self.threads,
            Ps::from_ps(sim),
            self.wall_ms,
            speedup,
        )
    }
}

/// Message from a worker to the collector.
enum Msg {
    /// A worker began executing the point at this submission index.
    Started { slot: usize },
    /// A worker finished the point (boxed: records dwarf the other arm).
    Finished {
        slot: usize,
        result: Box<Result<RunRecord, String>>,
        wall_ms: f64,
    },
}

/// Everything a worker needs; cloned per worker (and per watchdog
/// replacement).
#[derive(Clone)]
struct WorkerCtx {
    points: Arc<Vec<SweepPoint>>,
    /// Submission indices still to run, claimed in order via `next`.
    pending: Arc<Vec<usize>>,
    next: Arc<AtomicUsize>,
    tx: mpsc::Sender<Msg>,
}

/// Spawns a detached worker. Detached on purpose: a worker stuck inside a
/// hung point cannot be joined; the collector times the point out and the
/// thread dies with the process.
fn spawn_worker(ctx: WorkerCtx) {
    std::thread::spawn(move || loop {
        let i = ctx.next.fetch_add(1, Ordering::Relaxed);
        let Some(&slot) = ctx.pending.get(i) else {
            break;
        };
        let point = &ctx.points[slot];
        if ctx.tx.send(Msg::Started { slot }).is_err() {
            break; // collector is gone
        }
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| execute(&point.job)));
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let result = match outcome {
            Ok(r) => Ok(RunRecord {
                label: point.label.clone(),
                config: point.config.clone(),
                elapsed_ps: r.elapsed.as_ps(),
                profiling_ps: r.profiling.as_ps(),
                stats: r.stats,
                energy: r.energy,
                status: r.status,
                wall_clock_ms: wall_ms,
            }),
            Err(payload) => Err(panic_text(payload.as_ref())),
        };
        if ctx
            .tx
            .send(Msg::Finished {
                slot,
                result: Box::new(result),
                wall_ms,
            })
            .is_err()
        {
            break;
        }
    });
}

fn execute(job: &Job) -> RunResult {
    match job {
        Job::Simulate {
            kind,
            params,
            cfg,
            optimized,
        } => {
            let wl = kind.build(params);
            if *optimized {
                simulate_optimized(&wl, cfg)
            } else {
                simulate(&wl, cfg)
            }
        }
        Job::HostBaseline { kind, scale, seed } => {
            let host = host_baseline(*kind, *scale, *seed);
            RunResult {
                elapsed: host.elapsed,
                profiling: Ps::ZERO,
                stats: host.stats,
                energy: EnergyBreakdown::default(),
                status: RunStatus::Completed,
            }
        }
        Job::Custom(f) => f(),
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".into()
    }
}

// ----------------------------------------------------------------------
// Journal
// ----------------------------------------------------------------------

/// 64-bit FNV-1a over length-delimited parts (so `("ab","c")` and
/// `("a","bc")` hash differently).
fn fnv1a64(parts: &[&[u8]]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        for b in (part.len() as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// Content hash identifying a sweep point across process restarts: label,
/// config summary, and the full job parameters (for `Simulate`, the
/// serialized workload parameters and `SystemConfig` — including any
/// engine budget). A `Custom` closure cannot be fingerprinted, so its
/// label and config must identify it (true for every figure binary).
fn point_key(p: &SweepPoint) -> String {
    let fingerprint = match &p.job {
        Job::Simulate {
            kind,
            params,
            cfg,
            optimized,
        } => format!(
            "sim:{kind}:{optimized}:{}:{}",
            serde_json::to_string(params).unwrap_or_default(),
            serde_json::to_string(cfg.as_ref()).unwrap_or_default(),
        ),
        Job::HostBaseline { kind, scale, seed } => format!("host:{kind}:{scale}:{seed}"),
        Job::Custom(_) => "custom".to_string(),
    };
    format!(
        "{:016x}",
        fnv1a64(&[
            p.label.as_bytes(),
            p.config.as_bytes(),
            fingerprint.as_bytes(),
        ])
    )
}

/// Append-only fsync'd journal of finished points.
struct Journal {
    file: std::fs::File,
}

impl Journal {
    /// Opens the journal: appending when resuming, truncating otherwise
    /// (a fresh run must not inherit stale entries). Returns `None` when
    /// the file cannot be opened — the sweep still runs, just unjournaled.
    fn open(path: &Path, resume: bool) -> Option<Journal> {
        let mut o = std::fs::OpenOptions::new();
        o.create(true);
        if resume {
            o.append(true);
        } else {
            o.write(true).truncate(true);
        }
        o.open(path).map(|file| Journal { file }).ok()
    }

    /// Appends one fsync'd line: a kill at any instant loses at most the
    /// line being written, which [`load_journal`] tolerates.
    fn append(&mut self, key: &str, outcome: &PointOutcome) {
        let line = JournalLine {
            key: key.to_string(),
            outcome: outcome.clone(),
        };
        if let Ok(text) = serde_json::to_string(&line) {
            let _ = writeln!(self.file, "{text}");
            let _ = self.file.sync_data();
        }
    }
}

/// Loads the journal into a key → outcome map. Later entries win (a
/// resumed run re-running a previously failed point appends the new
/// outcome after the old one); unparsable lines — typically one truncated
/// trailing line from a killed process — are skipped.
fn load_journal(path: &Path) -> BTreeMap<String, PointOutcome> {
    let mut map = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return map;
    };
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        if let Ok(entry) = serde_json::from_str::<JournalLine>(line) {
            map.insert(entry.key, entry.outcome);
        }
    }
    map
}

/// Writes the artifact to `<name>.jsonl.tmp`, fsyncs, then atomically
/// renames to `<name>.jsonl`: readers only ever see a complete file.
fn write_jsonl(dir: &Path, name: &str, records: &[RunRecord]) -> Option<PathBuf> {
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("{name}.jsonl"));
    let tmp = dir.join(format!("{name}.jsonl.tmp"));
    {
        let mut f = std::fs::File::create(&tmp).ok()?;
        for record in records {
            let line = serde_json::to_string(record).ok()?;
            writeln!(f, "{line}").ok()?;
        }
        f.sync_data().ok()?;
    }
    std::fs::rename(&tmp, &path).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimm_link::config::IdcKind;

    fn custom_result(ps: u64) -> RunResult {
        let mut stats = StatSet::new();
        stats.set("point.value", ps as f64);
        RunResult {
            elapsed: Ps::from_ps(ps),
            profiling: Ps::ZERO,
            stats,
            energy: EnergyBreakdown::default(),
            status: RunStatus::Completed,
        }
    }

    fn quiet() -> SweepOptions {
        SweepOptions {
            quiet: true,
            ..SweepOptions::default()
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dl-sweep-{tag}-{}", std::process::id()))
    }

    #[test]
    fn submission_order_survives_contention() {
        // Early points sleep longest, so with several workers the completion
        // order inverts the submission order; the records must not.
        let mut sweep = Sweep::new("order");
        for i in 0..12u64 {
            sweep.custom(format!("p{i}"), "test", move || {
                std::thread::sleep(std::time::Duration::from_millis(12 - i));
                custom_result(i)
            });
        }
        let out = sweep
            .run_with(&SweepOptions {
                threads: Some(4),
                ..quiet()
            })
            .unwrap();
        assert_eq!(out.threads, 4);
        for (i, r) in out.records.iter().enumerate() {
            assert_eq!(r.label, format!("p{i}"));
            assert_eq!(r.elapsed_ps, i as u64);
        }
    }

    fn small_sweep(name: &str) -> Sweep {
        let mut sweep = Sweep::new(name);
        for (i, kind) in [
            WorkloadKind::KMeans,
            WorkloadKind::Hotspot,
            WorkloadKind::Bfs,
        ]
        .into_iter()
        .enumerate()
        {
            let params = WorkloadParams {
                scale: 7,
                seed: 42 + i as u64,
                ..WorkloadParams::small(4)
            };
            let cfg = SystemConfig::nmp(4, 2).with_idc(IdcKind::DimmLink);
            sweep.simulate(kind.to_string(), kind, params, cfg);
        }
        sweep.host("host km", WorkloadKind::KMeans, 7, 42);
        sweep
    }

    #[test]
    fn identical_artifact_for_1_and_n_threads() {
        let dir = temp_dir("det");
        let run = |threads: usize, sub: &str| {
            let out = small_sweep("det")
                .run_with(&SweepOptions {
                    threads: Some(threads),
                    out_dir: Some(dir.join(sub)),
                    quiet: false,
                    ..SweepOptions::default()
                })
                .unwrap();
            std::fs::read(out.path.expect("artifact written")).unwrap()
        };
        let serial = run(1, "t1");
        let parallel = run(4, "t4");
        assert!(!serial.is_empty());
        assert_eq!(serial, parallel, "artifact must not depend on thread count");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out = Sweep::new("empty").run_with(&quiet()).unwrap();
        assert!(out.records.is_empty());
        assert_eq!(out.threads, 1);
    }

    #[test]
    fn panicking_point_is_a_labeled_error() {
        let mut sweep = Sweep::new("boom");
        sweep.custom("fine", "test", || custom_result(1));
        sweep.custom("exploder", "test", || panic!("intentional test panic"));
        let err = sweep
            .run_with(&SweepOptions {
                threads: Some(2),
                ..quiet()
            })
            .unwrap_err();
        assert_eq!(err.label, "exploder");
        assert!(err.message.contains("intentional test panic"), "{err}");
        assert_eq!(err.completed, 1);
        assert_eq!(err.failed, 1);
    }

    #[test]
    fn failure_no_longer_discards_the_other_points() {
        // A panic used to poison the pool and throw away every record;
        // now every other point still runs and is reported.
        let mut sweep = Sweep::new("poison");
        sweep.custom("bang", "test", || panic!("first point dies"));
        for i in 0..8u64 {
            sweep.custom(format!("later{i}"), "test", move || custom_result(i));
        }
        let err = sweep
            .run_with(&SweepOptions {
                threads: Some(2),
                ..quiet()
            })
            .unwrap_err();
        assert_eq!(err.label, "bang");
        assert_eq!(err.completed, 8, "surviving points must all run");
        assert_eq!(err.failed, 1);
    }

    #[test]
    fn panicking_point_preserves_completed_work_on_disk() {
        let dir = temp_dir("preserve");
        let build = |fixed: bool| {
            let mut sweep = Sweep::new("preserve");
            sweep.custom("ok1", "test", || custom_result(10));
            sweep.custom("flaky", "test", move || {
                if fixed {
                    custom_result(20)
                } else {
                    panic!("deliberate failure")
                }
            });
            sweep.custom("ok2", "test", || custom_result(30));
            sweep
        };
        let opts = |resume: bool| SweepOptions {
            threads: Some(1),
            out_dir: Some(dir.clone()),
            resume,
            ..SweepOptions::default()
        };

        let err = build(false).run_with(&opts(false)).unwrap_err();
        assert_eq!(err.label, "flaky");
        assert_eq!((err.completed, err.failed), (2, 1));
        // The artifact of successful points was still written...
        let artifact = std::fs::read_to_string(dir.join("preserve.jsonl")).unwrap();
        let labels: Vec<String> = artifact
            .lines()
            .map(|l| serde_json::from_str::<RunRecord>(l).unwrap().label)
            .collect();
        assert_eq!(labels, ["ok1", "ok2"]);
        // ...and the journal kept for --resume records the failure.
        let journal = std::fs::read_to_string(dir.join("preserve.journal.jsonl")).unwrap();
        assert!(journal.contains("Failed"), "{journal}");
        assert!(journal.contains("deliberate failure"), "{journal}");

        // Resume with the point fixed: the two good points are loaded, the
        // failed one re-runs, and the sweep completes.
        let out = build(true).run_with(&opts(true)).unwrap();
        assert_eq!(out.resumed, 2);
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.records[1].elapsed_ps, 20);
        assert!(
            !dir.join("preserve.journal.jsonl").exists(),
            "journal removed after a fully successful run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_and_resume_artifact_is_byte_identical() {
        let dir = temp_dir("resume");
        let opts = |sub: &str, threads: usize| SweepOptions {
            threads: Some(threads),
            out_dir: Some(dir.join(sub)),
            ..SweepOptions::default()
        };

        // Reference: one uninterrupted run.
        let full = small_sweep("req").run_with(&opts("full", 2)).unwrap();
        let reference = std::fs::read(full.path.expect("artifact")).unwrap();

        // "Killed" run: only two points make it into the journal, and no
        // artifact is written.
        let halted = small_sweep("req")
            .run_with(&SweepOptions {
                halt_after: Some(2),
                ..opts("cut", 1)
            })
            .unwrap_err();
        assert_eq!(halted.completed, 2);
        assert!(!dir.join("cut/req.jsonl").exists(), "no artifact on a kill");
        assert!(dir.join("cut/req.journal.jsonl").exists());

        // Resume at a different thread count: journaled points are loaded,
        // the rest simulated, and the artifact is byte-identical.
        let resumed = small_sweep("req")
            .run_with(&SweepOptions {
                resume: true,
                ..opts("cut", 4)
            })
            .unwrap();
        assert_eq!(resumed.resumed, 2);
        let bytes = std::fs::read(resumed.path.expect("artifact")).unwrap();
        assert_eq!(
            bytes, reference,
            "resumed artifact must match the single-shot run byte for byte"
        );
        assert!(
            !dir.join("cut/req.journal.jsonl").exists(),
            "journal removed after success"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watchdog_times_out_a_hung_point_and_moves_on() {
        let dir = temp_dir("watchdog");
        let mut sweep = Sweep::new("watchdog");
        sweep.custom("fast", "test", || custom_result(1));
        sweep.custom("hang", "test", || {
            std::thread::sleep(Duration::from_millis(2000));
            custom_result(2)
        });
        sweep.custom("after", "test", move || custom_result(3));
        let err = sweep
            .run_with(&SweepOptions {
                threads: Some(2),
                out_dir: Some(dir.clone()),
                point_budget: Some(Duration::from_millis(100)),
                ..SweepOptions::default()
            })
            .unwrap_err();
        assert_eq!(err.label, "hang");
        assert!(err.message.contains("timed out"), "{err}");
        assert_eq!((err.completed, err.failed), (2, 1));
        let journal = std::fs::read_to_string(dir.join("watchdog.journal.jsonl")).unwrap();
        assert!(journal.contains("TimedOut"), "{journal}");
        // The artifact still holds the points that finished.
        let artifact = std::fs::read_to_string(dir.join("watchdog.jsonl")).unwrap();
        assert_eq!(artifact.lines().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_exceeded_records_are_deterministic_across_threads() {
        let dir = temp_dir("budget");
        let run = |threads: usize, sub: &str| {
            let mut sweep = small_sweep("budget");
            sweep.apply_budget(RunBudget {
                max_events: Some(500),
                max_sim_ps: None,
            });
            let out = sweep
                .run_with(&SweepOptions {
                    threads: Some(threads),
                    out_dir: Some(dir.join(sub)),
                    quiet: false,
                    ..SweepOptions::default()
                })
                .unwrap();
            assert!(
                out.records.iter().any(|r| !r.status.is_complete()),
                "budget of 500 events must cut at least one run short"
            );
            std::fs::read(out.path.expect("artifact")).unwrap()
        };
        let serial = run(1, "t1");
        let parallel = run(4, "t4");
        assert_eq!(
            serial, parallel,
            "BudgetExceeded records must not depend on thread count"
        );
        assert!(String::from_utf8(serial)
            .unwrap()
            .contains("BudgetExceeded"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_record_survives_a_journal_round_trip_byte_for_byte() {
        let out = small_sweep("roundtrip").run_with(&quiet()).unwrap();
        for r in &out.records {
            let line = serde_json::to_string(r).unwrap();
            let back: RunRecord = serde_json::from_str(&line).unwrap();
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                line,
                "journal round-trip must be byte-stable for '{}'",
                r.label
            );
        }
    }

    #[test]
    fn journal_keys_differ_by_parameters() {
        let mut a = Sweep::new("keys");
        let params = WorkloadParams {
            scale: 7,
            ..WorkloadParams::small(4)
        };
        let cfg = SystemConfig::nmp(4, 2);
        a.simulate("p", WorkloadKind::Bfs, params, cfg.clone());
        let mut b = Sweep::new("keys");
        let params2 = WorkloadParams { seed: 43, ..params };
        b.simulate("p", WorkloadKind::Bfs, params2, cfg.clone());
        assert_ne!(point_key(&a.points[0]), point_key(&b.points[0]));
        // Applying an engine budget also changes the key: budgeted results
        // must never be mistaken for unbudgeted ones on resume.
        let mut c = Sweep::new("keys");
        c.simulate("p", WorkloadKind::Bfs, params, cfg);
        c.apply_budget(RunBudget {
            max_events: Some(10),
            max_sim_ps: None,
        });
        assert_ne!(point_key(&a.points[0]), point_key(&c.points[0]));
    }

    #[test]
    fn thread_resolution_order_and_env_validation() {
        // explicit > env > default
        assert_eq!(resolve_threads_with_env(Some(3), Some("8")).unwrap(), 3);
        assert_eq!(resolve_threads_with_env(None, Some("8")).unwrap(), 8);
        assert!(resolve_threads_with_env(None, None).unwrap() >= 1);
        // Garbage and zero are rejected, not silently ignored.
        assert!(resolve_threads_with_env(None, Some("abc")).is_err());
        assert!(resolve_threads_with_env(None, Some("0")).is_err());
        assert!(resolve_threads_with_env(Some(0), None).is_err());
        assert_eq!(resolve_threads(Some(3)).unwrap(), 3);
    }

    #[test]
    fn records_carry_derived_metrics() {
        let out = small_sweep("metrics").run_with(&quiet()).unwrap();
        let r = &out.records[0];
        assert!(r.elapsed_ps > 0);
        assert!(r.status.is_complete());
        assert_eq!(r.elapsed(), Ps::from_ps(r.elapsed_ps));
        let (a, b, c, d) = r.traffic_breakdown();
        assert!((a + b + c + d - 1.0).abs() < 1e-9 || (a, b, c, d) == (0.0, 0.0, 0.0, 0.0));
        assert_eq!(out.records[3].config, "host-16core");
    }
}
