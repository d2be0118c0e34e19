//! One benchmark run: repeated iterations of one workload for a set time,
//! the correctness gate, and the metrics the run reports.

use crate::calib::Calibration;
use crate::fingerprint::{Fingerprint, Tally};
use crate::replay;
use crate::span::{Stopwatch, Tracer};
use crate::stats::{median, Summary};
use crate::workload::{iterate, Bench, Iteration, MeasuredRun};
use dimm_link::host_baseline;
use dl_engine::{Ps, RunStatus};
use serde_json::{Map, Number, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Timed iterations every run makes, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;

/// Remote accesses the `PacketNet` replay sends at most.
const PACKETNET_ACCESSES: usize = 200_000;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub bench: Bench,
    /// Seed of the generated inputs and of the random placement.
    pub seed: u64,
    /// Host seconds to keep starting iterations for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Input scale.
    pub scale: u32,
    /// Directory of golden fingerprints, if any.
    pub golden_dir: Option<PathBuf>,
}

impl Options {
    /// The golden fingerprint file for this workload, seed and scale.
    pub fn golden_path(&self) -> Option<PathBuf> {
        self.golden_dir.as_ref().map(|d| {
            d.join(format!(
                "{}-scale{}-seed{}.txt",
                self.bench.name(),
                self.scale,
                self.seed
            ))
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed, and the failure reasons.
    pub tally: Tally,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Every measurement behind the metrics, as one JSON object.
    pub detail: Value,
}

impl Outcome {
    /// Whether every operation completed and matched its reference.
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0 && self.tally.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                obj([("value", num(m.value)), ("unit", text(m.unit))]),
            )
        });
        obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", int(self.tally.attempted)),
            ("failed", int(self.tally.failed)),
            ("metrics", obj(metrics)),
        ])
        .to_string()
    }
}

fn num(v: f64) -> Value {
    Value::Number(Number::from_f64(v))
}

fn int(v: impl Into<u64>) -> Value {
    Value::Number(Number::from_u64(v.into()))
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    let mut map = Map::new();
    for (k, v) in fields {
        map.insert(k.into(), v);
    }
    Value::Object(map)
}

/// This process's peak resident memory (`VmHWM`) in MiB. One process runs
/// one workload, so this is the workload's peak, never accumulated across
/// workloads. It is read from the process itself because a parent's view
/// (`getrusage` of a child) also counts the parent's memory at `fork`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into());
    format!("panicked: {msg}")
}

/// Runs one iteration and records it; a panic counts as a failed operation.
fn attempt(opts: &Options, tracer: &mut Tracer, tally: &mut Tally) -> Option<Iteration> {
    let label = format!("iteration {}", tally.attempted + 1);
    match catch_unwind(AssertUnwindSafe(|| {
        iterate(opts.bench, opts.scale, opts.seed, tracer)
    })) {
        Ok(it) => {
            tally.record(&label, Ok(&it.fingerprint));
            Some(it)
        }
        Err(payload) => {
            tally.record(&label, Err(panic_message(payload)));
            tracer.recover();
            None
        }
    }
}

fn summary_json(values: &[f64]) -> Value {
    if values.is_empty() {
        return Value::Null;
    }
    let s = Summary::of(values);
    let mut fields = vec![("n", int(s.n as u64)), ("median", num(s.median))];
    if let Some((q1, q3)) = s.quartiles {
        fields.push(("q1", num(q1)));
        fields.push(("q3", num(q3)));
    }
    if let Some((p, v)) = s.tail {
        fields.push(("tail_percentile", int(p)));
        fields.push(("tail", num(v)));
    }
    obj(fields)
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

fn iterations_json(its: &[(bool, Iteration)]) -> Value {
    Value::Array(
        its.iter()
            .map(|(traced, it)| {
                obj([
                    ("traced", Value::Bool(*traced)),
                    ("wall_s", num(it.wall_s)),
                    ("setup_s", num(it.setup_s)),
                    ("sim_s", num(it.sim_s)),
                ])
            })
            .collect(),
    )
}

fn base_detail(opts: &Options, tally: &Tally) -> Vec<(&'static str, Value)> {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", text(opts.bench.name())),
        ("seed", int(opts.seed)),
        ("scale", int(opts.scale)),
        ("seconds", num(opts.seconds)),
        ("trace", Value::Bool(opts.trace)),
        ("available_parallelism", int(parallelism as u64)),
        (
            "build_profile",
            text(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("sim_threads", int(1u64)),
        ("golden", Value::Bool(tally.has_golden())),
        (
            "failures",
            Value::Array(tally.failures.iter().map(|f| text(f)).collect()),
        ),
    ]
}

/// Runs the benchmark as `opts` says and gathers its metrics, checking
/// against the golden fingerprint file when there is one.
pub fn run(opts: &Options) -> Outcome {
    let golden = opts
        .golden_path()
        .and_then(|p| std::fs::read_to_string(p).ok());
    run_against(opts, golden)
}

/// [`run`] against the given golden fingerprint text.
pub fn run_against(opts: &Options, golden: Option<String>) -> Outcome {
    let tally = Tally::new(golden);
    if opts.trace {
        traced(opts, tally)
    } else {
        untraced(opts, tally)
    }
}

/// The untraced run: iterations back to back for the set time. The first
/// one is checked but not timed: it warms the process up, and the peak
/// memory is read right after it, before any calibration buffer exists.
/// Every later iteration is bracketed by a host-speed calibration, and its
/// times are reported divided by the host's speed factor over it (see
/// [`crate::calib`]).
fn untraced(opts: &Options, mut tally: Tally) -> Outcome {
    let clock = Stopwatch::start();
    attempt(opts, &mut Tracer::new(false), &mut tally);
    let peak_rss = peak_rss_mb().unwrap_or(0.0);
    let mut its = Vec::new();
    let mut factors = Vec::new();
    let mut cals = vec![Calibration::measure()];
    while cals.len() <= MIN_ITERATIONS || clock.secs() < opts.seconds {
        let it = attempt(opts, &mut Tracer::new(false), &mut tally);
        let before = cals[cals.len() - 1];
        let after = Calibration::measure();
        if let Some(it) = it {
            factors.push((before.factor() + after.factor()) / 2.0);
            its.push((false, it));
        }
        cals.push(after);
    }
    let per_it = |f: fn(&Iteration, f64) -> f64| {
        its.iter()
            .zip(&factors)
            .map(|((_, it), &k)| f(it, k))
            .collect::<Vec<f64>>()
    };
    let wall = per_it(|it, k| it.wall_s / k);
    let setup = per_it(|it, k| it.setup_s / k);
    let ops_per_s = per_it(|it, k| it.fingerprint.trace_ops as f64 * k / it.sim_s);
    let raw_wall = per_it(|it, _| it.wall_s);
    let m = |name, values: &[f64], unit| Metric {
        name,
        value: median_or_zero(values),
        unit,
    };
    let metrics = vec![
        m("wall_s", &wall, "s"),
        m("setup_s", &setup, "s"),
        m("ops_per_s", &ops_per_s, "1/s"),
        Metric {
            name: "peak_rss_mb",
            value: peak_rss,
            unit: "MB",
        },
    ];
    let mut detail = base_detail(opts, &tally);
    detail.push(("iterations", iterations_json(&its)));
    detail.push((
        "calibrations",
        Value::Array(
            cals.iter()
                .map(|c| {
                    obj([
                        ("sort_s", num(c.sort_s)),
                        ("heap_s", num(c.heap_s)),
                        ("factor", num(c.factor())),
                    ])
                })
                .collect(),
        ),
    ));
    detail.push((
        "summary",
        obj([
            ("wall_s", summary_json(&wall)),
            ("setup_s", summary_json(&setup)),
            ("ops_per_s", summary_json(&ops_per_s)),
            ("raw_wall_s", summary_json(&raw_wall)),
            ("factor", summary_json(&factors)),
        ]),
    ));
    Outcome {
        tally,
        metrics,
        detail: obj(detail),
    }
}

/// The traced run: untraced and traced iterations alternate for the set
/// time, every one checked against the same reference; then the layer
/// replays run on the workload's own traffic.
fn traced(opts: &Options, mut tally: Tally) -> Outcome {
    let clock = Stopwatch::start();
    let mut its: Vec<(bool, Iteration)> = Vec::new();
    let mut tracer = Tracer::new(true);
    let mut round = 0usize;
    loop {
        let have_both = its.iter().any(|(t, _)| *t) && its.iter().any(|(t, _)| !*t);
        if (have_both || round >= 2 * MIN_ITERATIONS) && clock.secs() >= opts.seconds {
            break;
        }
        // Untraced and traced alternate in pairs (U T T U U T ...), so that
        // warm-up and drift fall on both sides of the overhead difference.
        let trace_this = matches!(round % 4, 1 | 2);
        let it = if trace_this {
            attempt(opts, &mut tracer, &mut tally)
        } else {
            attempt(opts, &mut Tracer::new(false), &mut tally)
        };
        if let Some(it) = it {
            its.push((trace_this, it));
        }
        round += 1;
    }

    let pick = |traced: bool, f: fn(&Iteration) -> f64| {
        its.iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, it)| f(it))
            .collect::<Vec<f64>>()
    };
    let layer = |f: fn(&Iteration) -> f64| median_or_zero(&pick(true, f));
    let overhead =
        median_or_zero(&pick(true, |it| it.wall_s)) - median_or_zero(&pick(false, |it| it.wall_s));
    let fp: Option<Fingerprint> = its.last().map(|(_, it)| it.fingerprint.clone());

    // host_pr builds its own trace in the split iteration; the single
    // public call must give the same result. Its trace counts are those of
    // the same parameters, so they are carried over.
    if let (Bench::HostPr, Some(fp)) = (opts.bench, &fp) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            tracer.time("host_baseline", |_| {
                host_baseline(opts.bench.kind(), opts.scale, opts.seed)
            })
        }));
        match outcome {
            Ok((h, _)) => {
                let reference = Fingerprint {
                    elapsed: h.elapsed,
                    status: RunStatus::Completed,
                    stats: h.stats,
                    ..fp.clone()
                };
                tally.record("host_baseline", Ok(&reference));
            }
            Err(payload) => {
                tally.record("host_baseline", Err(panic_message(payload)));
                tracer.recover();
            }
        }
    }

    let stat = |name: &str| fp.as_ref().map_or(0.0, |f| f.stat(name));
    // The replays follow the last traced iteration's measured run, the one
    // whose placement the split `idc_pr` pipeline exposes.
    let measured = its
        .iter()
        .rev()
        .find(|(traced, _)| *traced)
        .and_then(|(_, it)| it.measured.clone());
    let replays = fp
        .as_ref()
        .map(|f| layer_replays(opts, f, measured.as_ref(), &mut tracer));
    let run_s = layer(|it| it.layers.run_s);
    let events = stat("events_scheduled");
    let m = |name, value, unit| Metric { name, value, unit };
    let r = replays.clone().unwrap_or_default();
    let metrics = vec![
        m("workloads.build_s", layer(|it| it.layers.build_s), "s"),
        m(
            "workloads.trace_ops",
            fp.as_ref().map_or(0.0, |f| f.trace_ops as f64),
            "count",
        ),
        m(
            "workloads.mem_ops",
            fp.as_ref().map_or(0.0, |f| f.mem_ops as f64),
            "count",
        ),
        m("system.new_s", layer(|it| it.layers.new_s), "s"),
        m("system.run_s", run_s, "s"),
        m("engine.events", events, "count"),
        m("engine.events_wake", stat("events.wake"), "count"),
        m("engine.events_mem", stat("events.mem"), "count"),
        m("engine.events_net", stat("events.net"), "count"),
        m(
            "engine.events_per_s",
            if run_s > 0.0 { events / run_s } else { 0.0 },
            "1/s",
        ),
        m("engine.event_queue.ns_per_event", r.event_queue_ns, "ns"),
        m("idc.link_bytes", stat("traffic.link_bytes"), "bytes"),
        m("idc.fwd_bytes", stat("traffic.fwd_bytes"), "bytes"),
        m("idc.local_bytes", stat("traffic.local_bytes"), "bytes"),
        m("idc.remote_reads", stat("remote_reads"), "count"),
        m("idc.call_inversions", stat("idc.call_inversions"), "count"),
        m("noc.packetnet.ns_per_send", r.packetnet_ns, "ns"),
        m("mem.dram_reads", stat("dram.reads"), "count"),
        m("mem.dram_writes", stat("dram.writes"), "count"),
        m("mem.dram_activates", stat("dram.activates"), "count"),
        m("mem.l1_hit_rate", stat("cache.l1_hit_rate_mean"), "ratio"),
        m("mem.cache.ns_per_access", r.cache_ns, "ns"),
        m("mem.controller.ns_per_req", r.controller_ns, "ns"),
        m("host.fwd_packets", stat("host.fwd_packets"), "count"),
        m("host.polls", stat("host.polls"), "count"),
        m("host_sim.run_s", layer(|it| it.layers.host_sim_s), "s"),
        m("placement.profile_s", layer(|it| it.layers.profile_s), "s"),
        m("placement.mcmf_s", layer(|it| it.layers.mcmf_s), "s"),
        m(
            "sim.elapsed_ns",
            fp.as_ref().map_or(0.0, |f| f.elapsed.as_ps() as f64 / 1e3),
            "ns",
        ),
        m("trace.overhead_s", overhead, "s"),
    ];

    let spans = tracer
        .spans()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            obj([
                ("name", text(s.name)),
                ("start_s", num(s.start)),
                ("end_s", num(s.end)),
                ("self_s", num(tracer.self_secs(i))),
                ("parent", s.parent.map_or(Value::Null, |p| int(p as u64))),
            ])
        })
        .collect();
    let mut detail = base_detail(opts, &tally);
    detail.push(("iterations", iterations_json(&its)));
    detail.push(("replays", replays.map_or(Value::Null, |r| obj(r.detail))));
    detail.push(("spans", Value::Array(spans)));
    Outcome {
        tally,
        metrics,
        detail: obj(detail),
    }
}

/// Results of the layer replays of one traced run.
#[derive(Debug, Clone, Default)]
struct Replays {
    event_queue_ns: f64,
    packetnet_ns: f64,
    cache_ns: f64,
    controller_ns: f64,
    detail: Vec<(&'static str, Value)>,
}

fn replay_json(r: &replay::Replay, extra: Vec<(&'static str, Value)>) -> Value {
    let mut fields = vec![
        ("ops", int(r.ops)),
        ("ns_per_op", summary_json(&r.batch_ns)),
    ];
    fields.extend(extra);
    obj(fields)
}

/// Replays the workload's traffic through the event queue, the DL-group
/// network (NMP workloads only: the host baseline has no links), the L1
/// cache and the DRAM controllers. `measured` is the traced iteration's
/// measured NMP run: its placement and elapsed time drive the replays.
fn layer_replays(
    opts: &Options,
    fp: &Fingerprint,
    measured: Option<&MeasuredRun>,
    tracer: &mut Tracer,
) -> Replays {
    let bench = opts.bench;
    let cfg = bench.config(opts.seed);
    let wl = bench.kind().build(&bench.params(opts.scale, opts.seed));
    let elapsed = measured.map_or(fp.elapsed, |m| m.elapsed);
    let mut out = Replays::default();

    // The host model exports no event count; its trace length stands in.
    let events = match fp.stats.get("events_scheduled") {
        Some(e) => e as u64,
        None => fp.trace_ops,
    };
    // Pending depth: one wake event per resident thread of a queue (one
    // queue per DIMM partition, or the host's single queue).
    let queues = if bench == Bench::HostPr { 1 } else { cfg.dimms };
    let depth = (wl.traces().len() / queues).max(1);
    let (q, _) = tracer.time("replay.event_queue", |_| {
        replay::event_queue(events, depth, opts.seed)
    });
    out.event_queue_ns = q.ns_per_op();
    out.detail.push((
        "event_queue",
        replay_json(&q, vec![("depth", int(depth as u64))]),
    ));

    if let Some(m) = measured {
        let ((net, remote), _) = tracer.time("replay.packetnet", |_| {
            replay::packetnet(&wl, &cfg, &m.placement, elapsed, PACKETNET_ACCESSES)
        });
        out.packetnet_ns = net.ns_per_op();
        let run_remote_reads = fp.stat("remote_reads");
        out.detail.push((
            "packetnet",
            replay_json(
                &net,
                vec![
                    ("remote_accesses", int(remote.accesses)),
                    ("remote_loads", int(remote.loads)),
                    ("run_remote_reads", num(run_remote_reads)),
                ],
            ),
        ));
    }

    let ((c, misses), _) = tracer.time("replay.cache", |_| replay::cache(&wl));
    out.cache_ns = c.ns_per_op();
    out.detail.push((
        "cache",
        replay_json(&c, vec![("misses", int(misses.len() as u64))]),
    ));
    let (mc, _) = tracer.time("replay.controller", |_| {
        replay::controller(&misses, &cfg, elapsed.max(Ps::from_ns(1)))
    });
    out.controller_ns = mc.ns_per_op();
    out.detail
        .push(("controller", replay_json(&mc, Vec::new())));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(bench: Bench, trace: bool) -> Outcome {
        run(&Options {
            bench,
            seed: 7,
            seconds: 0.0,
            trace,
            scale: 8,
            golden_dir: None,
        })
    }

    #[test]
    fn quick_untraced_runs_pass_and_report_every_end_to_end_metric() {
        for bench in Bench::ALL {
            let out = quick(bench, false);
            assert!(out.correct(), "{}: {:?}", bench.name(), out.tally.failures);
            assert_eq!(out.tally.attempted as usize, MIN_ITERATIONS + 1);
            let names: Vec<_> = out.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, ["wall_s", "setup_s", "ops_per_s", "peak_rss_mb"]);
            assert!(
                out.metrics.iter().all(|m| m.value > 0.0),
                "{:?}",
                out.metrics
            );
            assert!(out.result_line().contains("\"correct\":true"));
        }
    }

    #[test]
    fn quick_traced_runs_match_untraced_and_report_every_layer() {
        for bench in Bench::ALL {
            let out = quick(bench, true);
            assert!(out.correct(), "{}: {:?}", bench.name(), out.tally.failures);
            assert_eq!(out.metrics.len(), 30);
            let get = |n: &str| {
                out.metrics
                    .iter()
                    .find(|m| m.name == n)
                    .map(|m| m.value)
                    .expect("metric present")
            };
            assert!(get("workloads.build_s") > 0.0);
            assert!(get("mem.cache.ns_per_access") > 0.0);
            assert!(get("sim.elapsed_ns") > 0.0);
            match bench {
                Bench::IdcPr => {
                    assert!(get("placement.mcmf_s") > 0.0 && get("system.run_s") > 0.0);
                    assert!(get("noc.packetnet.ns_per_send") > 0.0);
                }
                Bench::LocalKm => assert!(get("engine.events") > 0.0),
                Bench::HostPr => {
                    assert!(get("host_sim.run_s") > 0.0);
                    assert_eq!(get("system.run_s"), 0.0);
                }
            }
        }
    }

    #[test]
    fn golden_mismatch_fails_every_operation() {
        let opts = Options {
            bench: Bench::LocalKm,
            seed: 7,
            seconds: 0.0,
            trace: false,
            scale: 8,
            golden_dir: None,
        };
        let out = run_against(&opts, Some("elapsed_ps 1\n".into()));
        assert!(!out.correct());
        assert_eq!(out.tally.failed, out.tally.attempted);
        assert!(out.result_line().contains("\"failed\":4"));
        // The matching golden passes.
        let good = quick(Bench::LocalKm, false)
            .tally
            .reference()
            .map(str::to_string);
        assert!(run_against(&opts, good).correct());
    }
}
