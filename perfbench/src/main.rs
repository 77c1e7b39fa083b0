//! `drw-perfbench`: runs one workload of the repository benchmark and
//! prints its metrics, ending with one JSON result line.
//!
//! ```text
//! drw-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!               [--spans-out PATH] [--record-dir DIR]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the
//! workload with spans around every call into a layer, replays it
//! untraced and on the other executor, and prints the per-layer metrics,
//! writing the spans to `--spans-out`. Every run checks its outputs, and
//! with `--record-dir` compares them with earlier runs of the same build,
//! seed and work (see `record`). A mismatch prints `"correct": false` and
//! exits with code 1.

mod calib;
mod expander;
mod pass;
mod probe;
mod record;
mod report;
mod service;
mod spans;
mod stats;

use calib::Calibration;
use drw_congest::{EngineConfig, ExecutorKind};
use drw_core::SingleWalkConfig;
use pass::{compare, Pass};
use report::{result_line, Metrics};
use spans::Tracer;
use stats::median;
use std::time::Instant;

/// The workloads. `BENCHMARK.json` declares the first three;
/// `torus_service` runs only when named (see the README).
pub const WORKLOADS: [&str; 4] = [
    "expander_cold_walks",
    "expander_cold_walks_sharded",
    "torus_service",
    "churn_mixed_service",
];

/// End-to-end metrics this binary measures (`peak_rss_mb` comes from
/// the process's own `getrusage`, taken by the runner script).
const END_TO_END: [&str; 7] = [
    "setup_s",
    "ops_per_s",
    "op_ms_p50",
    "op_ms_tail",
    "rounds_p50",
    "rounds_tail",
    "engine_rounds",
];

/// Per-layer metrics with units, in report order (`process.*` comes
/// from the runner script). A layer the workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 55] = [
    ("graph.build_s", "s"),
    ("graph.edges", "count"),
    ("congest.bfs.s", "s"),
    ("congest.bfs.rounds", "rounds"),
    ("congest.bfs.messages", "count"),
    ("congest.phase1.s", "s"),
    ("congest.phase1.rounds", "rounds"),
    ("congest.phase1.messages", "count"),
    ("congest.phase1.words", "count"),
    ("congest.phase1.ns_per_msg", "ns"),
    ("congest.queue_bytes", "bytes"),
    ("congest.inbox_bytes", "bytes"),
    ("congest.staging_bytes", "bytes"),
    ("executor.rounds_measured", "rounds"),
    ("executor.rounds_inline", "rounds"),
    ("executor.max_over_mean", "ratio"),
    ("executor.speedup_vs_sequential", "ratio"),
    ("walk.rounds_bfs", "rounds"),
    ("walk.rounds_phase1", "rounds"),
    ("walk.rounds_stitch", "rounds"),
    ("walk.rounds_tail", "rounds"),
    ("walk.stitches", "count"),
    ("walk.gmw_invocations", "count"),
    ("walk.lambda", "steps"),
    ("walk.messages", "count"),
    ("session.topups", "count"),
    ("session.rounds_topup", "rounds"),
    ("session.walks_added", "count"),
    ("session.repairs", "count"),
    ("session.repair_bfs_reruns", "count"),
    ("session.walks_evicted", "count"),
    ("session.store_waste_ratio", "ratio"),
    ("service.pump_ms_p50", "ms"),
    ("service.pump_ms_p90", "ms"),
    ("service.pumps", "count"),
    ("service.waves", "count"),
    ("service.queue_depth_max", "count"),
    ("service.setup_rounds", "rounds"),
    ("service.churn_rounds", "rounds"),
    ("service.rejected", "count"),
    ("service.admission_wait_rounds_p50", "rounds"),
    ("service.admission_wait_rounds_p90", "rounds"),
    ("service.submit_us_p50", "us"),
    ("service.release_lag_rounds_p90", "rounds"),
    ("service.kind.walk.ms_p50", "ms"),
    ("service.kind.walk.rounds_p50", "rounds"),
    ("service.kind.many-walks.ms_p50", "ms"),
    ("service.kind.many-walks.rounds_p50", "rounds"),
    ("service.kind.spanning-tree.ms_p50", "ms"),
    ("service.kind.spanning-tree.rounds_p50", "rounds"),
    ("service.kind.mixing-time.ms_p50", "ms"),
    ("service.kind.mixing-time.rounds_p50", "rounds"),
    ("service.kind.mutate.ms_p50", "ms"),
    ("service.kind.mutate.rounds_p50", "rounds"),
    ("trace.overhead_ms", "ms"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Nominal wall seconds of one cold expander call; a run makes
/// `seconds / EXPANDER_CALL_S` calls (at least one), so its work, and
/// every deterministic counter, depends on the arguments only.
const EXPANDER_CALL_S: f64 = 0.19;
/// Nominal wall seconds of one 128-arrival segment of `torus_service`;
/// a run serves `seconds / TORUS_SEGMENT_S` segments (at least one).
const TORUS_SEGMENT_S: f64 = 4.0;
/// Nominal wall seconds of one segment of `churn_mixed_service`.
const CHURN_SEGMENT_S: f64 = 1.6;

/// The engine configuration of a workload's executor: the thread count
/// is pinned (the default `0` would mean one per core).
pub fn engine(kind: ExecutorKind) -> EngineConfig {
    let workers = match kind {
        ExecutorKind::Sequential => 1,
        ExecutorKind::Parallel | ExecutorKind::Sharded => 2,
    };
    EngineConfig {
        executor: kind,
        parallel_workers: workers,
        ..EngineConfig::default()
    }
}

/// The walk configuration of every workload: the v1 harness's uniform
/// Phase-1 allocation (one short walk per node), on `kind`.
pub fn walk_config(kind: ExecutorKind) -> SingleWalkConfig {
    SingleWalkConfig {
        degree_proportional: false,
        engine: engine(kind),
        ..SingleWalkConfig::default()
    }
}

/// The executor the correctness pass replays the inputs on.
fn other(kind: ExecutorKind) -> ExecutorKind {
    match kind {
        ExecutorKind::Sequential => ExecutorKind::Sharded,
        ExecutorKind::Parallel | ExecutorKind::Sharded => ExecutorKind::Sequential,
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_out: Option<String>,
    record_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut spans_out, mut record_dir) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            "--spans-out" => spans_out = Some(value.clone()),
            "--record-dir" => record_dir = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        spans_out,
        record_dir,
    })
}

/// What a run found.
struct Outcome {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    notes: Vec<String>,
}

/// The passes a run makes over one set of inputs: `main` (timed, and
/// traced when asked); when tracing, also `untraced` (same executor, no
/// spans: the tracing overhead) and `other` (the other executor: the
/// executor speed-up, and an in-run identity check).
struct Passes {
    main: Pass,
    untraced: Option<Pass>,
    other: Option<Pass>,
}

impl Passes {
    fn check(&self, kind: ExecutorKind, problems: &mut Vec<String>) {
        let extra = self.untraced.iter().chain(&self.other);
        for p in std::iter::once(&self.main).chain(extra) {
            problems.extend(p.problems.iter().cloned());
        }
        if let Some(u) = &self.untraced {
            problems.extend(compare("traced vs untraced repeat", &self.main, u).err());
        }
        if let Some(o) = &self.other {
            let what = format!("{} vs {}", kind.name(), other(kind).name());
            problems.extend(compare(&what, &self.main, o).err());
        }
    }
}

/// Makes the passes a run needs with `make(executor, tracer, calib)`.
fn passes(
    kind: ExecutorKind,
    tracer: &mut Tracer,
    calib: &mut Calibration,
    mut make: impl FnMut(ExecutorKind, &mut Tracer, &mut Calibration) -> Result<Pass, String>,
) -> Result<Passes, String> {
    let main = make(kind, tracer, calib)?;
    let (untraced, other_pass) = if tracer.enabled() {
        let mut quiet = Tracer::new(false);
        let untraced = make(kind, &mut quiet, calib)?;
        (Some(untraced), Some(make(other(kind), &mut quiet, calib)?))
    } else {
        (None, None)
    };
    Ok(Passes {
        main,
        untraced,
        other: other_pass,
    })
}

fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let mut problems = Vec::new();
    // A traced run makes three passes over its inputs (traced, untraced,
    // other executor), so each pass gets a third of the run's time.
    let seconds = args.seconds as f64 / if args.trace { 3.0 } else { 1.0 };
    // When each set-up started and ended.
    let mut setups = Vec::new();
    let mut calib = Calibration::default();
    let (passes, kind, record_key) = match args.workload.as_str() {
        name @ ("expander_cold_walks" | "expander_cold_walks_sharded") => {
            let kind = if name == "expander_cold_walks" {
                ExecutorKind::Sequential
            } else {
                ExecutorKind::Sharded
            };
            let mut g = None;
            for _ in 0..SETUP_REPEATS {
                calib.tick();
                let t0 = Instant::now();
                let open = tracer.begin("graph.build", 0);
                g = Some(expander::graph(args.seed));
                tracer.end(open);
                setups.push((t0, Instant::now()));
            }
            let g = g.expect("SETUP_REPEATS >= 1");
            let count = ((seconds / EXPANDER_CALL_S).round() as usize).max(1);
            let calls = expander::calls(args.seed, count);
            let passes = passes(kind, tracer, &mut calib, |k, t, c| {
                Ok(expander::run_pass(&g, &calls, k, t, c))
            })?;
            if tracer.enabled() {
                m.set("graph.edges", g.m() as f64, "count");
                probe::run(&g, expander::LEN, kind, args.seed, tracer, &mut m)?;
            }
            // Both expander workloads share records: same calls, same outputs.
            let key = format!("expander-seed{}-calls{count}", args.seed);
            (passes, kind, key)
        }
        name => {
            let kind = ExecutorKind::Sequential;
            let segments = |nominal_s: f64| ((seconds / nominal_s).round() as usize).max(1);
            let w = if name == "torus_service" {
                service::torus_service(segments(TORUS_SEGMENT_S))
            } else {
                service::churn_mixed_service(segments(CHURN_SEGMENT_S))
            };
            let traces = w.arrivals(args.seed);
            // Time every set-up the main pass uses, plus throw-away ones
            // up to SETUP_REPEATS.
            let extra = SETUP_REPEATS.saturating_sub(traces.len());
            let mut units = Vec::new();
            for i in 0..extra + traces.len() {
                calib.tick();
                let t0 = Instant::now();
                let g = w.graph(tracer);
                let svc = w.setup(&g, kind, args.seed, tracer)?;
                setups.push((t0, Instant::now()));
                if i >= extra {
                    units.push((svc, traces[i - extra].clone()));
                }
            }
            let g = w.graph(&mut Tracer::new(false));
            let mut first = Some(units);
            let passes = passes(kind, tracer, &mut calib, |k, t, c| {
                let units = match first.take() {
                    Some(units) => units,
                    None => traces
                        .iter()
                        .map(|trace| {
                            let svc = w.setup(&g, k, args.seed, &mut Tracer::new(false))?;
                            Ok((svc, trace.clone()))
                        })
                        .collect::<Result<_, String>>()?,
                };
                Ok(service::run_pass(units, t, c))
            })?;
            if tracer.enabled() {
                m.set("graph.edges", g.m() as f64, "count");
                probe::run(&g, w.warmup_len, kind, args.seed, tracer, &mut m)?;
            }
            let key = format!("{name}-seed{}-segments{}", args.seed, w.segments);
            (passes, kind, key)
        }
    };
    passes.check(kind, &mut problems);
    if let Some(dir) = &args.record_dir {
        let dir = std::path::Path::new(dir);
        problems.extend(record::check(dir, &record_key, &args.workload, &passes.main).err());
    }
    let main = &passes.main;

    calib.sample();
    let setup_s = |calibrated: bool| {
        let s: Vec<f64> = setups
            .iter()
            .map(|&(start, end)| {
                let scale = if calibrated {
                    calib.scale_over(start, end)
                } else {
                    1.0
                };
                (end - start).as_secs_f64() * scale
            })
            .collect();
        median(&s)
    };
    m.set("setup_s", setup_s(true), "s");
    main.end_to_end(&mut m, &calib);
    notes.push(format!(
        "host calibration: kernel median {:.4} ms over {} samples, nominal {} ms, \
         timed-phase scale {:.4} (raw op_ms_p50 {:.3} ms, raw setup_s {:.6} s)",
        calib.ref_ms(),
        calib.samples(),
        calib::NOMINAL_MS,
        main.scale(&calib),
        median(&main.op_ms),
        setup_s(false)
    ));

    notes.push(format!(
        "{} ops in {:.3} s; {}; failed_ratio {} ({} failed of {} attempted)",
        main.op_ms.len(),
        main.elapsed_s,
        main.tail_note(),
        stats::failed_ratio(main.failed, main.attempted),
        main.failed,
        main.attempted
    ));
    if let (Some(untraced), Some(other_pass)) = (&passes.untraced, &passes.other) {
        for (name, value, unit) in main.layers.iter() {
            m.set(name.clone(), *value, unit);
        }
        main.walk_metrics(&mut m);
        m.set("graph.build_s", median(&tracer.seconds("graph.build")), "s");
        let (seq, shd) = match kind {
            ExecutorKind::Sequential => (main, other_pass),
            _ => (other_pass, main),
        };
        let speedup = median(&seq.op_ms) / median(&shd.op_ms).max(1e-9);
        m.set("executor.speedup_vs_sequential", speedup, "ratio");
        notes.push(format!(
            "executor speed-up base: median op ms of a sequential pass over a sharded \
             (2 workers) pass of the same {} ops in this process",
            main.op_ms.len()
        ));
        notes.push(format!("{} spans recorded", tracer.spans().len()));
        let overhead = median(&main.op_ms) - median(&untraced.op_ms);
        m.set("trace.overhead_ms", overhead, "ms");
        notes.push(format!(
            "tracing overhead: traced op_ms_p50 {:.3} - untraced {:.3} = {overhead:.3} ms",
            median(&main.op_ms),
            median(&untraced.op_ms)
        ));
    }
    let mut out = Metrics::default();
    if tracer.enabled() {
        for (name, unit) in PER_LAYER {
            out.set(name, m.get(name).unwrap_or(0.0), unit);
        }
    } else {
        for name in END_TO_END {
            let (_, value, unit) = m
                .iter()
                .find(|(n, _, _)| n == name)
                .expect("every end-to-end metric is set");
            out.set(name, *value, unit);
        }
    }
    Ok(Outcome {
        problems,
        attempted: main.attempted,
        failed: main.failed,
        metrics: out,
        notes,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("drw-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let outcome = match run(&args, &mut tracer) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("drw-perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if let Some(path) = args.spans_out.as_deref().filter(|_| args.trace) {
        if let Err(e) = std::fs::write(path, tracer.to_json() + "\n") {
            eprintln!("drw-perfbench: writing spans to {path}: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, value, unit) in outcome.metrics.iter() {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    for p in &outcome.problems {
        println!("# INCORRECT: {p}");
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
