//! The traced pass's direct measurement of the CONGEST engine and its
//! executor: `Runner::run(BfsTreeProtocol)` and
//! `Runner::run_local(ShortWalksProtocol)` on the workload's graph,
//! exactly as a cold walk of `len` steps would run them.

use crate::report::Metrics;
use crate::spans::Tracer;
use crate::stats::median;
use drw_congest::primitives::BfsTreeProtocol;
use drw_congest::{ExecutorKind, RunReport, Runner};
use drw_core::{ShortWalksProtocol, WalkState};
use drw_graph::Graph;
use std::time::Instant;

/// Repeats of the probe; timings are medians, counters must repeat.
pub const REPEATS: usize = 3;

/// Runs the probe [`REPEATS`] times on `kind` and reports the
/// `congest.*` and `executor.*` layer metrics (executor balance is only
/// recorded by the sharded executor; it reads zero elsewhere).
pub fn run(
    g: &Graph,
    len: u64,
    kind: ExecutorKind,
    seed: u64,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let cfg = crate::walk_config(kind);
    let params = cfg.params;
    let (mut bfs_s, mut p1_s) = (Vec::new(), Vec::new());
    let mut first: Option<(RunReport, RunReport)> = None;
    for rep in 0..REPEATS {
        let id = rep as u64;
        let root = tracer.begin("probe", id);
        let mut runner = Runner::new(g, cfg.engine.clone(), seed);

        let open = tracer.begin("congest.bfs", id);
        let t0 = Instant::now();
        let mut bfs = BfsTreeProtocol::new(0);
        let bfs_report = runner
            .run(&mut bfs)
            .map_err(|e| format!("probe BFS: {e}"))?;
        bfs_s.push(t0.elapsed().as_secs_f64());
        tracer.end(open);

        let depth = u64::from(bfs.into_tree().depth().max(1));
        let lambda = params.lambda(len, depth);
        let counts = (0..g.n())
            .map(|v| {
                let degree = if cfg.degree_proportional {
                    g.degree(v)
                } else {
                    1
                };
                params.walks_for_degree(degree)
            })
            .collect();
        let mut state = WalkState::new(g.n());
        let open = tracer.begin("congest.phase1", id);
        let t0 = Instant::now();
        let p1_report = runner
            .run_local(&mut ShortWalksProtocol::new(
                &mut state, counts, lambda, true,
            ))
            .map_err(|e| format!("probe Phase 1: {e}"))?;
        p1_s.push(t0.elapsed().as_secs_f64());
        tracer.end(open);
        tracer.end(root);

        match &first {
            None => first = Some((bfs_report, p1_report)),
            Some((b, p)) if *b == bfs_report && *p == p1_report => {}
            Some(_) => {
                return Err(format!(
                    "probe repeat {rep} ran different rounds or messages"
                ))
            }
        }
    }
    let (bfs, p1) = first.expect("REPEATS >= 1");
    let p1_median = median(&p1_s);

    m.set("congest.bfs.s", median(&bfs_s), "s");
    m.set("congest.bfs.rounds", bfs.rounds as f64, "rounds");
    m.set("congest.bfs.messages", bfs.messages as f64, "count");
    m.set("congest.phase1.s", p1_median, "s");
    m.set("congest.phase1.rounds", p1.rounds as f64, "rounds");
    m.set("congest.phase1.messages", p1.messages as f64, "count");
    m.set("congest.phase1.words", p1.words as f64, "count");
    m.set(
        "congest.phase1.ns_per_msg",
        p1_median * 1e9 / (p1.messages.max(1) as f64),
        "ns",
    );
    m.set("congest.queue_bytes", p1.memory.queue_bytes as f64, "bytes");
    m.set("congest.inbox_bytes", p1.memory.inbox_bytes as f64, "bytes");
    m.set(
        "congest.staging_bytes",
        p1.memory.staging_bytes as f64,
        "bytes",
    );

    let balance = p1.balance.unwrap_or_default();
    m.set(
        "executor.rounds_measured",
        balance.rounds_measured as f64,
        "rounds",
    );
    m.set(
        "executor.rounds_inline",
        balance.rounds_inline as f64,
        "rounds",
    );
    m.set(
        "executor.max_over_mean",
        balance.worst_max_over_mean,
        "ratio",
    );
    Ok(())
}
