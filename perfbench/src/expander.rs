//! `expander_cold_walks` and `expander_cold_walks_sharded`: cold
//! `single_random_walk` calls on a random 4-regular graph.
//!
//! Every call runs its own BFS, Phase 1, stitching and naive tail, so
//! the CONGEST engine's deliver / compute / stage loop and the Phase-1
//! short-walks protocol do almost all the work. The two workloads make
//! the same calls on the two executors.

use crate::calib::Calibration;
use crate::pass::{Pass, WalkFields};
use crate::spans::Tracer;
use drw_congest::{derive_seed, ExecutorKind};
use drw_core::single_random_walk;
use drw_graph::{generators, Graph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Nodes of the expander.
pub const N: usize = 10_000;
/// Degree of the expander.
pub const DEGREE: usize = 4;
/// Steps per walk.
pub const LEN: u64 = 256;

const GRAPH_TAG: u64 = 0x6EA9;
const CALL_TAG: u64 = 0xCA11;

/// The seeded expander.
pub fn graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, GRAPH_TAG));
    generators::random_regular(N, DEGREE, &mut rng)
}

/// Source and walk seed of each of `count` calls.
pub fn calls(seed: u64, count: usize) -> Vec<(NodeId, u64)> {
    (0..count as u64)
        .map(|i| {
            let h = derive_seed(derive_seed(seed, CALL_TAG), i);
            ((h % N as u64) as NodeId, derive_seed(h, 1))
        })
        .collect()
}

/// Makes every call on `kind`, timing each.
pub fn run_pass(
    g: &Graph,
    calls: &[(NodeId, u64)],
    kind: ExecutorKind,
    tracer: &mut Tracer,
    calib: &mut Calibration,
) -> Pass {
    let cfg = crate::walk_config(kind);
    let mut pass = Pass::default();
    let start = Instant::now();
    let calib_before = calib.spent();
    for (i, &(source, walk_seed)) in calls.iter().enumerate() {
        calib.tick();
        let open = tracer.begin("walk.call", i as u64);
        let t0 = Instant::now();
        let result = single_random_walk(g, source, LEN, &cfg, walk_seed);
        let t1 = Instant::now();
        pass.op_ms.push((t1 - t0).as_secs_f64() * 1e3);
        pass.op_span.push((t0, t1));
        tracer.end(open);
        pass.attempted += 1;
        match result {
            Ok(r) => {
                if r.destination >= g.n() {
                    pass.fail(format!("call {i}: destination {} >= n", r.destination));
                }
                pass.op_rounds.push(r.rounds as f64);
                pass.engine_rounds += r.rounds;
                pass.outputs
                    .push(vec![r.destination as u64, r.rounds, r.messages]);
                pass.walks.push(WalkFields::of(&r));
            }
            Err(e) => {
                pass.failed += 1;
                pass.fail(format!("call {i}: {e}"));
            }
        }
    }
    pass.elapsed_s = (start.elapsed() - (calib.spent() - calib_before)).as_secs_f64();
    pass.span = Some((start, Instant::now()));
    pass
}
