//! The sequential round executor: one thread, nodes in ascending order.

use super::queue::{FlatQueue, Inbox};
use super::RoundExecutor;
use crate::engine::{EngineConfig, MemoryReport, RunError, RunReport};
use crate::node_local::{NodeLocalAdapter, NodeLocalProtocol};
use crate::protocol::{Ctx, Protocol};
use crate::rng::NodeRngs;
use drw_graph::Graph;

/// End-of-run capacity scan over the engine's buffers. `Vec` capacities
/// never shrink, so this is the run's true high-water mark.
pub(super) fn memory_report<M>(
    queue_bytes: usize,
    inbox: &Inbox<M>,
    rng_count: usize,
    staging_bytes: usize,
) -> MemoryReport {
    MemoryReport {
        queue_bytes,
        inbox_bytes: inbox.capacity_bytes(),
        rng_bytes: rng_count * std::mem::size_of::<rand::rngs::StdRng>(),
        staging_bytes,
    }
}

/// Executes rounds on the calling thread, visiting receiving nodes in
/// ascending node-id order — the reference semantics every other
/// backend must reproduce bit-for-bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExecutor;

impl RoundExecutor for SequentialExecutor {
    fn run<P: Protocol>(
        &self,
        graph: &Graph,
        cfg: &EngineConfig,
        seed: u64,
        protocol: &mut P,
    ) -> Result<RunReport, RunError> {
        let n = graph.n();
        let mut rngs = NodeRngs::new(seed, n);
        let mut queue: FlatQueue<P::Msg> = FlatQueue::for_graph(graph);
        let mut inbox: Inbox<P::Msg> = Inbox::default();
        let mut report = RunReport::default();
        if cfg.record_edge_loads {
            report.edge_load_histogram = vec![0; super::queue::LOAD_HISTOGRAM_BUCKETS];
        }

        // Round 0: free local computation and initial sends.
        let mut ctx = Ctx::new(graph, 0, &mut rngs);
        protocol.start(&mut ctx);
        let mut staged_buf = ctx.staged;
        queue.stage(graph, &mut staged_buf, cfg, 1, &mut report)?;

        let mut round: u64 = 0;
        // Quiescence is `is_idle`, not queue emptiness: the fault layer
        // may hold delayed/retransmitted messages for future rounds
        // while the current queue is empty — such rounds deliver
        // nothing but still pass (and are billed).
        while !queue.is_idle() {
            if protocol.is_done() {
                break;
            }
            round += 1;
            if round > cfg.max_rounds {
                return Err(RunError::MaxRoundsExceeded(cfg.max_rounds));
            }

            queue.deliver(graph, cfg, round, &mut report, &mut inbox);

            let mut ctx = Ctx::with_staged(graph, round, &mut rngs, staged_buf);
            protocol.on_round(&mut ctx);
            for (node, msgs) in inbox.iter() {
                protocol.on_receive(node, msgs, &mut ctx);
            }
            staged_buf = ctx.staged;
            queue.stage(graph, &mut staged_buf, cfg, round + 1, &mut report)?;
        }

        report.rounds = round;
        report.memory = memory_report(
            queue.capacity_bytes(),
            &inbox,
            rngs.len(),
            staged_buf.capacity() * std::mem::size_of::<(usize, P::Msg)>(),
        );
        Ok(report)
    }

    fn run_node_local<P: NodeLocalProtocol>(
        &self,
        graph: &Graph,
        cfg: &EngineConfig,
        seed: u64,
        protocol: &mut P,
    ) -> Result<RunReport, RunError> {
        self.run(graph, cfg, seed, &mut NodeLocalAdapter(protocol))
    }
}
