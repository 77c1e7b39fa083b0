//! The deterministic parallel round executor.
//!
//! Shards the receive phase of a [`NodeLocalProtocol`] across OS
//! threads: receiving nodes are split into contiguous chunks, each
//! worker gets exclusive `&mut` access to its nodes' states and RNG
//! streams (carved out of the state slice with `split_at_mut` — no
//! locks, no `unsafe`), and each worker stages sends into a private
//! buffer. The buffers are then concatenated in chunk order — i.e. in
//! ascending node order — which is exactly the order the sequential
//! executor stages in, so both backends produce **bit-identical**
//! [`RunReport`]s and protocol outputs for the same seed.
//!
//! Delivery and staging stay sequential (they are cheap index walks over
//! the flat queue); the receive phase is where protocols burn their
//! cycles (per-token RNG draws, forwarding-log writes), and that is what
//! scales across cores. Rounds that deliver only a few messages are run
//! inline — same semantics, none of the fan-out overhead — so
//! lightweight phases (BFS waves, single naive tokens) never pay for
//! threads they cannot use.

use super::queue::{FlatQueue, Inbox};
use super::RoundExecutor;
use crate::engine::{EngineConfig, RunError, RunReport};
use crate::message::Envelope;
use crate::node_local::{NodeCtx, NodeLocalProtocol};
use crate::protocol::{Ctx, Protocol};
use crate::rng::NodeRngs;
use drw_graph::Graph;
use rand::rngs::StdRng;

/// Minimum messages delivered in a round before fanning out to threads;
/// below this, the round runs inline on the calling thread (identical
/// results either way — this is purely a wall-clock heuristic).
const PARALLEL_THRESHOLD: u64 = 1024;

/// Messages of receive work per spawned worker: fresh scoped threads
/// cost tens of microseconds to spawn+join, so each must be handed
/// enough work to amortize that. Worker count scales with the round's
/// delivery volume up to the executor's thread budget (the count never
/// affects results, only wall clock).
const MSGS_PER_WORKER: u64 = 512;

/// Executes the receive phase of node-local protocols on a pool of
/// scoped threads, deterministically. Plain [`Protocol`]s (whose
/// `&mut self` receive hook cannot be sharded safely) fall back to the
/// sequential discipline.
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor {
    threads: usize,
}

impl ParallelExecutor {
    /// An executor using `threads` worker threads (`0` = one per
    /// available CPU).
    pub fn new(threads: usize) -> Self {
        ParallelExecutor { threads }
    }

    /// An executor sized to the machine.
    pub fn auto() -> Self {
        ParallelExecutor::new(0)
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        }
    }
}

impl Default for ParallelExecutor {
    fn default() -> Self {
        ParallelExecutor::auto()
    }
}

/// One receiving node's slice of the round: its state, RNG stream and
/// inbox, carved out for exclusive access by one worker.
pub(super) struct WorkItem<'a, P: NodeLocalProtocol> {
    pub(super) node: usize,
    pub(super) state: &'a mut P::NodeState,
    pub(super) rng: &'a mut StdRng,
    pub(super) inbox: &'a mut [Envelope<P::Msg>],
}

/// Carves disjoint `&mut` views of every receiving node's state, RNG
/// stream and inbox slice out of the full slices (safe: receivers are
/// ascending and distinct, so the carves never overlap).
pub(super) fn work_items<'a, P: NodeLocalProtocol>(
    states: &'a mut [P::NodeState],
    rngs: &'a mut [StdRng],
    inbox: &'a mut Inbox<P::Msg>,
) -> Vec<WorkItem<'a, P>> {
    let mut items = Vec::with_capacity(inbox.node_count());
    let mut rest_states = states;
    let mut rest_rngs = rngs;
    let mut consumed = 0usize;
    for (node, msgs) in inbox.iter_mut() {
        let offset = node - consumed;
        let (head, tail) = std::mem::take(&mut rest_states)[offset..].split_at_mut(1);
        rest_states = tail;
        let (rhead, rtail) = std::mem::take(&mut rest_rngs)[offset..].split_at_mut(1);
        rest_rngs = rtail;
        consumed = node + 1;
        items.push(WorkItem {
            node,
            state: &mut head[0],
            rng: &mut rhead[0],
            inbox: msgs,
        });
    }
    items
}

impl RoundExecutor for ParallelExecutor {
    fn run<P: Protocol>(
        &self,
        graph: &Graph,
        cfg: &EngineConfig,
        seed: u64,
        protocol: &mut P,
    ) -> Result<RunReport, RunError> {
        // A plain protocol's receive hook takes `&mut self`: the type
        // system cannot prove node-locality, so the parallel backend
        // must not shard it. Run the reference discipline instead.
        super::SequentialExecutor.run(graph, cfg, seed, protocol)
    }

    fn run_node_local<P: NodeLocalProtocol>(
        &self,
        graph: &Graph,
        cfg: &EngineConfig,
        seed: u64,
        protocol: &mut P,
    ) -> Result<RunReport, RunError> {
        let n = graph.n();
        let max_threads = self.threads().max(1);
        let mut rngs = NodeRngs::new(seed, n);
        let mut queue: FlatQueue<P::Msg> = FlatQueue::for_graph(graph);
        let mut inbox: Inbox<P::Msg> = Inbox::default();
        let mut report = RunReport::default();
        if cfg.record_edge_loads {
            report.edge_load_histogram = vec![0; super::queue::LOAD_HISTOGRAM_BUCKETS];
        }

        // Round 0 is sequential: `start` sees the full context.
        let mut ctx = Ctx::new(graph, 0, &mut rngs);
        protocol.start(&mut ctx);
        let mut staged_buf = ctx.staged;
        queue.stage(graph, &mut staged_buf, cfg, 1, &mut report)?;

        let mut round: u64 = 0;
        // `is_idle`, not emptiness: fault-delayed messages parked for
        // future rounds must keep the loop alive (see the sequential
        // reference executor).
        while !queue.is_idle() {
            if protocol.is_done() {
                break;
            }
            round += 1;
            if round > cfg.max_rounds {
                return Err(RunError::MaxRoundsExceeded(cfg.max_rounds));
            }

            let delivered = queue.deliver(graph, cfg, round, &mut report, &mut inbox);

            // Global hook first, sequentially, exactly like the
            // sequential executor; its stages precede all node stages.
            let mut ctx = Ctx::with_staged(graph, round, &mut rngs, staged_buf);
            protocol.on_round(&mut ctx);
            let mut staged = ctx.staged;

            let threads = max_threads
                .min(inbox.node_count().max(1))
                .min((delivered / MSGS_PER_WORKER).max(1) as usize);
            if threads < 2 || delivered < PARALLEL_THRESHOLD {
                // Inline receive phase: identical to the sequential
                // backend by construction.
                let (shared, states) = protocol.parts();
                for (node, msgs) in inbox.iter() {
                    let mut nctx = NodeCtx::new(graph, round, node, rngs.node(node), &mut staged);
                    P::on_receive_local(shared, &mut states[node], node, msgs, &mut nctx);
                }
            } else {
                let (shared, states) = protocol.parts();
                debug_assert_eq!(states.len(), n, "one NodeState per node required");

                let mut items = work_items::<P>(states, rngs.as_mut_slice(), &mut inbox);

                // Contiguous chunks preserve ascending node order within
                // and across workers; concatenating per-worker staging
                // buffers in chunk order therefore reproduces the
                // sequential staging order exactly.
                let chunk_size = items.len().div_ceil(threads);
                let mut outputs: Vec<Vec<(usize, P::Msg)>> =
                    std::iter::repeat_with(Vec::new).take(threads).collect();
                std::thread::scope(|scope| {
                    for (chunk, out) in items.chunks_mut(chunk_size).zip(outputs.iter_mut()) {
                        scope.spawn(move || {
                            for item in chunk.iter_mut() {
                                let mut nctx = NodeCtx::new(graph, round, item.node, item.rng, out);
                                P::on_receive_local(
                                    shared, item.state, item.node, item.inbox, &mut nctx,
                                );
                            }
                        });
                    }
                });
                for out in &mut outputs {
                    staged.append(out);
                }
            }
            staged_buf = staged;
            queue.stage(graph, &mut staged_buf, cfg, round + 1, &mut report)?;
        }

        report.rounds = round;
        report.memory = super::sequential::memory_report(
            queue.capacity_bytes(),
            &inbox,
            rngs.len(),
            staged_buf.capacity() * std::mem::size_of::<(usize, P::Msg)>(),
        );
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SequentialExecutor;
    use crate::message::Message;
    use drw_graph::generators;
    use rand::Rng;

    /// A message-dense node-local gossip: for `ttl` rounds every node
    /// draws from its private RNG and sends the draw to every neighbor;
    /// nodes fold received values into a running digest. Dense enough
    /// (complete graph) that every round crosses the executor's
    /// fan-out threshold, so this genuinely exercises the threaded
    /// receive path even when `available_parallelism` is 1.
    #[derive(Clone, Debug)]
    struct Gossip(u64);
    impl Message for Gossip {}

    #[derive(Default, Clone, PartialEq, Eq, Debug)]
    struct Digest {
        folded: u64,
        received: u64,
    }

    struct DenseGossip {
        ttl: u64,
        nodes: Vec<Digest>,
    }

    impl NodeLocalProtocol for DenseGossip {
        type Msg = Gossip;
        type Shared = u64; // the ttl, readable by every handler
        type NodeState = Digest;

        fn start(&mut self, ctx: &mut Ctx<'_, Gossip>) {
            let n = ctx.graph().n();
            for v in 0..n {
                let x: u64 = ctx.rng(v).random();
                for u in ctx.graph().neighbors(v).collect::<Vec<_>>() {
                    ctx.send(v, u, Gossip(x));
                }
            }
        }

        fn parts(&mut self) -> (&u64, &mut [Digest]) {
            (&self.ttl, &mut self.nodes)
        }

        fn on_receive_local(
            ttl: &u64,
            state: &mut Digest,
            _node: usize,
            inbox: &[crate::Envelope<Gossip>],
            ctx: &mut crate::NodeCtx<'_, Gossip>,
        ) {
            for env in inbox {
                state.received += 1;
                state.folded = state.folded.rotate_left(7) ^ env.msg.0;
            }
            if ctx.round() < *ttl {
                let x: u64 = ctx.rng().random();
                let neighbors: Vec<usize> = ctx.graph().neighbors(ctx.node()).collect();
                for u in neighbors {
                    ctx.send(u, Gossip(x));
                }
            }
        }
    }

    #[test]
    fn forced_multithread_run_matches_sequential_bitwise() {
        // 48*47 = 2256 deliveries per round: above PARALLEL_THRESHOLD and
        // enough for MSGS_PER_WORKER to grant multiple workers, so the
        // threaded path genuinely runs even on a 1-CPU machine.
        let g = generators::complete(48);
        let mk = || DenseGossip {
            ttl: 6,
            nodes: vec![Digest::default(); 48],
        };
        let cfg = EngineConfig::default();
        let mut seq = mk();
        let r_seq = SequentialExecutor
            .run_node_local(&g, &cfg, 11, &mut seq)
            .unwrap();
        for threads in [2, 3, 4, 16] {
            let mut par = mk();
            let r_par = ParallelExecutor::new(threads)
                .run_node_local(&g, &cfg, 11, &mut par)
                .unwrap();
            assert_eq!(r_seq, r_par, "{threads} threads: report");
            assert_eq!(seq.nodes, par.nodes, "{threads} threads: node digests");
        }
    }

    #[test]
    fn thread_counts_resolve() {
        assert_eq!(ParallelExecutor::new(3).threads(), 3);
        assert!(ParallelExecutor::auto().threads() >= 1);
    }
}
