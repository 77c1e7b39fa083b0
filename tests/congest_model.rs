//! Integration tests of the CONGEST model enforcement across the stack.

use distributed_random_walks::prelude::*;
use drw_congest::primitives::{BfsTreeProtocol, UpcastMsg, UpcastProtocol, VectorSumProtocol};
use drw_congest::{
    run_node_local, run_protocol, Ctx, Envelope, FaultPlan, Message, Mux2, NodeCtx,
    NodeLocalProtocol, ParallelExecutor, Protocol, RoundExecutor, RunError, Runner,
    ScriptedSchedule, ScriptedTiming, SequentialExecutor, ShardedExecutor,
};
use drw_core::get_more_walks::GetMoreWalksProtocol;
use drw_core::short_walks::ShortWalksProtocol;
use drw_core::{StitchScheduler, StitchSetup, WalkState};

/// Naive walks cost exactly their length in rounds — the model's
/// baseline sanity anchor.
#[test]
fn naive_walk_rounds_equal_length() {
    let g = generators::torus2d(5, 5);
    for len in [1u64, 10, 321] {
        let (_, rounds) = naive_walk(&g, 0, len, 7).unwrap();
        assert_eq!(rounds, len);
    }
}

/// Bandwidth enforcement: a message wider than the configured word cap
/// aborts any protocol, including through the high-level drivers.
#[test]
fn oversized_messages_abort() {
    let g = generators::path(4);
    let cfg = EngineConfig {
        max_message_words: 2, // walk tokens need 4 words
        ..EngineConfig::default()
    };
    let mut state = WalkState::new(g.n());
    let mut p = ShortWalksProtocol::new(&mut state, vec![1; 4], 2, true);
    let err = run_node_local(&g, &cfg, 1, &mut p).unwrap_err();
    assert!(matches!(
        err,
        RunError::OversizedMessage { words: 4, cap: 2 }
    ));
}

/// The round cap surfaces as a walk error through the driver.
#[test]
fn round_cap_surfaces_through_drivers() {
    let g = generators::torus2d(4, 4);
    let cfg = SingleWalkConfig {
        engine: EngineConfig {
            max_rounds: 3,
            ..EngineConfig::default()
        },
        ..SingleWalkConfig::default()
    };
    let err = single_random_walk(&g, 0, 4096, &cfg, 1).unwrap_err();
    assert!(matches!(
        err,
        WalkError::Engine(RunError::MaxRoundsExceeded(3))
    ));
}

/// Congestion (many tokens over few edges) shows up as extra rounds, not
/// as lost messages: all Phase-1 walks complete on a bottleneck graph.
#[test]
fn congestion_delays_but_never_drops() {
    let g = generators::barbell(6, 1); // single bridge edge bottleneck
    let mut state = WalkState::new(g.n());
    let counts: Vec<usize> = (0..g.n()).map(|v| 2 * g.degree(v)).collect();
    let total: usize = counts.iter().sum();
    let mut p = ShortWalksProtocol::new(&mut state, counts, 12, true);
    let report = run_node_local(&g, &EngineConfig::default(), 3, &mut p).unwrap();
    assert_eq!(state.total_stored(), total, "every token must land");
    // The bridge forces serialization: strictly more rounds than the
    // maximum walk length.
    assert!(report.rounds > 24, "rounds = {}", report.rounds);
    assert!(report.max_edge_backlog > 1);
}

// ---------------------------------------------------------------------------
// Per-protocol word accounting: `RunReport::max_edge_words_per_round` is
// the runtime complement of drw-analyze's static `size_words` audit. At
// the default `edge_capacity = Some(1)` each directed edge delivers at
// most one message per round, so the recorded maximum must equal the
// protocol's wire-format width exactly — any widening of a message
// struct shows up here as a changed constant.
// ---------------------------------------------------------------------------

/// BFS wave messages are 2 words (`Option<u32>` distance + wave flag).
#[test]
fn bfs_edge_words_match_wire_format() {
    let g = generators::torus2d(6, 6);
    let cfg = EngineConfig::default();
    let mut p = BfsTreeProtocol::new(0);
    let report = run_protocol(&g, &cfg, 11, &mut p).unwrap();
    assert_eq!(report.max_edge_words_per_round, 2);
    assert!(report.max_edge_words_per_round <= cfg.max_message_words);
}

/// Upcast items are `(u64, u64)` pairs: 2 words per edge per round, one
/// item at a time up the tree (the pipelining is in time, not width).
#[test]
fn upcast_edge_words_match_wire_format() {
    let g = generators::torus2d(5, 5);
    let cfg = EngineConfig::default();
    let mut bfs = BfsTreeProtocol::new(0);
    run_protocol(&g, &cfg, 13, &mut bfs).unwrap();
    let tree = bfs.into_tree();
    let items: Vec<Vec<(u64, u64)>> = (0..g.n() as u64).map(|v| vec![(v, 3 * v)]).collect();
    let mut p = UpcastProtocol::new(tree, items);
    let report = run_protocol(&g, &cfg, 13, &mut p).unwrap();
    assert_eq!(report.max_edge_words_per_round, 2);
}

/// Vector-sum convergecast: `(index, partial-sum)` pairs, 2 words.
#[test]
fn vecsum_edge_words_match_wire_format() {
    let g = generators::torus2d(5, 5);
    let cfg = EngineConfig::default();
    let mut bfs = BfsTreeProtocol::new(0);
    run_protocol(&g, &cfg, 17, &mut bfs).unwrap();
    let tree = bfs.into_tree();
    let values: Vec<Vec<u64>> = (0..g.n() as u64).map(|v| vec![v, v + 1]).collect();
    let mut p = VectorSumProtocol::new(tree, values);
    let report = run_protocol(&g, &cfg, 17, &mut p).unwrap();
    assert_eq!(report.max_edge_words_per_round, 2);
}

/// Phase-1 walk tokens are the widest production payload: 4 words
/// (source, seq, remaining steps, length) — exactly the default cap.
#[test]
fn short_walks_edge_words_match_wire_format() {
    let g = generators::torus2d(4, 4);
    let cfg = EngineConfig::default();
    let mut state = WalkState::new(g.n());
    let mut p = ShortWalksProtocol::new(&mut state, vec![2; g.n()], 8, false);
    let report = run_node_local(&g, &cfg, 19, &mut p).unwrap();
    assert_eq!(report.max_edge_words_per_round, 4);
    assert_eq!(report.max_edge_words_per_round, cfg.max_message_words);
}

/// Aggregated GET-MORE-WALKS ships one token *count* per edge — 2
/// words regardless of how many walks it replenishes. That constant is
/// the whole point of the aggregation (Algorithm 2).
#[test]
fn gmw_edge_words_match_wire_format() {
    let g = generators::torus2d(5, 5);
    let cfg = EngineConfig::default();
    let mut state = WalkState::new(g.n());
    let mut p = GetMoreWalksProtocol::new(&mut state, 7, 64, 6, true);
    let report = run_protocol(&g, &cfg, 23, &mut p).unwrap();
    assert_eq!(report.max_edge_words_per_round, 2);
}

/// The batched Phase-2 scheduler multiplexes every lane over
/// `Mux2<StitchMsg>`: widest arm (Wave/Chosen/Swk, 3 words) plus the
/// packed `(req, lane)` word — 4 words, at but never over the cap.
#[test]
fn stitch_scheduler_edge_words_match_wire_format() {
    let g = generators::torus2d(4, 4);
    let cfg = EngineConfig::default();
    let mut runner = Runner::new(&g, cfg.clone(), 29);
    let mut state = WalkState::new(g.n());
    {
        let mut p = ShortWalksProtocol::new(&mut state, vec![4; g.n()], 8, true);
        runner.run_local(&mut p).unwrap();
    }
    let setup = StitchSetup {
        lambda: 8,
        randomize_len: true,
        aggregated_gmw: true,
        gmw_count: 8,
        record: false,
    };
    let mut sched = StitchScheduler::new(&setup);
    for source in [0usize, 5, 10] {
        sched.add_walk(source, 128);
    }
    let out = sched.run(&mut runner, &mut state).unwrap();
    assert_eq!(out.report.max_edge_words_per_round, 4);
    assert!(out.report.max_edge_words_per_round <= cfg.max_message_words);
}

/// The fault/ARQ lane never widens the wire format: retransmissions
/// resend the original token through the same capacity-enforced
/// buckets, so a lossy healed run stays at the 4-word walk-token width.
#[test]
fn arq_retransmissions_do_not_widen_edges() {
    let g = generators::torus2d(4, 4);
    let cfg = EngineConfig::default().with_faults(FaultPlan::drops(7, 80));
    let mut state = WalkState::new(g.n());
    let mut p = ShortWalksProtocol::new(&mut state, vec![2; g.n()], 8, false);
    let report = run_node_local(&g, &cfg, 31, &mut p).unwrap();
    assert!(report.faults.dropped > 0, "the plan must actually bite");
    assert_eq!(report.max_edge_words_per_round, 4);
    assert!(report.max_edge_words_per_round <= cfg.max_message_words);
}

/// The ack/seq (ARQ) lane keeps its word pin under *every* scripted
/// fault timing: whichever of a round's deliveries the drop/delay
/// budget lands on, the healed run still stores every token and the
/// wire never widens past the 4-word walk-token format.
#[test]
fn ack_lane_words_pinned_under_scripted_fault_timing() {
    let g = generators::torus2d(4, 4);
    let plan = FaultPlan::new(41).with_drops(80).with_delays(50, 3);
    let total = 2 * g.n();
    for index in 0..6u64 {
        let cfg = EngineConfig::default().with_faults(plan.with_timing(ScriptedTiming::new(index)));
        let mut state = WalkState::new(g.n());
        let mut p = ShortWalksProtocol::new(&mut state, vec![2; g.n()], 8, true);
        let report = run_node_local(&g, &cfg, 31, &mut p).unwrap();
        assert!(
            report.faults.total() > 0,
            "timing {index}: the plan must actually bite"
        );
        assert_eq!(
            state.total_stored(),
            total,
            "timing {index}: ARQ must heal every token"
        );
        assert_eq!(report.max_edge_words_per_round, 4, "timing {index}");
    }
}

/// A dense gossip over `Mux2`-multiplexed payloads, for pinning the
/// two-level multiplex header's word price under scripted within-shard
/// item schedules.
struct Mux2Gossip {
    ttl: u64,
    nodes: Vec<u64>,
}

type LaneMsg = Mux2<UpcastMsg>;

impl NodeLocalProtocol for Mux2Gossip {
    type Msg = LaneMsg;
    type Shared = u64;
    type NodeState = u64;

    fn start(&mut self, ctx: &mut Ctx<'_, LaneMsg>) {
        for v in 0..ctx.graph().n() {
            for u in ctx.graph().neighbors(v).collect::<Vec<_>>() {
                let m = UpcastMsg((v as u64, 3 * v as u64));
                ctx.send(v, u, Mux2::new((v % 3) as u16, (u % 5) as u16, m));
            }
        }
    }

    fn parts(&mut self) -> (&u64, &mut [u64]) {
        (&self.ttl, &mut self.nodes)
    }

    fn on_receive_local(
        ttl: &u64,
        state: &mut u64,
        node: usize,
        inbox: &[Envelope<LaneMsg>],
        ctx: &mut NodeCtx<'_, LaneMsg>,
    ) {
        for env in inbox {
            *state = state.rotate_left(9)
                ^ (u64::from(env.msg.req) << 40)
                ^ (u64::from(env.msg.lane) << 20)
                ^ env.msg.msg.0 .0
                ^ env.msg.msg.0 .1;
        }
        if ctx.round() < *ttl {
            let neighbors: Vec<usize> = ctx.graph().neighbors(node).collect();
            for u in neighbors {
                let m = UpcastMsg((node as u64, ctx.round()));
                ctx.send(u, Mux2::new((node % 3) as u16, (u % 5) as u16, m));
            }
        }
    }
}

/// `Mux2` under item-level schedules: the packed `(req, lane)` header
/// plus the 2-word inner payload is exactly 3 words, and neither the
/// word pin nor the results move when each claimed shard processes its
/// items in scripted (rotated) orders instead of node order.
#[test]
fn mux2_words_pinned_under_item_level_schedules() {
    let g = generators::torus2d(4, 4);
    let cfg = EngineConfig::default();
    let mk = || Mux2Gossip {
        ttl: 5,
        nodes: vec![0; g.n()],
    };

    let mut seq = mk();
    let r_seq = SequentialExecutor
        .run_node_local(&g, &cfg, 43, &mut seq)
        .unwrap();
    assert_eq!(r_seq.max_edge_words_per_round, 3, "header + 2-word payload");

    for rot in 0..6usize {
        let mut p = mk();
        let schedule = ScriptedSchedule {
            msgs_per_shard: 4,
            merge_in_claim_order: false,
            scramble_item_order: false,
            order: &mut |_round, s| (0..s).collect(),
            item_order: Some(&mut |round, shard, c| {
                // A rotation keyed off (round, shard, rot): a valid
                // permutation that departs from node order on every
                // multi-item shard.
                let k = (round as usize + shard + rot) % c.max(1);
                (0..c).map(|i| (i + k) % c).collect()
            }),
        };
        let r = ShardedExecutor::run_node_local_scripted(&g, &cfg, 43, &mut p, schedule).unwrap();
        assert_eq!(r.max_edge_words_per_round, 3, "rotation {rot}");
        // Bit-identity: report and per-node digests must not see the
        // item schedule. (Balance telemetry is executor-specific.)
        assert_eq!(r.rounds, r_seq.rounds, "rotation {rot}");
        assert_eq!(r.messages, r_seq.messages, "rotation {rot}");
        assert_eq!(p.nodes, seq.nodes, "rotation {rot}: node digests");
    }
}

/// Message accounting is exact for a single token: one message per round.
#[test]
fn message_accounting_matches_rounds_for_single_token() {
    let g = generators::cycle(12);
    let mut p = drw_core::naive::NaiveWalkProtocol::new(
        vec![drw_core::naive::NaiveWalkSpec {
            source: 0,
            len: 57,
            start_pos: 0,
            record_start: false,
        }],
        None,
    );
    let report = run_protocol(&g, &EngineConfig::default(), 9, &mut p).unwrap();
    assert_eq!(report.rounds, 57);
    assert_eq!(report.messages, 57);
    assert_eq!(report.max_edge_backlog, 1);
}

// ---------------------------------------------------------------------------
// Inbox order. Every executor hands a node its round's messages grouped by
// ascending sender and FIFO per sender (the flat queue's slot order);
// reorder faults move envelopes to the end of the receiver's slice, in
// edge order. Protocols may rely on both, so they are pinned here.
// ---------------------------------------------------------------------------

/// A burst message: its per-edge sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Burst(u32);
impl Message for Burst {}

/// One node's received `(from, seq)` pairs, per round it received in.
type InboxLog = Vec<(u64, Vec<(usize, u32)>)>;

/// Every node sends a 3-message burst (seq 0..3) to each neighbour in
/// round 0 and a second one (seq 3..6) on its round-1 receive, so with
/// `edge_capacity: Some(2)` each edge carries leftovers that later sends
/// queue behind. Sends never depend on inbox order, so the per-edge
/// deliveries of every round are the same under any reordering.
fn burst(first: u32) -> impl Iterator<Item = Burst> {
    (first..first + 3).map(Burst)
}

fn log_inbox(log: &mut InboxLog, round: u64, inbox: &[Envelope<Burst>]) {
    log.push((round, inbox.iter().map(|e| (e.from, e.msg.0)).collect()));
}

/// The plain-`Protocol` burst probe, for the sequential reference.
struct BurstProbe {
    logs: Vec<InboxLog>,
}

impl Protocol for BurstProbe {
    type Msg = Burst;

    fn start(&mut self, ctx: &mut Ctx<'_, Burst>) {
        for v in 0..ctx.graph().n() {
            for u in ctx.graph().neighbors(v).collect::<Vec<_>>() {
                for m in burst(0) {
                    ctx.send(v, u, m);
                }
            }
        }
    }

    fn on_receive(&mut self, node: usize, inbox: &[Envelope<Burst>], ctx: &mut Ctx<'_, Burst>) {
        log_inbox(&mut self.logs[node], ctx.round(), inbox);
        if ctx.round() == 1 {
            for u in ctx.graph().neighbors(node).collect::<Vec<_>>() {
                for m in burst(3) {
                    ctx.send(node, u, m);
                }
            }
        }
    }
}

/// The node-local twin of [`BurstProbe`], which the parallel and sharded
/// executors actually shard.
struct BurstProbeLocal {
    logs: Vec<InboxLog>,
}

impl NodeLocalProtocol for BurstProbeLocal {
    type Msg = Burst;
    type Shared = ();
    type NodeState = InboxLog;

    fn start(&mut self, ctx: &mut Ctx<'_, Burst>) {
        BurstProbe { logs: Vec::new() }.start(ctx);
    }

    fn parts(&mut self) -> (&(), &mut [InboxLog]) {
        (&(), &mut self.logs)
    }

    fn on_receive_local(
        _: &(),
        log: &mut InboxLog,
        node: usize,
        inbox: &[Envelope<Burst>],
        ctx: &mut NodeCtx<'_, Burst>,
    ) {
        log_inbox(log, ctx.round(), inbox);
        if ctx.round() == 1 {
            for u in ctx.graph().neighbors(node).collect::<Vec<_>>() {
                for m in burst(3) {
                    ctx.send(u, m);
                }
            }
        }
    }
}

/// Runs the burst probe on all three executors (the plain protocol on
/// the sequential reference, the node-local twin on every backend, with
/// worker counts and a scripted reversed shard claim that shard every
/// round big enough) and returns the per-node logs, asserting they
/// agree everywhere.
fn burst_logs(g: &Graph, cfg: &EngineConfig) -> Vec<InboxLog> {
    let mut plain = BurstProbe {
        logs: vec![Vec::new(); g.n()],
    };
    let r_ref = run_protocol(g, cfg, 5, &mut plain).unwrap();
    let local = || BurstProbeLocal {
        logs: vec![Vec::new(); g.n()],
    };
    let mut seq = local();
    let r_seq = SequentialExecutor
        .run_node_local(g, cfg, 5, &mut seq)
        .unwrap();
    let mut par = local();
    let r_par = ParallelExecutor::new(3)
        .run_node_local(g, cfg, 5, &mut par)
        .unwrap();
    let mut sha = local();
    let r_sha = ShardedExecutor::new(2)
        .run_node_local(g, cfg, 5, &mut sha)
        .unwrap();
    let mut scripted = local();
    let mut reversed = |_round, s| (0..s).rev().collect();
    let schedule = ScriptedSchedule::new(16, &mut reversed);
    let r_scr =
        ShardedExecutor::run_node_local_scripted(g, cfg, 5, &mut scripted, schedule).unwrap();
    for (name, r, logs) in [
        ("node-local sequential", &r_seq, &seq.logs),
        ("parallel", &r_par, &par.logs),
        ("sharded", &r_sha, &sha.logs),
        ("scripted sharded", &r_scr, &scripted.logs),
    ] {
        assert_eq!(r, &r_ref, "{name}: report");
        assert_eq!(logs, &plain.logs, "{name}: inbox logs");
    }
    assert!(
        r_scr.balance.as_ref().unwrap().rounds_measured > 0,
        "the scripted sharded run must actually shard"
    );
    plain.logs
}

/// Burst graphs and the capacity that makes bursts back up. `complete(24)`
/// has 23 neighbours per node and 24 * 23 * 2 = 1104 deliveries per busy
/// round: past the parallel backend's fan-out threshold, enough for
/// several 256-message shards, and staged through the radix sort.
/// `complete(5)` stages 60 sends a round, through the comparison sort.
fn burst_configs() -> Vec<(Graph, EngineConfig)> {
    let cfg = EngineConfig {
        edge_capacity: Some(2),
        ..EngineConfig::default()
    };
    vec![
        (generators::complete(24), cfg.clone()),
        (generators::complete(5), cfg),
    ]
}

/// Every inbox is grouped by ascending sender and FIFO per sender, on
/// every executor — and FIFO holds across rounds, through the capacity
/// leftovers that later bursts queue behind.
#[test]
fn inboxes_are_grouped_by_sender_and_fifo_on_every_executor() {
    for (g, cfg) in burst_configs() {
        let logs = burst_logs(&g, &cfg);
        for (node, log) in logs.iter().enumerate() {
            assert!(log.len() >= 3, "node {node}: bursts span three rounds");
            let mut per_sender: Vec<Vec<u32>> = vec![Vec::new(); g.n()];
            for (round, inbox) in log {
                assert!(
                    inbox.windows(2).all(|w| w[0].0 <= w[1].0),
                    "node {node} round {round}: inbox not grouped by sender: {inbox:?}"
                );
                for &(from, seq) in inbox {
                    per_sender[from].push(seq);
                }
            }
            for u in g.neighbors(node) {
                assert_eq!(per_sender[u], (0..6).collect::<Vec<_>>(), "{u} -> {node}");
            }
        }
    }
}

/// Whether `got` is `want` with some subsequence moved, in order, to the
/// end (messages are unique, so the greedy two-pointer match is exact).
fn is_reordered_tail(want: &[(usize, u32)], got: &[(usize, u32)]) -> bool {
    want.len() == got.len()
        && (0..=got.len()).any(|p| {
            let (head, tail) = got.split_at(p);
            let (mut a, mut b) = (0, 0);
            want.iter().all(|x| {
                if head.get(a) == Some(x) {
                    a += 1;
                } else if tail.get(b) == Some(x) {
                    b += 1;
                } else {
                    return false;
                }
                true
            }) && a == head.len()
                && b == tail.len()
        })
}

/// Under a reorder-only plan each round delivers the same messages, and
/// every inbox is the fault-free inbox with its reordered envelopes
/// moved to the end of the slice, in edge order.
#[test]
fn reordered_envelopes_land_last_in_edge_order() {
    for (g, cfg) in burst_configs() {
        let clean = burst_logs(&g, &cfg);
        let faulty_cfg = cfg.with_faults(FaultPlan::new(17).with_reorder(150));
        let faulty = burst_logs(&g, &faulty_cfg);
        let mut moved = 0;
        for (node, (want, got)) in clean.iter().zip(&faulty).enumerate() {
            assert_eq!(want.len(), got.len(), "node {node}: same receive rounds");
            for ((round, w), (round2, f)) in want.iter().zip(got) {
                assert_eq!(round, round2, "node {node}");
                assert!(
                    is_reordered_tail(w, f),
                    "node {node} round {round}: {f:?} is not {w:?} with a reordered tail"
                );
                moved += usize::from(w != f);
            }
        }
        assert!(moved > 0, "n = {}: the plan must reorder some inbox", g.n());
    }
}
