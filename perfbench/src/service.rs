//! `torus_service` and `churn_mixed_service`: continuous `Service`s
//! serving a seeded multi-tenant arrival trace, made of segments of
//! [`SEGMENT`] arrivals: one long-lived service for the torus, a fresh
//! service per segment for churn.
//!
//! The loop is open in virtual time: each arrival is released through
//! `Service::submit` once `now()` reaches its round, or at once when the
//! service is idle (the rest of the schedule moves up by the idle gap,
//! as `Service::serve_trace` fast-forwards). It pumps and drains until
//! idle and times each ticket in wall time from `submit` to the `drain`
//! that returns it.

use crate::calib::Calibration;
use crate::pass::{Pass, WalkFields};
use crate::spans::Tracer;
use crate::stats::{median, percentile, store_waste_ratio};
use drw_congest::{derive_seed, ExecutorKind};
use drw_core::{
    ArrivalTrace, MixedTraceSpec, MixingRequest, Request, Response, Service, ServiceConfig,
    WalkSession,
};
use drw_graph::{generators, Graph, NodeId, TopologyDelta};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The request kinds a trace can carry, as `Request::kind` names them.
pub const KINDS: [&str; 5] = [
    "walk",
    "many-walks",
    "spanning-tree",
    "mixing-time",
    "mutate",
];

const SERVICE_TAG: u64 = 0x5E7C;
const TRACE_TAG: u64 = 0x7ACE;
/// Tenant of the warm-up ticket; no trace tenant uses it.
const WARMUP_TENANT: u32 = 1 << 20;

/// Arrivals per trace segment.
pub const SEGMENT: usize = 128;
/// Virtual-time distance between segment starts: longer than any
/// segment takes to drain, so each segment starts on an idle service.
const SEGMENT_SPACING: u64 = 1 << 40;

/// A service workload: the torus it runs on and its trace mix.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Side of the torus.
    pub side: usize,
    /// The mix of one segment of [`SEGMENT`] arrivals (its `events`
    /// field is unused; see [`Workload::arrivals`]).
    pub trace: MixedTraceSpec,
    /// Segments of [`SEGMENT`] arrivals a run serves.
    pub segments: usize,
    /// Whether each segment gets a fresh service (`false`: one
    /// long-lived service serves them back to back, each once the
    /// previous one drained).
    pub fresh_per_segment: bool,
    /// Length of the warm-up walk, which sizes the session's store.
    pub warmup_len: u64,
}

/// `torus_service`: 64x64 torus (D = 64), 4 tenants, walks of
/// 1024..=4096 steps and 20% `MANY-RANDOM-WALKS` cohorts, nothing else.
pub fn torus_service(segments: usize) -> Workload {
    let side = 64;
    Workload {
        side,
        segments,
        fresh_per_segment: false,
        trace: MixedTraceSpec {
            mean_gap: 2048,
            walk_len_min: 1024,
            walk_len_max: 4096,
            many_pct: 20,
            many_k_max: 3,
            tree_pct: 0,
            mix_pct: 0,
            mutate_pct: 0,
            ..MixedTraceSpec::balanced(side * side, 4, SEGMENT)
        },
        warmup_len: 4096,
    }
}

/// `churn_mixed_service`: 32x32 torus, 3 tenants, the balanced mix of
/// walks, cohorts, spanning trees and mixing probes, with 10% edge
/// toggles over fixed non-edge pairs.
pub fn churn_mixed_service(segments: usize) -> Workload {
    let side = 32;
    let n = side * side;
    // Diagonal chords are never torus edges, so every toggle is valid
    // and removing one never disconnects the graph.
    let churn_pairs = (0..4).map(|j| (j * n / 4, j * n / 4 + side + 1)).collect();
    Workload {
        side,
        segments,
        fresh_per_segment: true,
        trace: MixedTraceSpec {
            many_k_max: 3,
            mutate_pct: 10,
            churn_pairs,
            ..MixedTraceSpec::balanced(n, 3, SEGMENT)
        },
        warmup_len: 512,
    }
}

impl Workload {
    /// The seeded arrival trace, stratified so that traces of different
    /// seeds do the same work in different arrangements. Every segment of
    /// [`SEGMENT`] arrivals carries exactly the mix's share of each
    /// request kind, in the same evenly spread order; its walk lengths,
    /// arrival gaps and cohort sizes are fixed, evenly spread sets of
    /// values over the mix's ranges, dealt out in a seeded order; edge
    /// toggles cycle through the churn pairs. Sources and tenants are
    /// drawn uniformly.
    ///
    /// Returns one trace per service: every segment on its own when each
    /// gets a fresh service, else one trace in which segment `j` starts
    /// at round `j * SEGMENT_SPACING`.
    pub fn arrivals(&self, seed: u64) -> Vec<ArrivalTrace> {
        let spec = &self.trace;
        let mut rng = Stream::new(derive_seed(seed, TRACE_TAG));
        // Each pair's toggles alternate over everything one service
        // serves, so every delta is valid against the topology the
        // previous ones left.
        let mut pair_active = vec![false; spec.churn_pairs.len()];
        let mut toggles = 0usize;
        let mut traces = Vec::new();
        let kinds = segment_kinds(spec);
        let walking = kinds
            .iter()
            .filter(|k| matches!(k, Kind::Walk | Kind::Many))
            .count();
        let cohorts = kinds.iter().filter(|k| **k == Kind::Many).count();
        let n = spec.n as u64;
        let mut trace = ArrivalTrace::new();
        for j in 0..self.segments as u64 {
            if self.fresh_per_segment {
                pair_active.fill(false);
                toggles = 0;
            }
            let mut lens = rng.deal(evenly(walking, spec.walk_len_min, spec.walk_len_max));
            let mut gaps = rng.deal(evenly(SEGMENT - 1, 0, 2 * spec.mean_gap));
            let mut sizes = rng.deal(evenly(cohorts, 2, spec.many_k_max));
            let mut at = if self.fresh_per_segment {
                0
            } else {
                j * SEGMENT_SPACING
            };
            for (i, kind) in kinds.iter().enumerate() {
                if i > 0 {
                    at += gaps.next().expect("one gap per arrival after the first");
                }
                let tenant = rng.below(u64::from(spec.tenants)) as u32;
                let request = match kind {
                    Kind::Mutate => {
                        let p = toggles % spec.churn_pairs.len();
                        toggles += 1;
                        let (u, v) = spec.churn_pairs[p];
                        let delta = if pair_active[p] {
                            TopologyDelta::new().remove_edge(u, v)
                        } else {
                            TopologyDelta::new().add_edge(u, v)
                        };
                        pair_active[p] = !pair_active[p];
                        Request::Mutate(delta)
                    }
                    Kind::Tree => Request::spanning_tree(rng.below(n) as NodeId),
                    Kind::Probe => Request::MixingTime(MixingRequest::probe_at(
                        rng.below(n) as NodeId,
                        spec.probe_len,
                    )),
                    Kind::Many => {
                        let k = sizes.next().expect("one size per cohort");
                        let sources = (0..k).map(|_| rng.below(n) as NodeId).collect();
                        Request::many_walks(sources, lens.next().expect("one length per walk"))
                    }
                    Kind::Walk => Request::walk(
                        rng.below(n) as NodeId,
                        lens.next().expect("one length per walk"),
                    ),
                };
                trace = trace.push(at, tenant, request);
            }
            if self.fresh_per_segment {
                traces.push(std::mem::take(&mut trace));
            }
        }
        if !self.fresh_per_segment {
            traces.push(trace);
        }
        traces
    }

    /// The torus.
    pub fn graph(&self, tracer: &mut Tracer) -> Graph {
        let open = tracer.begin("graph.build", 0);
        let g = generators::torus2d(self.side, self.side);
        tracer.end(open);
        g
    }

    /// Builds the service on `kind` and serves one warm-up ticket, which
    /// runs the session's BFS and fills its store.
    pub fn setup(
        &self,
        g: &Graph,
        kind: ExecutorKind,
        seed: u64,
        tracer: &mut Tracer,
    ) -> Result<Service, String> {
        let open = tracer.begin("service.build", 0);
        let mut svc = Service::builder(g)
            .config(crate::walk_config(kind))
            .service_config(ServiceConfig::default())
            .seed(derive_seed(seed, SERVICE_TAG))
            .build();
        tracer.end(open);
        let open = tracer.begin("service.warmup", 0);
        svc.submit(WARMUP_TENANT, Request::walk(0, self.warmup_len))
            .map_err(|e| format!("warm-up submit: {e}"))?;
        svc.run_until_idle()
            .map_err(|e| format!("warm-up ticket: {e}"))?;
        let done = svc.drain();
        tracer.end(open);
        match done.as_slice() {
            [c] if c.response.is_ok() => Ok(svc),
            other => Err(format!("warm-up resolved as {other:?}")),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Mutate,
    Tree,
    Probe,
    Many,
    Walk,
}

/// One segment's request kinds: each kind's percentage of [`SEGMENT`],
/// rounded, walks for the rest, spread evenly over the segment (the
/// slot goes to the kind furthest behind its share so far).
fn segment_kinds(spec: &MixedTraceSpec) -> Vec<Kind> {
    let share = |pct: u64| (pct as f64 * SEGMENT as f64 / 100.0).round() as usize;
    let mutate = if spec.churn_pairs.is_empty() {
        0
    } else {
        share(spec.mutate_pct)
    };
    let mut counts = vec![
        (Kind::Mutate, mutate),
        (Kind::Tree, share(spec.tree_pct)),
        (Kind::Probe, share(spec.mix_pct)),
        (Kind::Many, share(spec.many_pct)),
    ];
    let others: usize = counts.iter().map(|c| c.1).sum();
    counts.push((Kind::Walk, SEGMENT.saturating_sub(others)));
    let mut placed = vec![0usize; counts.len()];
    (1..=SEGMENT)
        .map(|slot| {
            let behind =
                |k: usize| counts[k].1 as f64 * slot as f64 / SEGMENT as f64 - placed[k] as f64;
            let k = (0..counts.len())
                .filter(|&k| placed[k] < counts[k].1)
                .max_by(|&a, &b| behind(a).total_cmp(&behind(b)).then(b.cmp(&a)))
                .expect("the counts sum to SEGMENT");
            placed[k] += 1;
            counts[k].0
        })
        .collect()
}

/// `count` values spread evenly over `lo..=hi`: the midpoints of `count`
/// equal slices of the range, so their mean is the range's mean.
fn evenly(count: usize, lo: u64, hi: u64) -> Vec<u64> {
    let width = (hi - lo + 1) as f64;
    (0..count)
        .map(|i| lo + ((i as f64 + 0.5) * width / count as f64) as u64)
        .collect()
}

/// Counter-mode draws from the engine's seed derivation, like the
/// trace synthesizer's.
struct Stream {
    seed: u64,
    ctr: u64,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Stream { seed, ctr: 0 }
    }

    /// Uniform in `[0, bound)` for `bound >= 1`.
    fn below(&mut self, bound: u64) -> u64 {
        self.ctr += 1;
        derive_seed(self.seed, self.ctr) % bound.max(1)
    }

    /// `values` in a uniformly random order (Fisher-Yates).
    fn deal(&mut self, mut values: Vec<u64>) -> std::vec::IntoIter<u64> {
        for i in (1..values.len()).rev() {
            values.swap(i, self.below(i as u64 + 1) as usize);
        }
        values.into_iter()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SessionCounters {
    topups: u64,
    rounds_topup: u64,
    walks_added: u64,
    walks_discarded: u64,
    repairs: u64,
    repair_bfs_reruns: u64,
    walks_evicted: u64,
}

impl SessionCounters {
    /// Adds what happened between `before` and `after`.
    fn add_since(&mut self, before: &Self, after: &Self) {
        self.topups += after.topups - before.topups;
        self.rounds_topup += after.rounds_topup - before.rounds_topup;
        self.walks_added += after.walks_added - before.walks_added;
        self.walks_discarded += after.walks_discarded - before.walks_discarded;
        self.repairs += after.repairs - before.repairs;
        self.repair_bfs_reruns += after.repair_bfs_reruns - before.repair_bfs_reruns;
        self.walks_evicted += after.walks_evicted - before.walks_evicted;
    }

    fn of(s: Option<&WalkSession>) -> Self {
        s.map_or_else(Self::default, |s| SessionCounters {
            topups: s.topups(),
            rounds_topup: s.rounds_topup(),
            walks_added: s.walks_added(),
            walks_discarded: s.walks_discarded(),
            repairs: s.repairs(),
            repair_bfs_reruns: s.repair_bfs_reruns(),
            walks_evicted: s.walks_evicted(),
        })
    }
}

/// A submitted ticket awaiting its completion.
struct Waiting {
    submitted: Instant,
    /// Calibration time spent before the submission.
    calib: Duration,
    kind: usize,
}

/// What the service layers did over a pass, summed over its units.
#[derive(Default)]
struct Layers {
    pump_ms: Vec<f64>,
    submit_us: Vec<f64>,
    lag: Vec<f64>,
    admission: Vec<f64>,
    kind_ms: [Vec<f64>; KINDS.len()],
    kind_rounds: [Vec<f64>; KINDS.len()],
    queue_depth_max: usize,
    pumps: u64,
    waves: u64,
    setup_rounds: u64,
    churn_rounds: u64,
    rejected: u64,
    session: SessionCounters,
}

/// Serves each unit's trace on its service (see the module docs): one
/// long-lived service with the whole trace, or one fresh service per
/// segment.
pub fn run_pass(
    units: Vec<(Service, ArrivalTrace)>,
    tracer: &mut Tracer,
    calib: &mut Calibration,
) -> Pass {
    let mut pass = Pass::default();
    let mut layers = Layers::default();
    let start = Instant::now();
    let calib_before = calib.spent();
    for (unit, (mut svc, trace)) in units.into_iter().enumerate() {
        // Ticket ids restart on every fresh service; span ids must not.
        let span_base = (unit as u64) << 32;
        serve(
            &mut svc,
            &trace,
            span_base,
            tracer,
            calib,
            &mut pass,
            &mut layers,
        );
    }
    pass.elapsed_s = (start.elapsed() - (calib.spent() - calib_before)).as_secs_f64();
    pass.span = Some((start, Instant::now()));
    report(&layers, &mut pass);
    pass
}

fn serve(
    svc: &mut Service,
    trace: &ArrivalTrace,
    span_base: u64,
    tracer: &mut Tracer,
    calib: &mut Calibration,
    pass: &mut Pass,
    layers: &mut Layers,
) {
    let n = svc.topology().snapshot().n();
    let events = trace.events();
    let before = svc.report();
    let session_before = SessionCounters::of(svc.session());
    let base = svc.now();
    let mut pulled = 0u64;
    let mut next = 0usize;
    let mut waiting: BTreeMap<u64, Waiting> = BTreeMap::new();
    loop {
        // Release every arrival that is due.
        while let Some(e) = events.get(next) {
            let due = base + e.at - pulled;
            if due > svc.now() {
                if !svc.is_idle() {
                    break;
                }
                pulled += due - svc.now();
            }
            layers.lag.push((svc.now() - (base + e.at - pulled)) as f64);
            let request = e.request.clone();
            let kind = KINDS
                .iter()
                .position(|k| *k == request.kind())
                .expect("every request kind is listed");
            let t0 = Instant::now();
            let submitted = svc.submit(e.tenant, request);
            let t1 = Instant::now();
            layers.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
            pass.attempted += 1;
            match submitted {
                Ok(ticket) => {
                    tracer.record("service.submit", span_base | ticket.id(), t0, t1);
                    waiting.insert(
                        ticket.id(),
                        Waiting {
                            submitted: t0,
                            calib: calib.spent(),
                            kind,
                        },
                    );
                }
                Err(_) => pass.failed += 1,
            }
            next += 1;
            layers.queue_depth_max = layers.queue_depth_max.max(svc.queued());
        }
        if svc.is_idle() && next == events.len() {
            break;
        }

        calib.tick();
        let open = tracer.begin("service.pump", layers.pumps);
        let t0 = Instant::now();
        let pumped = svc.pump();
        layers.pump_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tracer.end(open);
        layers.pumps += 1;
        if let Err(e) = pumped {
            pass.fail(format!("service-fatal pump error: {e}"));
            break;
        }

        let open = tracer.begin("service.drain", layers.pumps);
        let done = svc.drain();
        let drained = Instant::now();
        tracer.end(open);
        for c in done {
            let id = c.ticket.id();
            let Some(w) = waiting.remove(&id) else {
                pass.fail(format!("ticket {id} resolved twice or was never issued"));
                continue;
            };
            tracer.record("ticket", span_base | id, w.submitted, drained);
            let sampling = calib.spent() - w.calib;
            let ms = (drained - w.submitted - sampling).as_secs_f64() * 1e3;
            let rounds = c.turnaround() as f64;
            pass.op_ms.push(ms);
            pass.op_span.push((w.submitted, drained));
            pass.op_rounds.push(rounds);
            layers.kind_ms[w.kind].push(ms);
            layers.kind_rounds[w.kind].push(rounds);
            layers.admission.push(c.admission_latency() as f64);
            let mut out = vec![
                id,
                w.kind as u64,
                c.submitted_at,
                c.admitted_at,
                c.completed_at,
                c.billed_rounds,
            ];
            match &c.response {
                Ok(Response::Walk(r)) => {
                    out.push(r.destination as u64);
                    pass.walks.push(WalkFields::of(r));
                    if r.destination >= n {
                        pass.fail(format!("ticket {id}: destination {} >= n", r.destination));
                    }
                }
                Ok(Response::ManyWalks(r)) => {
                    out.extend(r.destinations.iter().map(|&d| d as u64));
                    if let Some(&d) = r.destinations.iter().find(|&&d| d >= n) {
                        pass.fail(format!("ticket {id}: cohort destination {d} >= n"));
                    }
                }
                Ok(Response::SpanningTree(t)) => {
                    out.extend(t.edges.iter().flat_map(|&(u, v)| [u as u64, v as u64]));
                    if t.edges.len() + 1 != n {
                        pass.fail(format!("ticket {id}: tree with {} edges", t.edges.len()));
                    }
                }
                Ok(Response::MixingTime(m)) => out.push(m.tau_estimate),
                Ok(Response::Epoch(e)) => out.push(e.epoch),
                Err(e) => {
                    eprintln!("[perfbench] ticket {id} failed: {e}");
                    pass.failed += 1;
                    out.push(u64::MAX);
                }
            }
            pass.outputs.push(out);
        }
    }

    if !waiting.is_empty() {
        pass.fail(format!("{} tickets never resolved", waiting.len()));
    }
    let after = svc.report();
    if !after.reconciles() {
        pass.fail(format!(
            "bills do not reconcile: setup {} + churn {} + billed {} != engine {}",
            after.setup_rounds,
            after.churn_rounds,
            after.billed_total(),
            after.engine_rounds
        ));
    }
    let engine_rounds = after.engine_rounds - before.engine_rounds;
    let waves = after.waves - before.waves;
    pass.engine_rounds += engine_rounds;
    pass.outputs.push(vec![engine_rounds, waves]);
    layers.waves += waves;
    layers.setup_rounds = after.setup_rounds;
    layers.churn_rounds += after.churn_rounds - before.churn_rounds;
    layers.rejected += after.rejected - before.rejected;
    layers
        .session
        .add_since(&session_before, &SessionCounters::of(svc.session()));
}

/// Sets the `session.*` and `service.*` layer metrics of a pass.
fn report(l: &Layers, pass: &mut Pass) {
    let m = &mut pass.layers;
    let s = &l.session;
    m.set("session.topups", s.topups as f64, "count");
    m.set("session.rounds_topup", s.rounds_topup as f64, "rounds");
    m.set("session.walks_added", s.walks_added as f64, "count");
    m.set("session.repairs", s.repairs as f64, "count");
    m.set(
        "session.repair_bfs_reruns",
        s.repair_bfs_reruns as f64,
        "count",
    );
    m.set("session.walks_evicted", s.walks_evicted as f64, "count");
    m.set(
        "session.store_waste_ratio",
        store_waste_ratio(s.walks_discarded, s.walks_evicted, s.walks_added),
        "ratio",
    );

    let p90 = |v: &[f64]| percentile(v, 90.0).unwrap_or(0.0);
    m.set("service.pump_ms_p50", median(&l.pump_ms), "ms");
    m.set("service.pump_ms_p90", p90(&l.pump_ms), "ms");
    m.set("service.pumps", l.pumps as f64, "count");
    m.set("service.waves", l.waves as f64, "count");
    m.set("service.queue_depth_max", l.queue_depth_max as f64, "count");
    m.set("service.setup_rounds", l.setup_rounds as f64, "rounds");
    m.set("service.churn_rounds", l.churn_rounds as f64, "rounds");
    m.set("service.rejected", l.rejected as f64, "count");
    m.set(
        "service.admission_wait_rounds_p50",
        median(&l.admission),
        "rounds",
    );
    m.set(
        "service.admission_wait_rounds_p90",
        p90(&l.admission),
        "rounds",
    );
    m.set("service.submit_us_p50", median(&l.submit_us), "us");
    m.set("service.release_lag_rounds_p90", p90(&l.lag), "rounds");
    for (k, kind) in KINDS.iter().enumerate() {
        m.set(
            format!("service.kind.{kind}.ms_p50"),
            median(&l.kind_ms[k]),
            "ms",
        );
        m.set(
            format!("service.kind.{kind}.rounds_p50"),
            median(&l.kind_rounds[k]),
            "rounds",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evenly_spread_values_cover_the_range_with_its_mean() {
        assert_eq!(evenly(4, 0, 7), vec![1, 3, 5, 7]);
        assert_eq!(evenly(2, 2, 3), vec![2, 3]);
        let v = evenly(101, 1024, 4096);
        assert!(v.iter().all(|x| (1024..=4096).contains(x)));
        let mean = v.iter().sum::<u64>() as f64 / v.len() as f64;
        assert!((mean - 2560.0).abs() < 1.0, "{mean}");
    }

    #[test]
    fn segments_carry_the_mix_exactly() {
        let w = churn_mixed_service(2);
        let kinds = segment_kinds(&w.trace);
        let count = |k: Kind| kinds.iter().filter(|x| **x == k).count();
        assert_eq!(kinds.len(), SEGMENT);
        assert_eq!(
            [
                Kind::Mutate,
                Kind::Tree,
                Kind::Probe,
                Kind::Many,
                Kind::Walk
            ]
            .map(count),
            [13, 10, 10, 26, 69]
        );
        let a = w.arrivals(3);
        assert_eq!(a.len(), 2, "one trace per fresh service");
        assert!(a
            .iter()
            .all(|t| t.len() == SEGMENT && t.events()[0].at == 0));
        let b = w.arrivals(4);
        let (a, b) = (a[1].events(), b[1].events());
        let same_kinds = a
            .iter()
            .zip(b)
            .all(|(x, y)| x.request.kind() == y.request.kind());
        assert!(same_kinds, "seeds change the arrangement, not the kinds");
        assert!(a.iter().zip(b).any(|(x, y)| x.request != y.request));

        let long = torus_service(3).arrivals(3);
        assert_eq!(long.len(), 1, "one trace for the long-lived service");
        assert_eq!(long[0].len(), 3 * SEGMENT);
        assert_eq!(long[0].events()[2 * SEGMENT].at, 2 * SEGMENT_SPACING);
    }
}
