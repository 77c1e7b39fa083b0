//! One pass over a workload's inputs: what it timed, what it counted,
//! and the deterministic outputs another pass must reproduce.

use crate::calib::Calibration;
use crate::report::Metrics;
use crate::stats::{median, tail};
use drw_core::SingleWalkResult;
use std::time::Instant;

/// The per-call counters `core::single_walk` reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalkFields {
    pub rounds_bfs: u64,
    pub rounds_phase1: u64,
    pub rounds_stitch: u64,
    pub rounds_tail: u64,
    pub stitches: u64,
    pub gmw_invocations: u64,
    pub lambda: u64,
    pub messages: u64,
}

impl WalkFields {
    pub fn of(r: &SingleWalkResult) -> Self {
        WalkFields {
            rounds_bfs: r.rounds_bfs,
            rounds_phase1: r.rounds_phase1,
            rounds_stitch: r.rounds_stitch,
            rounds_tail: r.rounds_tail,
            stitches: r.stitches,
            gmw_invocations: r.gmw_invocations,
            lambda: u64::from(r.lambda),
            messages: r.messages,
        }
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall milliseconds per call or ticket.
    pub op_ms: Vec<f64>,
    /// When each op started and ended.
    pub op_span: Vec<(Instant, Instant)>,
    /// Rounds per walk call, or ticket turnaround in rounds.
    pub op_rounds: Vec<f64>,
    /// Wall seconds of the whole pass.
    pub elapsed_s: f64,
    /// When the pass started and ended.
    pub span: Option<(Instant, Instant)>,
    /// Engine rounds the pass consumed.
    pub engine_rounds: u64,
    /// Calls made or arrivals submitted.
    pub attempted: u64,
    /// Failed calls, `Err` completions and rejected submissions.
    pub failed: u64,
    /// Deterministic outputs, one record per call or ticket, in order.
    pub outputs: Vec<Vec<u64>>,
    /// Per-walk counters of every walk call or walk ticket.
    pub walks: Vec<WalkFields>,
    /// Layer metrics only this kind of workload can report.
    pub layers: Metrics,
    /// Correctness violations found while running.
    pub problems: Vec<String>,
}

impl Pass {
    /// Records a correctness violation.
    pub fn fail(&mut self, problem: String) {
        eprintln!("[perfbench] incorrect: {problem}");
        self.problems.push(problem);
    }

    /// Op wall times, each scaled by the host calibration over its span.
    pub fn calibrated_op_ms(&self, calib: &Calibration) -> Vec<f64> {
        self.op_ms
            .iter()
            .zip(&self.op_span)
            .map(|(ms, &(start, end))| ms * calib.scale_over(start, end))
            .collect()
    }

    /// The calibration factor over the whole pass.
    pub fn scale(&self, calib: &Calibration) -> f64 {
        self.span
            .map_or(1.0, |(start, end)| calib.scale_over(start, end))
    }

    /// The end-to-end metrics of this pass (all but set-up time and
    /// peak RSS, which are measured outside any pass), host-calibrated.
    pub fn end_to_end(&self, m: &mut Metrics, calib: &Calibration) {
        let done = self.op_ms.len() as f64;
        let op_ms = self.calibrated_op_ms(calib);
        let scale = self.scale(calib);
        m.set(
            "ops_per_s",
            done / (self.elapsed_s * scale).max(1e-9),
            "1/s",
        );
        m.set("op_ms_p50", median(&op_ms), "ms");
        m.set("op_ms_tail", tail(&op_ms).map_or(0.0, |t| t.value), "ms");
        m.set("rounds_p50", median(&self.op_rounds), "rounds");
        m.set(
            "rounds_tail",
            tail(&self.op_rounds).map_or(0.0, |t| t.value),
            "rounds",
        );
        m.set("engine_rounds", self.engine_rounds as f64, "rounds");
    }

    /// Medians of the per-walk counters (zeros when the pass made no
    /// walk calls).
    pub fn walk_metrics(&self, m: &mut Metrics) {
        let col = |f: fn(&WalkFields) -> u64| -> f64 {
            median(&self.walks.iter().map(|w| f(w) as f64).collect::<Vec<_>>())
        };
        m.set("walk.rounds_bfs", col(|w| w.rounds_bfs), "rounds");
        m.set("walk.rounds_phase1", col(|w| w.rounds_phase1), "rounds");
        m.set("walk.rounds_stitch", col(|w| w.rounds_stitch), "rounds");
        m.set("walk.rounds_tail", col(|w| w.rounds_tail), "rounds");
        m.set("walk.stitches", col(|w| w.stitches), "count");
        m.set("walk.gmw_invocations", col(|w| w.gmw_invocations), "count");
        m.set("walk.lambda", col(|w| w.lambda), "steps");
        m.set("walk.messages", col(|w| w.messages), "count");
    }

    /// A description of how the tail statistics were taken.
    pub fn tail_note(&self) -> String {
        match tail(&self.op_ms) {
            Some(t) => format!(
                "tail = p{} of {} samples, {} beyond it",
                t.percentile,
                self.op_ms.len(),
                t.beyond
            ),
            None => "no samples".to_string(),
        }
    }
}

/// Compares the deterministic outputs of two passes over the same
/// inputs; returns the first difference.
pub fn compare(what: &str, a: &Pass, b: &Pass) -> Result<(), String> {
    if a.engine_rounds != b.engine_rounds {
        return Err(format!(
            "{what}: engine rounds {} != {}",
            a.engine_rounds, b.engine_rounds
        ));
    }
    if a.outputs.len() != b.outputs.len() {
        return Err(format!(
            "{what}: {} outputs != {}",
            a.outputs.len(),
            b.outputs.len()
        ));
    }
    for (i, (x, y)) in a.outputs.iter().zip(&b.outputs).enumerate() {
        if x != y {
            return Err(format!("{what}: output {i} differs: {x:?} != {y:?}"));
        }
    }
    Ok(())
}
