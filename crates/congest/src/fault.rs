//! Deterministic, seeded fault injection for the CONGEST engine.
//!
//! A [`FaultPlan`] turns the perfect network the engine normally
//! simulates into a lossy one: at delivery time each message may be
//! dropped, delayed (re-enqueued a fixed number of rounds later), or
//! reordered (diverted behind the receiver's other deliveries of its
//! round). The
//! decision is a **pure function of `(plan seed, round, edge id,
//! in-bucket message index)`** — the logical identity of a delivery
//! attempt, which every executor backend presents in the same order —
//! so a faulty run is exactly as deterministic and backend-independent
//! as a fault-free one.
//!
//! Two transport disciplines are offered:
//!
//! - `heal = true` (default): the link layer behaves like stop-and-wait
//!   ARQ. A dropped message is retransmitted `rto` rounds later (and may
//!   be dropped again, independently). Every message is eventually
//!   delivered exactly once, so any timing-independent protocol
//!   terminates with bit-identical *results* and a larger round bill.
//!   The ack traffic is accounted in [`FaultCounters::ack_words`] (one
//!   word per recovered delivery), not in the report's delivered words.
//! - `heal = false`: drops are permanent. This models fail-silent links
//!   and is what the protocol-level healing machinery (scheduler
//!   re-issue, session repair) is tested against.
//!
//! Faulted messages still consume their edge-capacity slot for the
//! round — they were sent, the bandwidth was spent — but only actual
//! deliveries are billed to `RunReport::messages`/`words`.

use crate::rng::derive_seed;

/// What happened to one delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultDecision {
    /// Delivered normally.
    Deliver,
    /// Lost (permanently if `heal` is off, until retransmission
    /// otherwise).
    Drop,
    /// Re-enqueued `delay_rounds` later.
    Delay,
    /// Delivered this round, but after the receiver's ordinary
    /// deliveries (reordered ones keep edge-id order among themselves).
    Reorder,
}

/// Scripted fault-timing mode: permutes **which** of a round's delivery
/// attempts the plan's drop/delay budget hits (see
/// [`FaultPlan::timing`]). The baseline schedule computes one fate per
/// delivery attempt; under a timing schedule the round's *multiset* of
/// fates is preserved — the budget is the budget — but fate `g` is
/// reassigned to the attempt at position `perm[g]` of the round's
/// deterministic delivery scan. Index 0 is the identity (bit-identical
/// to no timing mode at all); every index yields a deterministic,
/// backend-independent schedule, so the interleaving checker can sweep
/// indices and assert per-timing bit-identity across executors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ScriptedTiming {
    /// Timing schedule index; `0` is the unpermuted baseline.
    pub index: u64,
    /// Bug injection for harness self-validation: retransmissions of
    /// drops that the timing permutation *moved* still happen on the
    /// wire but are not recorded in the ARQ ledger — the classic
    /// retransmit-ledger mismatch. Under `heal`, `dropped ==
    /// retransmitted` is a conservation invariant; this knob breaks it
    /// only on schedules that actually move a drop, which is exactly
    /// the schedule-dependence the checker must prove it can see.
    pub ledger_misses_moved: bool,
}

impl ScriptedTiming {
    /// The timing schedule with the given index and no bug injection.
    pub fn new(index: u64) -> Self {
        ScriptedTiming {
            index,
            ledger_misses_moved: false,
        }
    }
}

/// The permutation a timing schedule applies to a round's `len`
/// delivery attempts: fate `g` of the baseline scan is applied at
/// attempt `perm[g]`... inverted at the call site as "attempt `g`
/// receives fate `perm[g]`" — either reading works, the sweep only
/// needs determinism and index-0 identity. Seeded Fisher–Yates over the
/// pure [`derive_seed`] hash, so it is executor- and history-independent.
pub(crate) fn timing_permutation(index: u64, round: u64, len: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..len).collect();
    if index == 0 {
        return perm;
    }
    let s = derive_seed(derive_seed(0xF417_71A1_D05E_0001, index), round);
    for i in (1..len).rev() {
        let j = (derive_seed(s, i as u64) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// A deterministic, seeded fault schedule applied by the engine at
/// delivery time. Rates are in **per mille** (`0..=1000`), kept as
/// integers so [`crate::EngineConfig`] stays `Eq`/hashable and plans
/// round-trip exactly through serialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FaultPlan {
    /// Seed of the fault schedule. Independent of the protocol seed:
    /// the same walk can be replayed under different fault schedules
    /// and vice versa.
    pub seed: u64,
    /// Probability (‰) that a delivery attempt is dropped.
    pub drop_per_mille: u16,
    /// Probability (‰) that a delivery attempt is delayed.
    pub delay_per_mille: u16,
    /// How many rounds a delayed message waits before re-entering its
    /// edge queue (minimum 1).
    pub delay_rounds: u32,
    /// Probability (‰) that a delivery attempt is reordered behind the
    /// receiver's other deliveries of the round.
    pub reorder_per_mille: u16,
    /// If true, dropped messages are retransmitted after `rto` rounds
    /// (reliable-link ARQ); if false, drops are permanent.
    pub heal: bool,
    /// Retransmission timeout in rounds for healed drops (minimum 1).
    pub rto: u32,
    /// Scripted fault-timing schedule (`None` in production): permutes
    /// which of a round's delivery attempts the drop/delay budget hits,
    /// preserving the budget itself. The interleaving checker's hook.
    pub timing: Option<ScriptedTiming>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_per_mille: 0,
            delay_per_mille: 0,
            delay_rounds: 3,
            reorder_per_mille: 0,
            heal: true,
            rto: 4,
            timing: None,
        }
    }
}

impl FaultPlan {
    /// A plan with the given schedule seed and no faults enabled (add
    /// rates with the `with_*` builders).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// A healed uniform-drop plan — the workhorse of the fault suites.
    pub fn drops(seed: u64, per_mille: u16) -> Self {
        FaultPlan::new(seed).with_drops(per_mille)
    }

    /// This plan with a uniform drop rate (‰).
    pub fn with_drops(mut self, per_mille: u16) -> Self {
        self.drop_per_mille = per_mille;
        self
    }

    /// This plan with a uniform delay rate (‰) and delay length.
    pub fn with_delays(mut self, per_mille: u16, rounds: u32) -> Self {
        self.delay_per_mille = per_mille;
        self.delay_rounds = rounds;
        self
    }

    /// This plan with a uniform reorder rate (‰).
    pub fn with_reorder(mut self, per_mille: u16) -> Self {
        self.reorder_per_mille = per_mille;
        self
    }

    /// This plan with permanent (unhealed) drops — fail-silent links.
    pub fn lossy(mut self) -> Self {
        self.heal = false;
        self
    }

    /// This plan with the given retransmission timeout.
    pub fn with_rto(mut self, rounds: u32) -> Self {
        self.rto = rounds;
        self
    }

    /// This plan with a scripted fault-timing schedule (index `0` is
    /// the unpermuted baseline).
    pub fn with_timing(mut self, timing: ScriptedTiming) -> Self {
        self.timing = Some(timing);
        self
    }

    /// Whether this plan can fault anything at all (all-zero rates let
    /// the engine keep its allocation-free fast path).
    pub fn is_active(&self) -> bool {
        self.drop_per_mille > 0 || self.delay_per_mille > 0 || self.reorder_per_mille > 0
    }

    /// The fate of delivery attempt `k` (its in-bucket index) on
    /// directed edge `eid` in `round` — a pure function of the plan
    /// seed and the attempt's logical identity, independent of executor
    /// backend, thread count, and arrival history.
    pub(crate) fn decide(&self, round: u64, eid: usize, k: usize) -> FaultDecision {
        let h = derive_seed(
            derive_seed(self.seed, round),
            ((eid as u64) << 32) | (k as u64 & 0xffff_ffff),
        );
        // Independent per-mille draws from disjoint bit windows of one
        // 64-bit hash; the windows overlap too little to matter at the
        // rates the suites use.
        if h % 1000 < u64::from(self.drop_per_mille) {
            FaultDecision::Drop
        } else if (h >> 16) % 1000 < u64::from(self.delay_per_mille) {
            FaultDecision::Delay
        } else if (h >> 32) % 1000 < u64::from(self.reorder_per_mille) {
            FaultDecision::Reorder
        } else {
            FaultDecision::Deliver
        }
    }
}

/// Per-fault-kind tallies of one run, surfaced in
/// [`crate::RunReport::faults`] and compared by the bit-identity
/// contract (the schedule is deterministic, so every backend must
/// inject exactly the same faults).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FaultCounters {
    /// Delivery attempts dropped.
    pub dropped: u64,
    /// Delivery attempts delayed.
    pub delayed: u64,
    /// Delivery attempts reordered.
    pub reordered: u64,
    /// Retransmissions scheduled by the ARQ discipline (equals
    /// `dropped` when `heal` is on: every drop is recovered).
    pub retransmitted: u64,
    /// Words of acknowledgement traffic charged for the ARQ recovery
    /// (one per retransmission), kept apart from the delivered words.
    pub ack_words: u64,
}

impl FaultCounters {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.dropped + self.delayed + self.reordered
    }

    /// Folds another run's counters into this one.
    pub fn accumulate(&mut self, other: &FaultCounters) {
        self.dropped += other.dropped;
        self.delayed += other.delayed;
        self.reordered += other.reordered;
        self.retransmitted += other.retransmitted;
        self.ack_words += other.ack_words;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_seeded() {
        let plan = FaultPlan::drops(7, 100);
        for (round, eid, k) in [(1u64, 0usize, 0usize), (5, 17, 2), (900, 3, 0)] {
            assert_eq!(plan.decide(round, eid, k), plan.decide(round, eid, k));
        }
        let other = FaultPlan::drops(8, 100);
        let differs = (0..200u64).any(|r| plan.decide(r, 0, 0) != other.decide(r, 0, 0));
        assert!(differs, "different seeds must give different schedules");
    }

    #[test]
    fn rates_are_respected_within_sampling_error() {
        let plan = FaultPlan::new(42).with_drops(50).with_delays(50, 3);
        let mut dropped = 0u32;
        let mut delayed = 0u32;
        let trials = 20_000u32;
        for i in 0..trials {
            match plan.decide(u64::from(i) / 64, (i % 64) as usize, 0) {
                FaultDecision::Drop => dropped += 1,
                FaultDecision::Delay => delayed += 1,
                _ => {}
            }
        }
        // 5% ± 1% absolute at 20k trials (>10 sigma margin).
        let frac = |c: u32| f64::from(c) / f64::from(trials);
        assert!((frac(dropped) - 0.05).abs() < 0.01, "drop {dropped}");
        assert!((frac(delayed) - 0.05).abs() < 0.01, "delay {delayed}");
    }

    #[test]
    fn zero_rate_plan_is_inactive_and_never_faults() {
        let plan = FaultPlan::new(9);
        assert!(!plan.is_active());
        for r in 0..100 {
            assert_eq!(plan.decide(r, 1, 0), FaultDecision::Deliver);
        }
        assert!(FaultPlan::drops(9, 1).is_active());
    }

    #[test]
    fn counters_accumulate_and_total() {
        let mut a = FaultCounters {
            dropped: 1,
            delayed: 2,
            reordered: 3,
            retransmitted: 1,
            ack_words: 1,
        };
        a.accumulate(&a.clone());
        assert_eq!(a.total(), 12);
        assert_eq!(a.retransmitted, 2);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn fault_plan_round_trips_through_json() {
        let plan = FaultPlan::drops(11, 50).with_delays(20, 6).lossy();
        let json = serde_json::to_string(&plan).unwrap();
        assert!(json.contains("\"drop_per_mille\":50"), "{json}");
        assert!(json.contains("\"heal\":false"), "{json}");
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
