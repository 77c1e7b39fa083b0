//! Pluggable round executors.
//!
//! The engine's round loop — deliver queued messages, fire the global
//! `on_round` hook, fire per-node receive handlers, stage the resulting
//! sends — is a *strategy*, not a hardcoded function. [`RoundExecutor`]
//! captures it; three backends implement it:
//!
//! - [`SequentialExecutor`] — the reference implementation: one thread,
//!   receiving nodes visited in ascending id order;
//! - [`ParallelExecutor`] — shards the receive phase of
//!   [`crate::NodeLocalProtocol`]s across OS threads with a
//!   deterministic merge, producing bit-identical results;
//! - [`ShardedExecutor`] — like `ParallelExecutor`, but splits the
//!   receive phase into load-balanced shards that idle threads *claim*
//!   (work stealing) instead of pre-assigned chunks, and records the
//!   per-shard work distribution in the run report.
//!
//! Callers normally do not name a backend: they set
//! [`ExecutorKind`] on [`crate::EngineConfig`] and go through
//! [`crate::run_protocol`] / [`crate::run_node_local`] (or
//! [`crate::Runner`]), which dispatch here. All three backends share
//! one message path, `queue::FlatQueue`: a CSR-style queue whose
//! buckets are keyed by each message's incoming slot (the reverse edge
//! id), so a delivery scan in slot order writes one flat inbox already
//! grouped by receiving node, receivers ascending, and staging sorts a
//! round's sends by slot with a linear-time radix sort. The backends
//! differ only in how they run the receive phase over that inbox.

pub(crate) mod queue;

mod parallel;
mod sequential;
mod sharded;

pub use parallel::ParallelExecutor;
pub use sequential::SequentialExecutor;
pub use sharded::{ScriptedSchedule, ShardedExecutor};

use crate::engine::{EngineConfig, RunError, RunReport};
use crate::node_local::NodeLocalProtocol;
use crate::protocol::Protocol;
use drw_graph::Graph;

/// Which round-executor backend a run uses.
///
/// All three backends are deterministic and produce identical results
/// for the same graph, seed and protocol; the choice affects wall-clock
/// time only. `Sequential` is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// One thread, ascending node order (the reference backend).
    #[default]
    Sequential,
    /// Receive phase of node-local protocols sharded across all
    /// available CPUs; plain protocols fall back to the sequential
    /// discipline.
    Parallel,
    /// Receive phase split into load-balanced work-stealing shards that
    /// idle threads claim dynamically; records per-shard work counts in
    /// [`crate::RunReport`]'s `balance` telemetry. Plain protocols fall
    /// back to the sequential discipline.
    Sharded,
}

impl ExecutorKind {
    /// Parses `"sequential"` / `"parallel"` / `"sharded"` (as used by
    /// experiment harness environment variables).
    pub fn from_name(name: &str) -> Option<ExecutorKind> {
        match name.to_ascii_lowercase().as_str() {
            "sequential" | "seq" => Some(ExecutorKind::Sequential),
            "parallel" | "par" => Some(ExecutorKind::Parallel),
            "sharded" | "shard" => Some(ExecutorKind::Sharded),
            _ => None,
        }
    }

    /// The backend's canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            ExecutorKind::Sequential => "sequential",
            ExecutorKind::Parallel => "parallel",
            ExecutorKind::Sharded => "sharded",
        }
    }
}

impl std::fmt::Display for ExecutorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(feature = "serde")]
impl serde::Serialize for ExecutorKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

#[cfg(feature = "serde")]
impl serde::Deserialize for ExecutorKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => ExecutorKind::from_name(s)
                .ok_or_else(|| serde::Error(format!("unknown executor kind `{s}`"))),
            other => Err(serde::Error(format!("expected string, got {other:?}"))),
        }
    }
}

/// A strategy for driving a protocol's round loop to completion.
///
/// Contract: for the same `(graph, cfg, seed, protocol)` every
/// implementation must return the same [`RunReport`] and leave the
/// protocol in the same final state as [`SequentialExecutor`] — backends
/// may reorganize *how* work is done, never *what* is computed.
pub trait RoundExecutor {
    /// Runs a plain [`Protocol`] to completion.
    ///
    /// # Errors
    ///
    /// [`RunError::MaxRoundsExceeded`] or [`RunError::OversizedMessage`].
    fn run<P: Protocol>(
        &self,
        graph: &Graph,
        cfg: &EngineConfig,
        seed: u64,
        protocol: &mut P,
    ) -> Result<RunReport, RunError>;

    /// Runs a [`NodeLocalProtocol`] to completion, sharding the receive
    /// phase if the backend supports it.
    ///
    /// # Errors
    ///
    /// Same as [`RoundExecutor::run`].
    fn run_node_local<P: NodeLocalProtocol>(
        &self,
        graph: &Graph,
        cfg: &EngineConfig,
        seed: u64,
        protocol: &mut P,
    ) -> Result<RunReport, RunError>;
}
