//! The flat, destination-grouped message queue backing every round
//! executor, and the flat inbox it delivers into.
//!
//! The seed engine kept one `VecDeque<Msg>` per directed edge — `2m`
//! heap-backed deques, each paying its own allocation the first time an
//! edge carries a message, plus a `busy_edges` side list that was sorted
//! and deduplicated every round. This structure replaces all of that
//! with CSR-style storage, mirroring how [`drw_graph::Graph`] stores
//! adjacency: one backing `Vec` of messages, grouped by bucket, plus a
//! sorted bucket index `(slot, range)`. Only *busy* buckets appear in
//! the index, so idle protocols pay `O(busy)` per round, not `O(m)`.
//!
//! Buckets are keyed by each message's **incoming slot** — the id of the
//! reverse edge, `graph.reverse_edge(eid)`. Adjacency lists are sorted
//! and edge ids follow the source CSR, so the slot of `u -> v` is
//! `v`'s edge towards `u`, and ascending slot order is ascending
//! `(target, source)` order: a delivery scan in slot order fills each
//! receiver's inbox contiguously, grouped by ascending sender and FIFO
//! per sender, with receivers in ascending node order. That is the
//! reference inbox order, produced without per-node inbox buffers or a
//! per-round sort of the receiving nodes.
//!
//! Per round the executor calls [`FlatQueue::deliver`] (drains up to
//! `edge_capacity` messages per bucket into an [`Inbox`], compacting
//! the leftovers) and then [`FlatQueue::stage`] (sorts the round's
//! staged sends by slot and merges them behind the leftovers,
//! bucket-by-bucket). Both walks are in ascending slot order, which is
//! what makes runs deterministic regardless of executor backend.

use crate::engine::{EngineConfig, RunError, RunReport};
use crate::fault::FaultDecision;
use crate::message::{Envelope, Message};
use drw_graph::Graph;

pub(crate) const LOAD_HISTOGRAM_BUCKETS: usize = 64;

/// Staging rounds with at least this many sends are radix-sorted; below
/// it a comparison sort of the packed keys is cheaper than the radix
/// passes' fixed 256-bucket overhead.
const RADIX_MIN_SENDS: usize = 256;

/// One round's deliveries, grouped by receiving node: a single
/// envelope buffer plus a `(node, start)` index, both ascending. The
/// receivers' slices tile the buffer with no gaps.
#[derive(Debug)]
pub(crate) struct Inbox<M> {
    envs: Vec<Envelope<M>>,
    /// `(node, start)`: `node`'s envelopes run from `start` to the next
    /// entry's start (or the end of `envs`).
    index: Vec<(usize, usize)>,
}

impl<M> Default for Inbox<M> {
    fn default() -> Self {
        Inbox {
            envs: Vec::new(),
            index: Vec::new(),
        }
    }
}

impl<M> Inbox<M> {
    fn clear(&mut self) {
        self.envs.clear();
        self.index.clear();
    }

    /// Appends `env` to its receiver's slice. Deliveries must arrive
    /// grouped by receiver, receivers ascending.
    fn push(&mut self, env: Envelope<M>) {
        match self.index.last() {
            Some(&(node, _)) if node == env.to => {}
            last => {
                debug_assert!(last.is_none_or(|&(node, _)| node < env.to));
                self.index.push((env.to, self.envs.len()));
            }
        }
        self.envs.push(env);
    }

    /// Number of nodes that received at least one message.
    pub(crate) fn node_count(&self) -> usize {
        self.index.len()
    }

    /// End offset of receiver `i`'s slice.
    fn end(&self, i: usize) -> usize {
        self.index.get(i + 1).map_or(self.envs.len(), |&(_, s)| s)
    }

    /// `(node, inbox)` for every receiving node, ascending by node.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &[Envelope<M>])> + '_ {
        (0..self.index.len()).map(move |i| {
            let (node, start) = self.index[i];
            (node, &self.envs[start..self.end(i)])
        })
    }

    /// Like [`Inbox::iter`], but with disjoint `&mut` slices that can be
    /// handed to different worker threads (`&mut [Envelope<M>]` is
    /// `Send` whenever `M` is).
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut [Envelope<M>])> + '_ {
        let mut rest: &mut [Envelope<M>] = &mut self.envs;
        let mut index = self.index.iter().peekable();
        std::iter::from_fn(move || {
            let &(node, start) = index.next()?;
            let len = index.peek().map_or(rest.len(), |&&(_, next)| next - start);
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            Some((node, head))
        })
    }

    /// Bytes of backing capacity: the envelope buffer plus the range
    /// index (high-water marks, since `Vec` never shrinks).
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.envs.capacity() * std::mem::size_of::<Envelope<M>>()
            + self.index.capacity() * std::mem::size_of::<(usize, usize)>()
    }
}

/// Appends reorder-faulted envelopes behind their receiver's ordinary
/// deliveries, billing them.
fn flush_reordered<M: Message>(
    reordered: &mut Vec<Envelope<M>>,
    inbox: &mut Inbox<M>,
    report: &mut RunReport,
) {
    for env in reordered.drain(..) {
        report.messages += 1;
        report.words += env.msg.size_words() as u64;
        inbox.push(env);
    }
}

/// Sorts staging keys `slot << 32 | staging index` ascending. Keys are
/// built in ascending index order and indices are unique, so this is a
/// *stable* sort by slot. `slot_bits` is the bitwise OR of all slots (it
/// has the largest slot's top bit). Large rounds use a stable LSD radix
/// sort over the slot's bytes — as many 8-bit passes as the largest slot
/// needs, skipping passes whose digit is the same for every key —
/// ping-ponging through `tmp`; small rounds use `sort_unstable` on the
/// packed keys. Neither allocates once `tmp` has grown to the round size.
fn sort_staging_keys(keys: &mut Vec<u64>, tmp: &mut Vec<u64>, slot_bits: u64) {
    let len = keys.len();
    if len < RADIX_MIN_SENDS {
        keys.sort_unstable();
        return;
    }
    let passes = (u64::BITS - slot_bits.leading_zeros()).div_ceil(8) as usize;
    let mut counts = [[0u32; 256]; 4];
    for &k in keys.iter() {
        let slot = k >> 32;
        for (p, c) in counts.iter_mut().enumerate().take(passes) {
            c[((slot >> (8 * p)) & 0xff) as usize] += 1;
        }
    }
    tmp.resize(len, 0);
    for (p, c) in counts.iter_mut().enumerate().take(passes) {
        if c.iter().any(|&x| x as usize == len) {
            continue; // one digit value: the pass is the identity
        }
        let mut sum = 0u32;
        for x in c.iter_mut() {
            let count = *x;
            *x = sum;
            sum += count;
        }
        let shift = 32 + 8 * p;
        for &k in keys.iter() {
            let d = ((k >> shift) & 0xff) as usize;
            tmp[c[d] as usize] = k;
            c[d] += 1;
        }
        std::mem::swap(keys, tmp);
    }
}

/// A flat, bucketed FIFO multi-queue keyed by incoming slot.
#[derive(Debug)]
pub(crate) struct FlatQueue<M> {
    /// Busy incoming slots (`reverse_edge(eid)`), ascending.
    slots: Vec<u32>,
    /// `starts[i]..starts[i + 1]` is the bucket of `slots[i]` in `msgs`.
    starts: Vec<u32>,
    /// Backing message storage, grouped by bucket, FIFO within a bucket.
    msgs: Vec<M>,
    /// Leftover buffers double-buffering `deliver` → `stage`.
    left_slots: Vec<u32>,
    left_starts: Vec<u32>,
    left_msgs: Vec<M>,
    /// Recycled stage-sort buffers: packed `slot << 32 | index` keys and
    /// the radix sort's ping-pong partner.
    keys: Vec<u64>,
    keys_tmp: Vec<u64>,
    /// The round's staged messages, parked by staging index so the merge
    /// can move each one exactly once, straight into its bucket.
    gather: Vec<Option<M>>,
    /// Messages parked by the fault layer as `(due round, eid, msg)`:
    /// delayed deliveries and ARQ retransmissions of healed drops. Due
    /// entries re-enter their edge queue during the `stage` call that
    /// feeds their due round, ahead of that round's fresh sends.
    /// Always empty on a perfect network.
    future: Vec<(u64, u32, M)>,
}

impl<M: Message> FlatQueue<M> {
    /// A queue pre-reserved from the graph's degree statistics: the
    /// bucket index and message storage get capacity for one message per
    /// directed edge — the flood peak (a BFS wave touches every edge
    /// once), which is the high-water mark the first big wave would
    /// otherwise realloc its way up to. Leftover and sort buffers grow
    /// organically (they hold only backlog or one round's sends).
    pub(crate) fn for_graph(graph: &Graph) -> Self {
        let peak = graph.dir_edge_count();
        FlatQueue {
            slots: Vec::with_capacity(peak),
            starts: {
                let mut s = Vec::with_capacity(peak + 1);
                s.push(0);
                s
            },
            msgs: Vec::with_capacity(peak),
            left_slots: Vec::new(),
            left_starts: vec![0],
            left_msgs: Vec::new(),
            keys: Vec::new(),
            keys_tmp: Vec::new(),
            gather: Vec::new(),
            future: Vec::new(),
        }
    }

    /// Bytes of backing capacity across all buffers. Since `Vec` never
    /// shrinks its capacity, sampling this at the end of a run gives the
    /// run's true high-water mark.
    pub(crate) fn capacity_bytes(&self) -> usize {
        let msg = std::mem::size_of::<M>();
        (self.slots.capacity() + self.left_slots.capacity()) * std::mem::size_of::<u32>()
            + (self.starts.capacity() + self.left_starts.capacity()) * std::mem::size_of::<u32>()
            + (self.msgs.capacity() + self.left_msgs.capacity()) * msg
            + (self.keys.capacity() + self.keys_tmp.capacity()) * std::mem::size_of::<u64>()
            + self.gather.capacity() * std::mem::size_of::<Option<M>>()
            + self.future.capacity() * std::mem::size_of::<(u64, u32, M)>()
    }

    /// Whether nothing remains in flight: no queued message *and* no
    /// delayed/retransmitted message parked for a future round. This —
    /// not mere queue emptiness — is the executors' quiescence test: a
    /// round may deliver nothing while the fault layer still holds
    /// messages that will come due later.
    pub(crate) fn is_idle(&self) -> bool {
        self.msgs.is_empty() && self.future.is_empty()
    }

    /// Delivers up to `edge_capacity` messages per busy edge into
    /// `inbox` (cleared first), scanning buckets in ascending slot
    /// order, and records statistics. Returns the number of delivered
    /// messages. Each receiver's slice comes out grouped by ascending
    /// sender, FIFO per sender, receivers ascending.
    ///
    /// When the engine carries an active [`crate::FaultPlan`], each
    /// delivery attempt is first submitted to the plan, keyed by
    /// `(round, eid, in-bucket index)` — its logical identity, which is
    /// executor-independent because queue contents are. Faulted
    /// messages still consume their capacity slot (the bandwidth was
    /// spent) but only actual deliveries are billed to
    /// `report.messages`/`words`; dropped-and-healed or delayed
    /// messages are parked in `future`, reordered ones land at the end
    /// of their receiver's slice, in edge-id scan order.
    pub(crate) fn deliver(
        &mut self,
        graph: &Graph,
        cfg: &EngineConfig,
        round: u64,
        report: &mut RunReport,
        inbox: &mut Inbox<M>,
    ) -> u64 {
        let plan = cfg.faults.filter(|p| p.is_active());
        let cap = cfg.edge_capacity.unwrap_or(usize::MAX);
        // Scripted fault timing (checker mode): precompute the round's
        // baseline fates in edge-id scan order, then reassign them
        // through the timing permutation. The multiset of fates — the
        // round's fault budget — is preserved; only *which* attempt
        // each fate hits moves. The result is laid out in the slot scan
        // order below. `None` on the production path.
        let timed_fates: Option<Vec<(FaultDecision, bool)>> = plan.and_then(|p| {
            p.timing.map(|t| {
                let attempts = |i: usize| ((self.starts[i + 1] - self.starts[i]) as usize).min(cap);
                let eid_of = |i: usize| graph.reverse_edge(self.slots[i] as usize);
                let mut by_eid: Vec<usize> = (0..self.slots.len()).collect();
                by_eid.sort_unstable_by_key(|&i| eid_of(i));
                // `base[i]`: eid-order position of bucket `i`'s first attempt.
                let mut base = vec![0usize; self.slots.len()];
                let mut fates = Vec::new();
                for i in by_eid {
                    base[i] = fates.len();
                    fates.extend((0..attempts(i)).map(|k| p.decide(round, eid_of(i), k)));
                }
                let perm = crate::fault::timing_permutation(t.index, round, fates.len());
                (0..self.slots.len())
                    .flat_map(|i| base[i]..base[i] + attempts(i))
                    .map(|g| (fates[perm[g]], perm[g] != g))
                    .collect()
            })
        });
        let mut attempt = 0usize;
        inbox.clear();
        // Envelopes diverted by reorder faults, held until the scan
        // leaves their receiver (no allocation on the fault-free path:
        // an empty `Vec` holds no buffer).
        let mut reordered: Vec<Envelope<M>> = Vec::new();
        self.left_slots.clear();
        self.left_starts.clear();
        self.left_starts.push(0);
        self.left_msgs.clear();
        // Drain-and-restore keeps the backing allocation hot across
        // rounds (the whole point of the flat queue).
        let mut storage = std::mem::take(&mut self.msgs);
        let mut stream = storage.drain(..);
        for i in 0..self.slots.len() {
            let slot = self.slots[i] as usize;
            // The slot is the reverse edge `to -> from`.
            let to = graph.edge_source(slot);
            let from = graph.edge_target(slot);
            if reordered.first().is_some_and(|env| env.to != to) {
                flush_reordered(&mut reordered, inbox, report);
            }
            let bucket_len = (self.starts[i + 1] - self.starts[i]) as usize;
            let take = bucket_len.min(cap);
            let mut bucket_words = 0usize;
            for k in 0..take {
                let msg = stream.next().expect("bucket index matches storage");
                // Bandwidth is spent the moment the slot is consumed:
                // faulted messages count toward the edge's word load even
                // though only actual deliveries are billed below. The
                // wire census follows the same rule — a dropped message
                // still put its bits on the edge.
                bucket_words += msg.size_words();
                if cfg.record_wire {
                    msg.census(&mut report.wire);
                }
                if let Some(plan) = plan {
                    let eid = graph.reverse_edge(slot);
                    let (fate, moved) = match &timed_fates {
                        Some(fates) => fates[attempt],
                        None => (plan.decide(round, eid, k), false),
                    };
                    attempt += 1;
                    match fate {
                        FaultDecision::Deliver => {}
                        FaultDecision::Drop => {
                            report.faults.dropped += 1;
                            if plan.heal {
                                // Stop-and-wait ARQ: the sender learns of
                                // the loss and retransmits `rto` rounds
                                // later; the ack word rides the reverse
                                // edge and is billed separately. The
                                // injected ledger bug performs the moved
                                // retransmission but forgets to bill it.
                                let ledger_bug =
                                    moved && plan.timing.is_some_and(|t| t.ledger_misses_moved);
                                if !ledger_bug {
                                    report.faults.retransmitted += 1;
                                    report.faults.ack_words += 1;
                                }
                                self.future.push((
                                    round + u64::from(plan.rto.max(1)),
                                    eid as u32,
                                    msg,
                                ));
                            }
                            continue;
                        }
                        FaultDecision::Delay => {
                            report.faults.delayed += 1;
                            self.future.push((
                                round + u64::from(plan.delay_rounds.max(1)),
                                eid as u32,
                                msg,
                            ));
                            continue;
                        }
                        FaultDecision::Reorder => {
                            report.faults.reordered += 1;
                            reordered.push(Envelope { from, to, msg });
                            continue;
                        }
                    }
                }
                report.messages += 1;
                report.words += msg.size_words() as u64;
                inbox.push(Envelope { from, to, msg });
            }
            report.max_edge_load = report.max_edge_load.max(take);
            report.max_edge_words_per_round = report.max_edge_words_per_round.max(bucket_words);
            if cfg.record_edge_loads && take > 0 {
                let bucket = take.min(LOAD_HISTOGRAM_BUCKETS - 1);
                report.edge_load_histogram[bucket] += 1;
            }
            if bucket_len > take {
                self.left_slots.push(slot as u32);
                for _ in take..bucket_len {
                    self.left_msgs
                        .push(stream.next().expect("bucket index matches storage"));
                }
                self.left_starts.push(self.left_msgs.len() as u32);
            }
        }
        flush_reordered(&mut reordered, inbox, report);
        debug_assert!(stream.next().is_none(), "all buckets drained");
        drop(stream);
        self.msgs = storage; // empty again, capacity retained
        self.slots.clear();
        self.starts.clear();
        self.starts.push(0);
        inbox.envs.len() as u64
    }

    /// Enqueues the round's staged sends behind this round's leftovers,
    /// grouped by slot. `staged` is drained in order (the caller keeps
    /// the buffer's capacity for the next round); within one edge,
    /// earlier stages keep their FIFO position (the sort below is
    /// stable), so queue contents are independent of how the executor
    /// gathered the stages — as long as it presents them in the agreed
    /// deterministic (node, stage order) sequence.
    ///
    /// `next_round` is the round whose `deliver` will consume what this
    /// call enqueues: fault-parked messages whose due round has arrived
    /// re-enter here, *ahead* of the round's fresh sends on the same
    /// edge (retransmissions don't queue-jump behind new traffic) but
    /// still behind this round's leftovers.
    ///
    /// # Errors
    ///
    /// [`RunError::OversizedMessage`] for the first staged message (in
    /// staging order) wider than `max_message_words`.
    pub(crate) fn stage(
        &mut self,
        graph: &Graph,
        staged: &mut Vec<(usize, M)>,
        cfg: &EngineConfig,
        next_round: u64,
        report: &mut RunReport,
    ) -> Result<(), RunError> {
        if !self.future.is_empty() {
            // Stable partition: due entries keep their park order and
            // are spliced in front of the fresh sends, so the stable
            // sort below puts them first within each bucket.
            let mut due: Vec<(usize, M)> = Vec::new();
            let mut kept: Vec<(u64, u32, M)> = Vec::with_capacity(self.future.len());
            for (when, eid, msg) in self.future.drain(..) {
                if when <= next_round {
                    due.push((eid as usize, msg));
                } else {
                    kept.push((when, eid, msg));
                }
            }
            self.future = kept;
            if !due.is_empty() {
                staged.splice(0..0, due);
            }
        }
        if staged.is_empty() && self.left_msgs.is_empty() {
            return Ok(());
        }
        debug_assert!(self.slots.is_empty(), "stage follows deliver (or round 0)");
        assert!(
            u32::try_from(staged.len()).is_ok(),
            "a round's staging indices must fit the key's low 32 bits"
        );
        // One pass in staging order: validate (so the reported offender
        // is deterministic and independent of slot grouping; re-entering
        // fault-parked messages passed when first staged), key each send
        // by `slot << 32 | index`, and park it by index for the merge.
        self.keys.clear();
        self.keys.reserve(staged.len());
        self.gather.clear();
        self.gather.reserve(staged.len());
        let mut slot_bits = 0u64;
        for (i, (eid, msg)) in staged.drain(..).enumerate() {
            let words = msg.size_words();
            if words > cfg.max_message_words {
                return Err(RunError::OversizedMessage {
                    words,
                    cap: cfg.max_message_words,
                });
            }
            let slot = graph.reverse_edge(eid) as u64;
            slot_bits |= slot;
            self.keys.push((slot << 32) | i as u64);
            self.gather.push(Some(msg));
        }
        sort_staging_keys(&mut self.keys, &mut self.keys_tmp, slot_bits);
        // Merge the two ascending-by-slot runs (leftovers, then sorted
        // stages) bucket by bucket into the main storage.
        let mut li = 0usize; // leftover bucket index
        let mut ki = 0usize; // sorted key index
        let mut left_storage = std::mem::take(&mut self.left_msgs);
        let mut left_msgs = left_storage.drain(..);
        loop {
            let next_left = self.left_slots.get(li).copied();
            let next_staged = self.keys.get(ki).map(|&k| (k >> 32) as u32);
            let slot = match (next_left, next_staged) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            let bucket_start = self.msgs.len();
            if next_left == Some(slot) {
                let count = (self.left_starts[li + 1] - self.left_starts[li]) as usize;
                self.msgs.extend(left_msgs.by_ref().take(count));
                li += 1;
            }
            while let Some(&k) = self.keys.get(ki) {
                if (k >> 32) as u32 != slot {
                    break;
                }
                let msg = self.gather[k as u32 as usize].take();
                self.msgs
                    .push(msg.expect("each staging index is sorted once"));
                ki += 1;
            }
            self.slots.push(slot);
            self.starts.push(self.msgs.len() as u32);
            let backlog = self.msgs.len() - bucket_start;
            report.max_edge_backlog = report.max_edge_backlog.max(backlog);
        }
        debug_assert!(left_msgs.next().is_none());
        drop(left_msgs);
        self.left_msgs = left_storage; // empty again, capacity retained
        self.left_slots.clear();
        self.left_starts.clear();
        self.left_starts.push(0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Sorts `slots` through the staging sort and returns the staging
    /// indices in sorted order.
    fn staging_order(slots: &[u32]) -> Vec<usize> {
        let mut keys: Vec<u64> = slots
            .iter()
            .enumerate()
            .map(|(i, &s)| (u64::from(s) << 32) | i as u64)
            .collect();
        let mut tmp = Vec::new();
        let slot_bits = slots.iter().fold(0, |bits, &s| bits | u64::from(s));
        sort_staging_keys(&mut keys, &mut tmp, slot_bits);
        keys.iter().map(|&k| k as u32 as usize).collect()
    }

    fn stable_order(slots: &[u32]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..slots.len()).collect();
        order.sort_by_key(|&i| slots[i]);
        order
    }

    /// Random slot vectors for a graph with `2m` directed edges: a mix
    /// of uniform slots, a few hot slots (duplicate keys) and the
    /// maximum slot `2m - 1`.
    fn slot_vectors() -> impl Strategy<Value = Vec<u32>> {
        (1u32..200_000, 0usize..3000).prop_flat_map(|(dir_edges, len)| {
            proptest::collection::vec((0u32..dir_edges, 0u8..8), len..len + 1).prop_map(
                move |picks| {
                    picks
                        .into_iter()
                        .map(|(s, kind)| match kind {
                            0 => dir_edges - 1,
                            1 | 2 => s % 7,
                            _ => s,
                        })
                        .collect()
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The staging sort (radix above the cutoff, comparison below)
        /// is exactly a stable sort by slot.
        #[test]
        fn staging_sort_is_a_stable_sort_by_slot(slots in slot_vectors()) {
            prop_assert_eq!(staging_order(&slots), stable_order(&slots));
        }
    }

    #[test]
    fn staging_sort_handles_edge_shapes() {
        for len in [0usize, 1, RADIX_MIN_SENDS - 1, RADIX_MIN_SENDS, 3000] {
            // All-equal keys (every radix pass skipped), descending keys,
            // and keys spanning all four slot bytes.
            let equal = vec![5u32; len];
            let descending: Vec<u32> = (0..len as u32).rev().collect();
            let wide: Vec<u32> = (0..len as u32)
                .map(|i| i.wrapping_mul(0x9E37_79B9) | (i & 1) << 31)
                .collect();
            for slots in [equal, descending, wide] {
                assert_eq!(staging_order(&slots), stable_order(&slots), "len {len}");
            }
        }
    }

    #[test]
    fn inbox_slices_tile_the_buffer() {
        let mut inbox: Inbox<u8> = Inbox::default();
        for (from, to) in [(1, 0), (2, 0), (0, 3), (0, 3), (1, 7)] {
            inbox.push(Envelope { from, to, msg: 0 });
        }
        let groups: Vec<(usize, usize)> = inbox.iter().map(|(v, m)| (v, m.len())).collect();
        assert_eq!(groups, vec![(0, 2), (3, 2), (7, 1)]);
        let groups_mut: Vec<(usize, usize)> = inbox.iter_mut().map(|(v, m)| (v, m.len())).collect();
        assert_eq!(groups_mut, groups);
        assert_eq!(inbox.node_count(), 3);
    }
}
