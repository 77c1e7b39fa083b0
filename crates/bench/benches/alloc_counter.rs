//! Allocation counter for the per-round hot path.
//!
//! Wraps the system allocator in a counting shim and measures how many
//! heap allocations the engine performs *per extra round* once a run is
//! in steady state. The flat queue, flat inbox and walk state are all
//! designed to reach their high-water mark early and then recycle
//! capacity; this bench is the regression guard for that property —
//! the difference between a long run and a short run of the same
//! workload should be (amortized) allocation-free.
//!
//! Run with `cargo bench -p drw-bench --bench alloc_counter`. Not a
//! Criterion target: it prints a small table and asserts the
//! steady-state bounds, exiting non-zero on regression.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of heap allocations since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// System allocator with an allocation counter bolted on.
struct CountingAlloc;

// SAFETY: pure delegation to `System`; the counter is a relaxed atomic
// with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc`'s contract for `layout`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged to `System`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller passes a pointer this allocator returned, with its
    // original layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: every pointer we hand out comes from `System`, so it
        // is valid to return there with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc`'s contract for `ptr`,
    // `layout` and `new_size`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: arguments are forwarded unchanged; `ptr` originally
        // came from `System.alloc`/`System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations consumed by `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocs();
    let out = f();
    (out, allocs() - before)
}

fn main() {
    let g = drw_bench::bench_regular(); // n = 256, d = 4

    // Naive walk: one token, one message per round — the purest
    // per-round loop. Compare a short and a long run; the delta per
    // extra round is the steady-state allocation rate.
    let short_len = 1_000u64;
    let long_len = 11_000u64;
    let (_, short_allocs) = counted(|| drw_core::naive_walk(&g, 0, short_len, 42).unwrap());
    let (_, long_allocs) = counted(|| drw_core::naive_walk(&g, 0, long_len, 42).unwrap());
    let extra_rounds = long_len - short_len;
    let per_round = (long_allocs.saturating_sub(short_allocs)) as f64 / extra_rounds as f64;
    println!("naive walk      : {short_allocs:>8} allocs @ l={short_len}, {long_allocs:>8} @ l={long_len} -> {per_round:.4} allocs/extra round");

    // Phase 1 (ShortWalksProtocol): every node forwards every round —
    // the hot path the compact state feeds. Same differential setup over
    // lambda; the pre-reserved forward logs and recycled queue buffers
    // must absorb the extra (n * extra-lambda) logged steps without
    // per-step allocation.
    let phase1 = |lambda: u32| {
        let mut state = drw_core::WalkState::new(g.n());
        let mut p = drw_core::ShortWalksProtocol::new(&mut state, vec![1; g.n()], lambda, false);
        drw_congest::run_node_local(&g, &drw_congest::EngineConfig::default(), 7, &mut p).unwrap()
    };
    let (_, p1_short) = counted(|| phase1(64));
    let (_, p1_long) = counted(|| phase1(192));
    let p1_per_round = (p1_long.saturating_sub(p1_short)) as f64 / 128.0;
    println!("phase-1 walks   : {p1_short:>8} allocs @ lambda=64, {p1_long:>8} @ lambda=192 -> {p1_per_round:.4} allocs/extra round");

    // Radix-staged Phase 1: four walks per node put 1024 tokens on the
    // 1024 directed edges every round, so each round stages at least
    // RADIX_MIN_SENDS = 256 sends (the radix sort, not the comparison
    // sort), backs edges up into the leftover buffers, and fills the
    // flat inbox with ~1000 envelopes. The recycled radix key buffers,
    // gather buffer and inbox must reach their high-water mark early.
    let phase1_dense = |lambda: u32| {
        let mut state = drw_core::WalkState::new(g.n());
        let mut p = drw_core::ShortWalksProtocol::new(&mut state, vec![4; g.n()], lambda, false);
        drw_congest::run_node_local(&g, &drw_congest::EngineConfig::default(), 7, &mut p).unwrap()
    };
    let (dense_report, dense_short) = counted(|| phase1_dense(64));
    let (_, dense_long) = counted(|| phase1_dense(192));
    let dense_per_round = (dense_long.saturating_sub(dense_short)) as f64 / 128.0;
    println!("phase-1 x4 walks: {dense_short:>8} allocs @ lambda=64, {dense_long:>8} @ lambda=192 -> {dense_per_round:.4} allocs/extra round");
    assert!(
        dense_report.messages >= 256 * dense_report.rounds,
        "the dense row must stage at least 256 sends per round: {} messages in {} rounds",
        dense_report.messages,
        dense_report.rounds
    );

    // Bounds: every loop is amortized allocation-free in steady state
    // (the flat queue's stage sort used to allocate once per round;
    // keep these tight so it can't creep back).
    assert!(
        per_round < 1.0,
        "naive-walk steady state regressed: {per_round:.4} allocs/round"
    );
    assert!(
        p1_per_round < 1.0,
        "phase-1 steady state regressed: {p1_per_round:.4} allocs/round"
    );
    assert!(
        dense_per_round == 0.0,
        "radix-staged phase-1 steady state regressed: {dense_per_round:.4} allocs/round"
    );
    println!("steady-state allocation bounds hold");
}
