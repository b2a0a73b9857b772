//! Steady-state allocation accounting for the resolution hot path.
//!
//! The solver's per-constraint work — canonicalization, adjacency probes,
//! redundant-edge classification, and worklist traffic — must not touch the
//! allocator once the solver's reusable buffers have warmed up. This pins
//! that claim with a counting global allocator: after a first resolution,
//! re-queueing and processing an entire batch of (now redundant) constraints
//! performs **zero** heap allocations.
//!
//! The claim is deliberately scoped to *redundant* work: inserting a new
//! distinct edge may grow an adjacency list (amortized, proportional to
//! graph growth, never to the Work counter). With cycle collapses in the
//! mix, a re-fed batch can legitimately insert new canonical edges (a stale
//! entry under an old representative does not make the canonical edge
//! present — the paper's Work metric counts those attempts the same way),
//! so the strict zero-allocation phase uses an acyclic system.
//!
//! This file holds exactly one `#[test]` so no concurrent test can pollute
//! the allocation counter.

use bane_core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Builds a deterministic *acyclic* constraint system: forward var-var
/// edges (whose transitive closure is substantial), plus sources and sinks.
fn feed(solver: &mut Solver, vars: &[Var], srcs: &[TermId], snks: &[TermId]) {
    let n = vars.len();
    for i in 0..n - 7 {
        solver.add(vars[i], vars[i + 7]);
        solver.add(vars[i], vars[i + 3]);
    }
    for (k, &s) in srcs.iter().enumerate() {
        solver.add(s, vars[(k * 11) % n]);
    }
    for (k, &t) in snks.iter().enumerate() {
        solver.add(vars[(k * 17 + 5) % n], t);
    }
}

#[test]
fn steady_state_resolution_does_not_allocate() {
    let mut solver = Solver::new(SolverConfig::if_online());
    // With the `obs` feature on, recording must hold the same guarantee: the
    // recorder's timer slots, counter array, and event ring are all
    // preallocated at enable time, so live probes stay allocation-free on
    // the steady-state path. (Without the feature this line compiles away,
    // pinning the baseline.)
    #[cfg(feature = "obs")]
    solver.enable_obs();
    let vars: Vec<Var> = (0..150).map(|_| solver.fresh_var()).collect();
    let mut srcs = Vec::new();
    let mut snks = Vec::new();
    for k in 0..24 {
        let c = solver.register_nullary(format!("c{k}"));
        srcs.push(solver.term(c, vec![]));
    }
    for k in 0..12 {
        let c = solver.register_nullary(format!("t{k}"));
        snks.push(solver.term(c, vec![]));
    }

    // Warm-up pass: grows the graph, the worklist, and every scratch buffer.
    feed(&mut solver, &vars, &srcs, &snks);
    solver.solve();
    let work_before = solver.stats().work;
    let edges_before = solver.stats().new_edges();

    // Steady state: the same batch again. The system is acyclic, so every
    // edge attempt is redundant — exactly the hot path the paper's Work
    // metric charges — and it must not allocate at all.
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..3 {
        feed(&mut solver, &vars, &srcs, &snks);
        solver.solve();
    }
    COUNTING.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);

    let work_done = solver.stats().work - work_before;
    assert_eq!(
        solver.stats().new_edges(),
        edges_before,
        "acyclic re-feed must not create new edges"
    );
    assert!(work_done > 500, "steady-state pass did no work ({work_done})");
    assert_eq!(
        allocations, 0,
        "steady-state resolution allocated {allocations} times over {work_done} work units"
    );

    // The same guarantee extends to the revalidating least pass: after
    // warm-up runs have grown the layout, level and flag scratch and both
    // of the double-buffered solutions and CSRs, re-evaluating the same
    // solved graph against its own baseline allocates nothing. Two
    // warm-ups, not one: the solution and CSR buffers alternate between
    // the live and the baseline slot, so each pair is written once before
    // both are at their final size.
    let mut rv = bane_core::least::Revalidator::new();
    rv.run(&solver.least_parts());
    rv.run(&solver.least_parts());
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let outcome = rv.run(&solver.least_parts());
    COUNTING.store(false, Ordering::SeqCst);
    let ls_allocations = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        ls_allocations, 0,
        "steady-state revalidating least pass allocated {ls_allocations} times"
    );
    assert_eq!(outcome.dirty_vars, 0, "an unchanged system is all clean");
    assert_eq!(
        rv.solution(),
        Some(&solver.least_solution()),
        "the revalidated solution must stay byte-identical to the cold pass"
    );
}
