//! The serving acceptance gate: a `QueryIndex` cold-loaded from disk,
//! shared by 1, 2, 4 and 8 reader threads, answers every query kind
//! byte-identically to the live `LeastSolution` on the paper-suite
//! povray-2.2 stand-in.
//!
//! `&QueryIndex` crosses `std::thread::scope` workers with no locks and no
//! live-solver access, exactly the way the serving layer is meant to be
//! deployed (docs/SERVING.md).

use std::sync::atomic::{AtomicUsize, Ordering};

use bane_core::prelude::*;
use bane_points_to::andersen;
use bane_snap::{write_solver, LoadMode, QueryIndex, QueryScratch};
use bane_synth::suite::{suite_program, PAPER_SUITE};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Matches the CI bench scale: large enough for real collapse activity and
/// ~tens of thousands of variables, small enough for the test budget.
const SCALE: f64 = 0.2;

#[test]
fn povray_snapshot_serves_identically_at_every_thread_count() {
    let entry = PAPER_SUITE.iter().find(|e| e.name == "povray-2.2").unwrap();
    let program = suite_program(entry, SCALE);
    let dir = std::env::temp_dir().join(format!("bane-snap-reads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut analysis = andersen::analyze(&program, SolverConfig::if_online());
    let ls = analysis.solver.least_solution();
    let path = dir.join("povray.snap");
    write_solver(&mut analysis.solver, &path, None).unwrap();
    drop(analysis); // the index must answer with no live solver at all

    // Cold load from the file for every thread count: the acceptance
    // criterion is about a *loaded* index, not a shared warm one.
    for threads in THREADS {
        let index = QueryIndex::load_with(&path, LoadMode::Auto, None).unwrap();
        let n = index.var_count();
        assert_eq!(n, ls.len());
        let mismatches = AtomicUsize::new(0);
        let (index, ls, mismatches) = (&index, &ls, &mismatches);
        std::thread::scope(|scope| {
            for w in 0..threads {
                scope.spawn(move || {
                    // Worker `w` reads a contiguous slice of the variables.
                    let (start, end) = (n * w / threads, n * (w + 1) / threads);
                    let mut scratch = QueryScratch::new();
                    let mut reach = Vec::new();
                    for i in start..end {
                        let v = Var::new(i);
                        let live = ls.get(v);
                        // points_to: byte-identical to the live least solution.
                        if index.points_to(v) != live {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                        // reachable_sources: the independent CSR route.
                        index.reachable_sources_with(v, &mut scratch, &mut reach);
                        if reach != live {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                        // alias: against a live sorted-span intersection, on
                        // a sheared sample of partners so every worker checks
                        // a different slice of the grid.
                        let partner = Var::new((i * 7919 + w) % n);
                        let live_alias =
                            live.iter().any(|t| ls.get(partner).binary_search(t).is_ok());
                        if index.alias(v, partner) != live_alias {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(
            mismatches.load(Ordering::Relaxed),
            0,
            "{threads} reader threads: snapshot answers diverged from live LS"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Both load paths (mmap and owned) serve the same answers — the backing
/// choice is invisible to queries.
#[test]
fn load_modes_are_observationally_identical() {
    let entry = PAPER_SUITE.iter().find(|e| e.name == "povray-2.2").unwrap();
    let program = suite_program(entry, 0.05);
    let mut analysis = andersen::analyze(&program, SolverConfig::if_online());
    let dir = std::env::temp_dir().join(format!("bane-snap-modes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("povray-small.snap");
    write_solver(&mut analysis.solver, &path, None).unwrap();

    let owned = QueryIndex::load_with(&path, LoadMode::Owned, None).unwrap();
    let auto = QueryIndex::load_with(&path, LoadMode::Auto, None).unwrap();
    assert_eq!(owned.checksum(), auto.checksum());
    assert_eq!(owned.var_count(), auto.var_count());
    for i in 0..owned.var_count() {
        let v = Var::new(i);
        assert_eq!(owned.points_to(v), auto.points_to(v));
        assert_eq!(owned.preds(v), auto.preds(v));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
