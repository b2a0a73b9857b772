//! Golden observables of the resolution engine.
//!
//! Every value below was recorded from the solver that still queued each
//! decomposition argument, trivially-true ones (`0 ⊆ R`, `L ⊆ 1`) included.
//! The worklist now discharges those when decomposition makes them, and the
//! paper's observables — Work, redundant, the census, collapse counts,
//! inconsistencies — and every other `Stats` field must not move. That
//! includes `constraints_processed`, which must be exact after every step,
//! not just at the end, because periodic offline passes and the
//! `solve_limited` bail-out key on it.
//!
//! The `Periodic` configurations run on the povray-2.2 stand-in at scale
//! 0.04 rather than 0.2: a Tarjan pass every 16 processed constraints makes
//! the 0.2 solve take tens of seconds even in an optimized build.

use bane_core::cons::Variance;
use bane_core::cycle::SearchStats;
use bane_core::graph::GraphCensus;
use bane_core::prelude::*;
use bane_core::solver::CycleElim;
use bane_core::stats::Stats;
use bane_points_to::andersen;
use bane_synth::suite::{suite_program, PAPER_SUITE};

/// A fresh solver of `config` holding the povray-2.2 stand-in's constraints
/// at `scale`, through the real Andersen front end.
fn povray(scale: f64, config: SolverConfig) -> Solver {
    let entry = PAPER_SUITE
        .iter()
        .find(|e| e.name == "povray-2.2")
        .expect("povray-2.2 in the paper suite");
    let mut solver = Solver::new(config);
    andersen::generate(&suite_program(entry, scale), &mut solver);
    solver
}

fn periodic(mut config: SolverConfig, interval: u32) -> SolverConfig {
    config.cycle_elim = CycleElim::Periodic { interval };
    config
}

#[track_caller]
fn assert_observables(solver: &Solver, stats: Stats, census: GraphCensus, errors: usize) {
    assert_eq!(*solver.stats(), stats);
    assert_eq!(solver.census(), census);
    assert_eq!(solver.inconsistencies().len(), errors);
}

#[test]
fn if_online_povray() {
    let mut solver = povray(0.2, SolverConfig::if_online());
    solver.solve();
    assert_observables(
        &solver,
        Stats {
            constraints_added: 9285,
            constraints_processed: 871879,
            work: 183741,
            redundant: 132988,
            term_constraints: 202219,
            resolutions: 202094,
            self_constraints: 83028,
            search: SearchStats {
                searches: 32337,
                nodes_visited: 84089,
                edges_scanned: 57288,
                cycles_found: 1063,
                max_visits: 99,
            },
            cycles_collapsed: 1063,
            vars_eliminated: 1363,
            oracle_aliased: 0,
            inconsistencies: 125,
        },
        GraphCensus {
            live_vars: 7182,
            var_var_edges: 19505,
            src_edges: 5666,
            snk_edges: 8321,
        },
        125,
    );
}

#[test]
fn sf_online_povray() {
    let mut solver = povray(0.2, SolverConfig::sf_online());
    solver.solve();
    assert_observables(
        &solver,
        Stats {
            constraints_added: 9285,
            constraints_processed: 9365404,
            work: 8882961,
            redundant: 7542993,
            term_constraints: 155500,
            resolutions: 155375,
            self_constraints: 17490,
            search: SearchStats {
                searches: 60694,
                nodes_visited: 1212666,
                edges_scanned: 25373508,
                cycles_found: 386,
                max_visits: 169,
            },
            cycles_collapsed: 386,
            vars_eliminated: 489,
            oracle_aliased: 0,
            inconsistencies: 125,
        },
        GraphCensus {
            live_vars: 8056,
            var_var_edges: 49361,
            src_edges: 1220621,
            snk_edges: 1354,
        },
        125,
    );
}

#[test]
fn sf_plain_povray() {
    let mut solver = povray(0.2, SolverConfig::sf_plain());
    solver.solve();
    assert_observables(
        &solver,
        Stats {
            constraints_added: 9285,
            constraints_processed: 29206010,
            work: 28741057,
            redundant: 27202870,
            term_constraints: 155500,
            resolutions: 155375,
            self_constraints: 0,
            search: SearchStats::default(),
            cycles_collapsed: 0,
            vars_eliminated: 0,
            oracle_aliased: 0,
            inconsistencies: 125,
        },
        GraphCensus {
            live_vars: 8545,
            var_var_edges: 156352,
            src_edges: 1380481,
            snk_edges: 1354,
        },
        125,
    );
}

/// IF-Plain does not finish on the 0.2 stand-in in any reasonable time, so
/// it is the `solve_limited` run: it must bail at the same step.
#[test]
fn if_plain_povray_bails_at_max_work() {
    let mut solver = povray(0.2, SolverConfig::if_plain());
    assert!(!solver.solve_limited(1_000_000));
    assert_observables(
        &solver,
        Stats {
            constraints_added: 9285,
            constraints_processed: 1420050,
            work: 1000001,
            redundant: 714317,
            term_constraints: 310949,
            resolutions: 310824,
            self_constraints: 1303,
            search: SearchStats::default(),
            cycles_collapsed: 0,
            vars_eliminated: 0,
            oracle_aliased: 0,
            inconsistencies: 125,
        },
        GraphCensus {
            live_vars: 8545,
            var_var_edges: 171887,
            src_edges: 63085,
            snk_edges: 50712,
        },
        125,
    );
}

#[test]
fn periodic_16_over_if_plain_povray() {
    let mut solver = povray(0.04, periodic(SolverConfig::if_plain(), 16));
    solver.solve();
    assert_observables(
        &solver,
        Stats {
            constraints_added: 1917,
            constraints_processed: 52188,
            work: 15191,
            redundant: 7747,
            term_constraints: 10914,
            resolutions: 10890,
            self_constraints: 4546,
            search: SearchStats::default(),
            cycles_collapsed: 125,
            vars_eliminated: 423,
            oracle_aliased: 0,
            inconsistencies: 24,
        },
        GraphCensus {
            live_vars: 1326,
            var_var_edges: 3043,
            src_edges: 849,
            snk_edges: 1126,
        },
        24,
    );
}

/// Drives `solver` to its fixpoint one processed constraint at a time:
/// once Work is positive, each `solve_limited(0)` call must take exactly
/// one step, discharged or queued.
fn solve_one_step_at_a_time(solver: &mut Solver) {
    while solver.stats().work == 0 {
        if solver.solve_limited(0) {
            return;
        }
    }
    loop {
        let before = solver.stats().constraints_processed;
        let finished = solver.solve_limited(0);
        let steps = solver.stats().constraints_processed - before;
        assert_eq!(steps, u64::from(!finished), "one step per call");
        if finished {
            return;
        }
    }
}

#[test]
fn periodic_64_over_if_online_povray_one_step_at_a_time() {
    let mut solver = povray(0.04, periodic(SolverConfig::if_online(), 64));
    solve_one_step_at_a_time(&mut solver);
    assert_observables(
        &solver,
        Stats {
            constraints_added: 1917,
            constraints_processed: 53907,
            work: 15720,
            redundant: 8190,
            term_constraints: 11321,
            resolutions: 11297,
            self_constraints: 4515,
            search: SearchStats::default(),
            cycles_collapsed: 118,
            vars_eliminated: 423,
            oracle_aliased: 0,
            inconsistencies: 24,
        },
        GraphCensus {
            live_vars: 1326,
            var_var_edges: 3079,
            src_edges: 890,
            snk_edges: 1113,
        },
        24,
    );
}

/// `y ⊆ x` and `ref(0, x, 1) ⊆ ref(1, y, 0)`, with `ref`'s last argument
/// contravariant as in the Andersen encoding: decomposition makes `0 ⊆ 1`,
/// `x ⊆ y`, `0 ⊆ 1`, and the queued one closes the cycle. A second batch
/// adds `ref(0, 0, 1) ⊆ ref(1, 1, 0)`, whose arguments are all trivial, so
/// that batch's queue ends in discharged constraints only. Each system is
/// solved in one call and one step at a time.
#[test]
fn a_queue_ending_in_trivial_constraints_is_counted_to_the_end() {
    let collapsed = GraphCensus {
        live_vars: 1,
        var_var_edges: 0,
        src_edges: 0,
        snk_edges: 0,
    };
    let base = Stats {
        constraints_added: 2,
        constraints_processed: 6,
        work: 2,
        redundant: 0,
        term_constraints: 1,
        resolutions: 1,
        self_constraints: 1,
        search: SearchStats::default(),
        cycles_collapsed: 0,
        vars_eliminated: 0,
        oracle_aliased: 0,
        inconsistencies: 0,
    };
    let mut cases = vec![
        (
            SolverConfig::if_plain(),
            base,
            GraphCensus {
                live_vars: 2,
                var_var_edges: 2,
                src_edges: 0,
                snk_edges: 0,
            },
        ),
        (
            SolverConfig::if_online(),
            Stats {
                search: SearchStats {
                    searches: 2,
                    nodes_visited: 2,
                    edges_scanned: 1,
                    cycles_found: 1,
                    max_visits: 1,
                },
                cycles_collapsed: 1,
                vars_eliminated: 1,
                ..base
            },
            collapsed,
        ),
    ];
    for interval in 1..=6 {
        let config = periodic(SolverConfig::if_plain(), interval);
        let stats = Stats {
            constraints_processed: 8,
            self_constraints: 3,
            cycles_collapsed: 1,
            vars_eliminated: 1,
            ..base
        };
        cases.push((config, stats, collapsed));
    }
    for (config, first, census) in cases {
        for stepped in [false, true] {
            let drive = |s: &mut Solver| {
                if stepped {
                    solve_one_step_at_a_time(s);
                } else {
                    s.solve();
                }
            };
            let mut s = Solver::new(config);
            let r = s.register_con(
                "ref",
                vec![
                    Variance::Covariant,
                    Variance::Covariant,
                    Variance::Contravariant,
                ],
            );
            let (x, y) = (s.fresh_var(), s.fresh_var());
            let lo = s.term(r, vec![SetExpr::Zero, x.into(), SetExpr::One]);
            let hi = s.term(r, vec![SetExpr::One, y.into(), SetExpr::Zero]);
            s.add(y, x);
            s.add(lo, hi);
            drive(&mut s);
            assert_observables(&s, first, census, 0);

            let lo2 = s.term(r, vec![SetExpr::Zero, SetExpr::Zero, SetExpr::One]);
            let hi2 = s.term(r, vec![SetExpr::One, SetExpr::One, SetExpr::Zero]);
            s.add(lo2, hi2);
            drive(&mut s);
            let second = Stats {
                constraints_added: 3,
                constraints_processed: first.constraints_processed + 4,
                term_constraints: 2,
                resolutions: 2,
                ..first
            };
            assert_observables(&s, second, census, 0);
        }
    }
}
