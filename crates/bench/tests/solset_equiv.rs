//! Solution-set backend equivalence over synthetic programs.
//!
//! The backend contract is byte-identity: every [`SolSetKind`] must produce
//! a `LeastSolution` whose raw buffers equal the default sorted-span pass's,
//! through the sequential kernel dispatch on `Solver::least_solution`, both
//! cold and across system growth, and through `bane-par`'s
//! difference-propagating pass in the solset scaling table. This suite pins
//! that on `bane-synth` generated programs (larger and messier than the unit-test
//! systems: function pointers, feedback assignments, deep pointer chains).

use bane_bench::experiment::run_solset_scaling;
use bane_core::prelude::*;
use bane_core::solset::SolSetKind;
use bane_points_to::andersen;
use bane_synth::{generate, GenConfig};

#[test]
fn backends_are_byte_identical_on_synthetic_programs() {
    for (target, seed) in [(4_000usize, 1u64), (12_000, 7)] {
        let program = generate(&GenConfig::sized(target, seed));
        let mut problem = Problem::new(SolverConfig::if_online());
        andersen::generate(&program, &mut problem);
        let total = problem.constraints().len();
        assert!(total > 40, "synthetic program too small to split");
        let tail = problem.split_off_constraints(total - total / 20);
        assert!(!tail.is_empty());

        // Default-backend references: the prefix solution, then the grown
        // one.
        let mut reference = Solver::from_problem(problem.clone());
        reference.solve();
        let ls_prefix = reference.least_solution();
        for (lhs, rhs) in tail.iter().cloned() {
            reference.add(lhs, rhs);
        }
        reference.solve();
        let ls_full = reference.least_solution();

        for kind in [SolSetKind::Bitmap, SolSetKind::Hybrid] {
            let mut p = problem.clone();
            p.set_solset(kind);

            // Sequential kernel dispatch, cold and grown (the grown call
            // exercises the kernel's incremental path on a warm evaluator).
            let mut s = Solver::from_problem(p);
            s.solve();
            assert_eq!(s.least_solution(), ls_prefix, "{} seq prefix", kind.name());
            for (lhs, rhs) in tail.iter().cloned() {
                s.add(lhs, rhs);
            }
            s.solve();
            assert_eq!(s.least_solution(), ls_full, "{} seq grown", kind.name());
        }
    }
}

#[test]
fn solset_scaling_matches_reference_on_a_synthetic_program() {
    let program = generate(&GenConfig::sized(8_000, 3));
    let scaling = run_solset_scaling(&program, 1);
    assert_eq!(scaling.rows.len(), SolSetKind::ALL.len() * 2);
    for row in &scaling.rows {
        assert!(
            row.matches_reference,
            "{} diff={} drifted from the sorted-span reference",
            row.backend.name(),
            row.diff
        );
    }
    // Difference propagation must actually propagate less than it would
    // rebuild: the incremental pass's merged-element traffic stays below the
    // full solution's entry count on a 5% growth step.
    let entries = {
        let mut p = Problem::new(SolverConfig::if_online());
        andersen::generate(&program, &mut p);
        let mut s = Solver::from_problem(p);
        s.solve();
        s.least_solution().total_entries() as u64
    };
    for row in scaling.rows.iter().filter(|r| r.diff) {
        assert!(
            row.delta_in < entries,
            "{}: diff pass fed {} elements, full solution holds {}",
            row.backend.name(),
            row.delta_in,
            entries
        );
    }
}
