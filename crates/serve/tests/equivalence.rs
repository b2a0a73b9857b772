//! The incremental-equivalence property: a [`Session`] driven step-by-step
//! through a random edit history produces, after **every** step, the same
//! per-variable solution sets as a from-scratch solve of that step's live
//! constraint system — and after every *non-monotone* step, byte-identical
//! observables (statistics, census, least-solution buffers), because the
//! session replays the identical canonical sequence.

use bane_core::prelude::*;
use bane_serve::{ApplyMode, Delta, GroupId, SessionBuilder};
use bane_synth::delta::{
    generate_delta_script, DeltaScript, DeltaScriptConfig, DeltaStep, ScriptBindings,
};
use proptest::prelude::*;

/// Drives `script` through a session step by step, checking each state
/// against a from-scratch reference.
fn check_script(script: &DeltaScript) {
    let config = SolverConfig::if_online();
    let mut session = SessionBuilder::new().config(config).build();
    let mut bind = ScriptBindings::bind(&mut session, script);

    // The reference keeps only registration state + the live group list;
    // each step re-solves it from scratch.
    let mut ref_problem = Problem::new(config);
    let mut ref_bind = ScriptBindings::bind(&mut ref_problem, script);
    let mut ref_groups: Vec<Option<Vec<(SetExpr, SetExpr)>>> = Vec::new();
    let mut slot_map: Vec<GroupId> = Vec::new();

    for (i, step) in script.steps.iter().enumerate() {
        let mut delta = Delta::new();
        let mut nonmonotone = false;
        match step {
            DeltaStep::GrowVars(n) => {
                delta.add_vars(*n);
                // Session variables are created when the delta applies, but
                // their ids are sequential, so the bindings extend eagerly.
                let base = bind.vars.len();
                bind.vars.extend((0..*n as usize).map(|k| Var::new(base + k)));
                ref_bind.grow(&mut ref_problem, *n);
            }
            DeltaStep::AddGroup(cs) => {
                delta.add_group(bind.constraints(cs));
                ref_groups.push(Some(ref_bind.constraints(cs)));
            }
            DeltaStep::EditGroup { slot, constraints } => {
                delta.edit_group(slot_map[*slot], bind.constraints(constraints));
                ref_groups[*slot] = Some(ref_bind.constraints(constraints));
                nonmonotone = true;
            }
            DeltaStep::RemoveGroup { slot } => {
                delta.remove_group(slot_map[*slot]);
                ref_groups[*slot] = None;
                nonmonotone = true;
            }
        }
        let report = session.apply(delta);
        assert_eq!(report.monotone, !nonmonotone, "step {i}: path classification");
        if let DeltaStep::AddGroup(_) = step {
            assert_eq!(report.new_groups.len(), 1);
            slot_map.push(report.new_groups[0]);
        }
        assert!(
            report.outcome.dirty_levels <= report.outcome.total_levels,
            "step {i}: dirty levels within bounds"
        );

        let mut p = ref_problem.clone();
        for group in ref_groups.iter().flatten() {
            for &(l, r) in group {
                p.add(l, r);
            }
        }
        let mut reference = Solver::from_problem(p);
        reference.solve();
        let ref_ls = reference.least_solution();

        for &v in &bind.vars {
            let rv = reference.find(v);
            assert_eq!(
                session.points_to(v),
                ref_ls.get(rv),
                "step {i}: set of {v:?} diverged"
            );
        }

        if nonmonotone {
            // Canonical replay: full observable parity, down to the bytes.
            assert_eq!(session.stats(), reference.stats(), "step {i}: stats parity");
            assert_eq!(session.census(), reference.census(), "step {i}: census parity");
            assert_eq!(session.least_solution(), &ref_ls, "step {i}: least-solution bytes");
            assert_eq!(
                session.inconsistencies(),
                reference.inconsistencies(),
                "step {i}: inconsistency parity"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random scripts.
    #[test]
    fn incremental_equals_from_scratch(seed in 0u64..1_000_000, steps in 6usize..24) {
        let script = generate_delta_script(&DeltaScriptConfig::sized(steps, seed));
        script.validate().expect("generated script validates");
        check_script(&script);
    }
}

/// A fixed long adversarial script, pinned outside proptest so it always
/// runs (and exercises every step kind — the generator's distribution
/// guarantees non-monotone steps at this length).
#[test]
fn long_mixed_script_all_backends() {
    let script = generate_delta_script(&DeltaScriptConfig::sized(60, 0xba7e));
    script.validate().expect("script validates");
    assert!(script.has_nonmonotone(), "long script must exercise replay");
    check_script(&script);
}

/// A long-running session must not grow with the number of commits: over
/// 500 drop/restore applies on a small synthetic system, the least-solution
/// entries the session retains between commits (live solution plus the
/// pass's spare buffer) stay within 2× the live solution, and every answer
/// still matches a from-scratch solve.
#[test]
fn drop_restore_soak_keeps_the_working_arena_bounded() {
    let script = generate_delta_script(&DeltaScriptConfig {
        grow_prob: 0.0,
        edit_weight: 0.0,
        ..DeltaScriptConfig::sized(16, 0x50a4)
    });
    let groups: Vec<&[_]> = script
        .steps
        .iter()
        .map(|step| match step {
            DeltaStep::AddGroup(cs) => cs.as_slice(),
            other => panic!("monotone script produced {other:?}"),
        })
        .collect();
    for mode in [ApplyMode::Exact, ApplyMode::Fast] {
        let mut session = SessionBuilder::new().apply_mode(mode).build();
        let bind = ScriptBindings::bind(&mut session, &script);
        let mut live: Vec<(GroupId, Vec<(SetExpr, SetExpr)>)> = Vec::new();
        let mut d = Delta::new();
        for cs in &groups {
            d.add_group(bind.constraints(cs));
        }
        let report = session.apply(d);
        for (&g, cs) in report.new_groups.iter().zip(&groups) {
            live.push((g, bind.constraints(cs)));
        }

        let mut ref_problem = Problem::new(SolverConfig::if_online());
        ScriptBindings::bind(&mut ref_problem, &script);
        for round in 0..500usize {
            // Even rounds drop a group, odd rounds restore it as a new one.
            let k = (round / 2 * 7) % live.len();
            let mut d = Delta::new();
            if round % 2 == 0 {
                d.remove_group(live[k].0);
            } else {
                d.add_group(live[k].1.clone());
            }
            let report = session.apply(d);
            if round % 2 == 1 {
                live[k].0 = report.new_groups[0];
            }

            let arena = session.ls_arena_entries();
            let entries = session.least_solution().total_entries();
            assert!(
                arena <= 2 * entries,
                "{mode:?} round {round}: working arena {arena} vs {entries} live entries"
            );

            let mut p = ref_problem.clone();
            let dropped = (round % 2 == 0).then_some(k);
            for (j, (_, cs)) in live.iter().enumerate() {
                if Some(j) != dropped {
                    for &(l, r) in cs {
                        p.add(l, r);
                    }
                }
            }
            let mut reference = Solver::from_problem(p);
            reference.solve();
            let ref_ls = reference.least_solution();
            for &v in &bind.vars {
                assert_eq!(
                    session.points_to(v),
                    ref_ls.get(reference.find(v)),
                    "{mode:?} round {round}: set of {v:?}"
                );
            }
        }
    }
}
