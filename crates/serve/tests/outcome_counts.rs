//! Pins the per-commit [`RevalidateOutcome`] figures of one fixed edit
//! history, under both apply modes.
//!
//! `total_levels`, `dirty_levels`, `dirty_vars` and `reused_vars` are what
//! `perfbench` reports as `par.*` and what the `serve.dirty.*` /
//! `serve.reuse.hit` counters publish, so the least-solution pass must
//! reproduce them exactly, commit by commit. The expected tables were
//! recorded from the level-bucketed revalidation this pass replaced.
//!
//! [`RevalidateOutcome`]: bane_serve::RevalidateOutcome

use bane_core::prelude::*;
use bane_serve::{ApplyMode, Delta, GroupId, SessionBuilder};
use bane_synth::delta::{generate_delta_script, DeltaScriptConfig, DeltaStep, ScriptBindings};

/// `(total_levels, dirty_levels, dirty_vars, reused_vars)` per commit:
/// the 48 script steps, then the empty batch, then the reanchor. Exact and
/// Fast recorded the same table on this history.
const EXPECTED: [(usize, usize, usize, usize); 50] = [
    (1, 1, 42, 0),
    (2, 1, 4, 38),
    (3, 3, 10, 31),
    (2, 1, 11, 31),
    (2, 2, 9, 33),
    (2, 1, 1, 42),
    (3, 2, 6, 37),
    (3, 3, 11, 32),
    (3, 1, 1, 43),
    (2, 2, 5, 39),
    (2, 1, 3, 44),
    (2, 1, 2, 47),
    (1, 1, 4, 45),
    (3, 3, 9, 40),
    (2, 2, 12, 37),
    (2, 2, 6, 43),
    (2, 2, 7, 42),
    (2, 2, 10, 39),
    (2, 1, 2, 49),
    (5, 5, 21, 30),
    (5, 2, 6, 45),
    (5, 5, 14, 36),
    (5, 4, 15, 36),
    (5, 5, 12, 38),
    (5, 5, 18, 32),
    (2, 2, 23, 28),
    (2, 1, 1, 51),
    (2, 1, 2, 52),
    (2, 2, 7, 47),
    (2, 1, 1, 54),
    (2, 2, 12, 43),
    (3, 3, 17, 38),
    (3, 2, 9, 46),
    (2, 2, 13, 42),
    (2, 1, 3, 55),
    (3, 3, 9, 49),
    (1, 1, 7, 51),
    (2, 2, 5, 53),
    (2, 1, 2, 58),
    (2, 2, 4, 56),
    (2, 1, 1, 60),
    (2, 1, 2, 61),
    (2, 2, 4, 59),
    (3, 2, 9, 54),
    (3, 3, 13, 50),
    (3, 3, 14, 49),
    (4, 4, 22, 41),
    (3, 3, 25, 38),
    (3, 0, 0, 63),
    (3, 0, 0, 63),
];

/// Drives the fixed script through a session under `mode` and returns each
/// commit's `(total_levels, dirty_levels, dirty_vars, reused_vars)`.
fn outcomes(mode: ApplyMode) -> Vec<(usize, usize, usize, usize)> {
    let config = DeltaScriptConfig {
        initial_vars: 40,
        group_size: (6, 20),
        src_prob: 0.15,
        ..DeltaScriptConfig::edit_heavy(48, 0x0C7, 1.5)
    };
    let script = generate_delta_script(&config);
    let mut session = SessionBuilder::new().apply_mode(mode).build();
    let mut bind = ScriptBindings::bind(&mut session, &script);
    let mut slots: Vec<GroupId> = Vec::new();
    let mut out = Vec::new();
    for step in &script.steps {
        let mut delta = Delta::new();
        match step {
            DeltaStep::GrowVars(n) => {
                delta.add_vars(*n);
                let base = bind.vars.len();
                bind.vars.extend((0..*n as usize).map(|k| Var::new(base + k)));
            }
            DeltaStep::AddGroup(cs) => {
                delta.add_group(bind.constraints(cs));
            }
            DeltaStep::EditGroup { slot, constraints } => {
                delta.edit_group(slots[*slot], bind.constraints(constraints));
            }
            DeltaStep::RemoveGroup { slot } => {
                delta.remove_group(slots[*slot]);
            }
        }
        let report = session.apply(delta);
        slots.extend(report.new_groups);
        let o = report.outcome;
        out.push((o.total_levels, o.dirty_levels, o.dirty_vars, o.reused_vars));
    }
    // An empty batch and an explicit reanchor close the history.
    let o = session.apply(Delta::new()).outcome;
    out.push((o.total_levels, o.dirty_levels, o.dirty_vars, o.reused_vars));
    let o = session.reanchor();
    out.push((o.total_levels, o.dirty_levels, o.dirty_vars, o.reused_vars));
    out
}

#[test]
fn exact_outcomes_match_the_recorded_table() {
    assert_eq!(outcomes(ApplyMode::Exact), EXPECTED);
}

#[test]
fn fast_outcomes_match_the_recorded_table() {
    assert_eq!(outcomes(ApplyMode::Fast), EXPECTED);
}
