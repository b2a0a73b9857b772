//! The two-tier re-solve contract (`ApplyMode::Fast`), end to end: a Fast
//! session driven through a random edit-heavy history produces, after
//! **every** step, the same per-variable solution sets as (a) an Exact
//! session fed the identical deltas and (b) a from-scratch solve of that
//! step's live system — while repairing non-monotone steps in place
//! whenever no recorded cycle collapse is invalidated.
//!
//! What Fast does *not* promise — and these tests deliberately do not
//! assert — is byte-identical work counters after a repair: a repaired
//! solver's `stats()` reflect the retract/refire history, not a replay.
//! Solution sets, aliasing, and inconsistencies (as sets) are the
//! contract.
//!
//! A directed collapse-invalidation scenario pins the replay fallback (`RevalidateOutcome::fell_back`, `serve.fast.fallback`).

use bane_core::prelude::*;
use bane_obs::Counter;
use bane_serve::{ApplyMode, Delta, GroupId, Session, SessionBuilder};
use bane_synth::delta::{
    generate_delta_script, DeltaScript, DeltaScriptConfig, DeltaStep, ScriptBindings,
};
use proptest::prelude::*;

/// Inconsistency parity up to multiplicity: a repaired solver may
/// re-derive an error it already knew.
fn error_set(s: &[Inconsistency]) -> Vec<String> {
    let mut v: Vec<String> = s.iter().map(|e| format!("{e:?}")).collect();
    v.sort();
    v.dedup();
    v
}

/// Drives `script` through a Fast session and an Exact twin, checking
/// both against a from-scratch reference after every step. Returns
/// `(repaired, fallbacks)` across the run.
fn check_fast_script(script: &DeltaScript) -> (u64, u64) {
    let config = SolverConfig::if_online();
    let mut fast = SessionBuilder::new().config(config).apply_mode(ApplyMode::Fast).obs(true).build();
    let mut exact = SessionBuilder::new().config(config).build();
    let mut bind = ScriptBindings::bind(&mut fast, script);
    ScriptBindings::bind(&mut exact, script);

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
        let exact_report = exact.apply(delta.clone());
        let report = fast.apply(delta);
        assert_eq!(report.monotone, !nonmonotone, "step {i}: path classification");
        assert_eq!(report.new_groups, exact_report.new_groups, "step {i}: group ids align");
        if let DeltaStep::AddGroup(_) = step {
            slot_map.push(report.new_groups[0]);
        }
        if report.fast_repaired {
            assert!(!nonmonotone || !report.outcome.fell_back, "repair and fallback exclude");
        }

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
                fast.points_to(v),
                ref_ls.get(rv),
                "step {i} (repaired={}): set of {v:?} diverged from scratch",
                report.fast_repaired,
            );
            let ev = exact.points_to(v).to_vec();
            assert_eq!(
                fast.points_to(v),
                ev.as_slice(),
                "step {i}: Fast and Exact sets diverged at {v:?}"
            );
        }
        assert_eq!(
            error_set(fast.inconsistencies()),
            error_set(reference.inconsistencies()),
            "step {i}: inconsistency set parity"
        );
    }

    let rec = fast.recorder().expect("obs gated on");
    let repaired = rec.get(Counter::ServeFastRepaired);
    let fallbacks = rec.get(Counter::ServeFastFallback);
    let replayed = rec.get(Counter::ServeDeltaReplayed);
    assert_eq!(fallbacks, replayed, "every Fast replay is a recorded fallback");
    let nonmono = script
        .steps
        .iter()
        .filter(|s| matches!(s, DeltaStep::EditGroup { .. } | DeltaStep::RemoveGroup { .. }))
        .count() as u64;
    assert_eq!(repaired + fallbacks, nonmono, "each non-monotone step repairs or falls back");
    (repaired, fallbacks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random edit-heavy scripts.
    #[test]
    fn fast_apply_equals_replay_and_scratch(seed in 0u64..1_000_000, steps in 8usize..24) {
        let script = generate_delta_script(&DeltaScriptConfig::edit_heavy(steps, seed, 2.0));
        script.validate().expect("generated script validates");
        check_fast_script(&script);
    }
}

/// A fixed long edit-heavy script, pinned outside proptest so it always
/// runs — and long enough that the fast path demonstrably fires (a suite
/// where every step fell back would vacuously pass the property above).
#[test]
fn long_edit_heavy_script_repairs_in_place() {
    let script = generate_delta_script(&DeltaScriptConfig::edit_heavy(60, 0xfa57, 2.0));
    script.validate().expect("script validates");
    assert!(script.has_nonmonotone(), "edit-heavy script must retract");
    let (repaired, _) = check_fast_script(&script);
    assert!(repaired > 0, "the fast path never fired across the whole script");
}

/// The directed collapse-invalidation scenario: a removal that breaks a
/// collapsed cycle must take the replay fallback, flag it on the outcome
/// and the `serve.fast.fallback` counter, and still land on observables
/// byte-identical to an Exact session (a Fast replay tracks provenance,
/// which is observable-neutral).
#[test]
fn collapse_invalidation_falls_back_to_replay() {
    let build = |mode: ApplyMode| {
        let mut s = SessionBuilder::new().apply_mode(mode).obs(true).build();
        let c = s.register_nullary("c");
        let src = s.term(c, vec![]);
        let (x, y, z) = (s.fresh_var(), s.fresh_var(), s.fresh_var());
        let mut d = Delta::new();
        d.add_group(vec![(src.into(), x.into()), (x.into(), y.into())]); // g0
        d.add_group(vec![(y.into(), x.into())]); // g1: closes the x/y cycle
        d.add_group(vec![(src.into(), z.into())]); // g2: uninvolved
        s.apply(d);
        (s, src, [x, y, z])
    };

    let (mut fast, src, vars) = build(ApplyMode::Fast);
    let (mut exact, _, _) = build(ApplyMode::Exact);
    assert_eq!(fast.find(vars[0]), fast.find(vars[1]), "cycle collapsed online");

    // Removing g2 touches no collapse: repaired in place.
    let report = fast.apply(Delta::new().remove_group(GroupId::new(2)).clone());
    exact.apply(Delta::new().remove_group(GroupId::new(2)).clone());
    assert!(report.fast_repaired, "uninvolved removal must repair in place");
    assert!(!report.outcome.fell_back);
    assert_eq!(fast.points_to(vars[2]), &[] as &[TermId]);
    // A repaired solver's counters record the retract/refire history, so
    // Fast promises set equality here, not the byte identity of a replay.
    assert_ne!(fast.stats(), exact.stats(), "a repair is not a replay");

    // Removing g1 invalidates the recorded x/y collapse: replay fallback.
    let report = fast.apply(Delta::new().remove_group(GroupId::new(1)).clone());
    exact.apply(Delta::new().remove_group(GroupId::new(1)).clone());
    assert!(!report.fast_repaired, "collapse-breaking removal cannot repair");
    assert!(report.outcome.fell_back, "fallback must be flagged on the outcome");

    {
        let rec = fast.recorder().expect("obs gated on");
        assert_eq!(rec.get(Counter::ServeFastRepaired), 1);
        assert_eq!(rec.get(Counter::ServeFastFallback), 1);
        assert!(rec.get(Counter::ServeFastRetractedEdges) > 0, "the repair removed edges");
    }

    // After the fallback replay the Fast session is byte-identical to the
    // Exact one — including stats, the strongest form of the contract.
    assert_eq!(fast.stats(), exact.stats(), "fallback replay is byte-identical");
    assert_eq!(fast.census(), exact.census());
    for v in vars {
        let e = exact.points_to(v).to_vec();
        assert_eq!(fast.points_to(v), e.as_slice(), "{v:?}");
    }
    assert_eq!(fast.points_to(vars[0]), &[src]);

    // And the fallback was a one-batch event: the rebuilt solver tracks
    // provenance again, so the next clean removal repairs in place.
    let report = fast.apply(Delta::new().remove_group(GroupId::new(0)).clone());
    assert!(report.fast_repaired, "provenance survives the fallback rebuild");
    assert_eq!(fast.points_to(vars[0]), &[] as &[TermId]);
    assert_eq!(fast.recorder().unwrap().get(Counter::ServeFastRepaired), 2);
}

/// `Session::live_constraints` tracks the live group contents — the load
/// measure behind the `fleet.balance.*` gauges.
#[test]
fn live_constraints_track_group_liveness() {
    let mut s: Session = SessionBuilder::new().build();
    let c = s.register_nullary("c");
    let src = s.term(c, vec![]);
    let (x, y) = (s.fresh_var(), s.fresh_var());
    let mut d = Delta::new();
    d.add_group(vec![(src.into(), x.into()), (x.into(), y.into())]);
    d.add_group(vec![(src.into(), y.into())]);
    s.apply(d);
    assert_eq!(s.live_constraints(), 3);
    s.apply(Delta::new().remove_group(GroupId::new(0)).clone());
    assert_eq!(s.live_constraints(), 1);
    let mut e = Delta::new();
    e.edit_group(GroupId::new(1), vec![(src.into(), y.into()), (src.into(), x.into())]);
    s.apply(e);
    assert_eq!(s.live_constraints(), 2);
}

/// An edit that only adds occurrences retracts nothing, so the repair
/// feeds just the batch's new occurrences — the edit's additions and any
/// new group's — instead of re-injecting every live constraint, and the
/// sets still equal an Exact session's.
#[test]
fn pure_add_edit_feeds_only_the_new_occurrences() {
    let build = |mode: ApplyMode| {
        let mut s = SessionBuilder::new().apply_mode(mode).build();
        let c = s.register_nullary("c");
        let d = s.register_nullary("d");
        let (src_c, src_d) = (s.term(c, vec![]), s.term(d, vec![]));
        let v: Vec<Var> = (0..5).map(|_| s.fresh_var()).collect();
        let mut delta = Delta::new();
        delta.add_group(vec![(src_c.into(), v[0].into()), (v[0].into(), v[1].into())]); // g0
        delta.add_group(vec![(v[1].into(), v[2].into()), (v[2].into(), v[0].into())]); // g1
        delta.add_group(vec![(src_d.into(), v[3].into())]); // g2
        s.apply(delta);
        (s, src_c, src_d, v)
    };
    let (mut fast, src_c, src_d, v) = build(ApplyMode::Fast);
    let (mut exact, _, _, _) = build(ApplyMode::Exact);

    // g2 keeps its occurrence and gains two: one new edge and a second copy
    // of the existing one (a multiset occurrence of its own); a new group
    // rides along in the same batch.
    let edited = vec![
        (src_d.into(), v[3].into()),
        (v[3].into(), v[1].into()),
        (src_d.into(), v[3].into()),
    ];
    let mut delta = Delta::new();
    delta.edit_group(GroupId::new(2), edited);
    delta.add_group(vec![(v[2].into(), v[4].into())]);
    let added_before = fast.stats().constraints_added;
    let report = fast.apply(delta.clone());
    exact.apply(delta);
    assert!(!report.monotone, "an edit is not monotone");
    assert!(report.fast_repaired, "a pure-add edit repairs in place");
    assert_eq!(
        fast.stats().constraints_added - added_before,
        3,
        "only the two new occurrences of g2 and the new group's one are fed"
    );
    for &x in &v {
        let e = exact.points_to(x).to_vec();
        assert_eq!(fast.points_to(x), e.as_slice(), "{x:?}");
    }
    let mut both = vec![src_c, src_d];
    both.sort();
    assert_eq!(fast.points_to(v[4]), both.as_slice());
}
