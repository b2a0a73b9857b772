//! Directed checks of the non-monotone paths around an in-place replay.
//!
//! - An edit batch that also adds variables: under Exact (replay), Fast
//!   repair and Fast fallback (replay), the new variables exist on the
//!   solver the batch re-solves, read their committed sets, and the session
//!   matches a from-scratch solve and publishes the bytes of a cold encode.
//! - A batch naming a bad or removed group is rejected before anything
//!   changes: after the panic the session answers exactly as before, and
//!   the next batch commits normally.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bane_core::graph::GraphCensus;
use bane_core::prelude::*;
use bane_serve::{ApplyMode, ApplyReport, Delta, GroupId, Session, SessionBuilder};
use bane_snap::encode_solver;

/// A session over `c` and three variables with three groups:
/// g0 = `c ⊆ x ⊆ y`, g1 = `y ⊆ x` (closes the x/y cycle), g2 = `c ⊆ z`.
fn session(mode: ApplyMode) -> (Session, TermId, Vec<Var>) {
    let mut s = SessionBuilder::new().apply_mode(mode).obs(true).build();
    let c = s.register_nullary("c");
    let src = s.term(c, vec![]);
    let vars: Vec<Var> = (0..3).map(|_| s.fresh_var()).collect();
    let (x, y, z) = (vars[0], vars[1], vars[2]);
    let mut d = Delta::new();
    d.add_group(vec![(src.into(), x.into()), (x.into(), y.into())]);
    d.add_group(vec![(y.into(), x.into())]);
    d.add_group(vec![(src.into(), z.into())]);
    s.apply(d);
    (s, src, vars)
}

/// A from-scratch solve of `s`'s canonical sequence over the same
/// registrations (`c`, then `vars` variables).
fn scratch(s: &Session, vars: usize) -> Solver {
    let mut p = Problem::new(*s.solver().config());
    let c = p.register_nullary("c");
    p.term(c, vec![]);
    for _ in 0..vars {
        p.fresh_var();
    }
    for g in 0..s.group_slots() {
        for &(l, r) in s.group(GroupId::new(g as u32)).unwrap_or(&[]) {
            p.add(l, r);
        }
    }
    let mut solver = Solver::from_problem(p);
    solver.solve();
    solver
}

/// Asserts that `s` publishes the bytes of a cold encode of its solver.
fn assert_publishes_cold_bytes(s: &mut Session, tag: &str) {
    let dir = std::env::temp_dir().join(format!("bane-replay-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.snap");
    s.publish_snapshot(&path).expect("session publishes");
    let cold = encode_solver(&mut s.solver().clone()).expect("cold encode");
    assert_eq!(std::fs::read(&path).unwrap(), cold, "{tag}: publish = cold encode");
    std::fs::remove_dir_all(&dir).ok();
}

/// Asserts that `s` answers as the from-scratch solve `r` does: equal sets
/// for every variable and, after a replay, equal stats and census.
fn assert_matches_scratch(s: &mut Session, r: &mut Solver, vars: usize, replayed: bool, tag: &str) {
    if replayed {
        assert_eq!(s.stats(), r.stats(), "{tag}: stats");
        assert_eq!(s.census(), r.census(), "{tag}: census");
    }
    let ls = r.least_solution();
    for i in 0..vars {
        let v = Var::new(i);
        let want = ls.get(r.find(v)).to_vec();
        assert_eq!(s.points_to(v), want.as_slice(), "{tag}: {v:?}");
    }
}

#[test]
fn an_edit_that_adds_variables_commits_them_on_every_path() {
    // (mode, edited group, expect a repair): editing g2 touches no
    // collapse; editing g1 breaks the x/y cycle, so Fast falls back.
    let cases = [
        (ApplyMode::Exact, 2, false, "exact"),
        (ApplyMode::Fast, 2, true, "fast-repair"),
        (ApplyMode::Fast, 1, false, "fast-fallback"),
    ];
    for (mode, edited, repairs, tag) in cases {
        let (mut s, src, vars) = session(mode);
        let (new0, new1) = (Var::new(3), Var::new(4));
        let mut d = Delta::new();
        d.add_vars(2);
        d.edit_group(
            GroupId::new(edited),
            vec![(vars[1].into(), new0.into()), (new0.into(), new1.into())],
        );
        let report = s.apply(d);
        assert!(!report.monotone, "{tag}");
        assert_eq!(report.fast_repaired, repairs, "{tag}");
        assert_eq!(report.outcome.fell_back, tag == "fast-fallback", "{tag}");
        assert!(s.has_var(new1), "{tag}: the new variable exists");
        assert_eq!(s.solver().graph_len(), 5, "{tag}");
        assert_eq!(s.least_solution().len(), 5, "{tag}: the commit covers it");
        assert_eq!(s.points_to(new1), &[src], "{tag}: reads its committed set");

        let mut reference = scratch(&s, 5);
        assert_matches_scratch(&mut s, &mut reference, 5, !repairs, tag);
        assert_publishes_cold_bytes(&mut s, tag);

        // A repaired session reaches the byte identity with a reanchor.
        if repairs {
            s.reanchor();
            assert_matches_scratch(&mut s, &mut reference, 5, true, tag);
            assert_publishes_cold_bytes(&mut s, tag);
        }
    }
}

/// What a client can read from `s`.
#[derive(Debug, PartialEq)]
struct Answers {
    stats: Stats,
    census: GraphCensus,
    sets: Vec<Vec<TermId>>,
    slots: usize,
    vars: usize,
    groups: Vec<Option<Vec<(SetExpr, SetExpr)>>>,
}

fn answers(s: &mut Session) -> Answers {
    let vars = s.solver().graph_len();
    let slots = s.group_slots();
    Answers {
        stats: *s.stats(),
        census: s.census(),
        sets: (0..vars).map(|i| s.points_to(Var::new(i)).to_vec()).collect(),
        slots,
        vars,
        groups: (0..slots as u32).map(|g| s.group(GroupId::new(g)).map(<[_]>::to_vec)).collect(),
    }
}

/// Applies `d`, expecting a panic whose message contains `message`.
fn rejected(s: &mut Session, d: Delta, message: &str) {
    let err = catch_unwind(AssertUnwindSafe(|| s.apply(d))).expect_err("the batch is rejected");
    let text = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| err.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(text.contains(message), "panic {text:?} lacks {message:?}");
}

#[test]
fn a_rejected_batch_leaves_the_session_as_it_was() {
    for mode in [ApplyMode::Exact, ApplyMode::Fast] {
        let (mut s, src, vars) = session(mode);
        s.apply(Delta::new().remove_group(GroupId::new(2)).clone());
        let before = answers(&mut s);
        let z = vars[2];
        let edit = vec![(src.into(), z.into())];

        // Each batch does real work before the op that is rejected.
        let mut d = Delta::new();
        d.add_vars(2).add_group(edit.clone()).edit_group(GroupId::new(0), vec![]);
        d.remove_group(GroupId::new(9));
        rejected(&mut s, d, "no such group: g9");
        let mut d = Delta::new();
        d.add_vars(1).edit_group(GroupId::new(1), vec![]).edit_group(GroupId::new(2), edit.clone());
        rejected(&mut s, d, "cannot edit removed group: g2");
        let mut d = Delta::new();
        d.remove_group(GroupId::new(1)).add_group(edit.clone()).remove_group(GroupId::new(1));
        rejected(&mut s, d, "group already removed: g1");
        let mut d = Delta::new();
        d.remove_group(GroupId::new(0)).edit_group(GroupId::new(0), edit.clone());
        rejected(&mut s, d, "cannot edit removed group: g0");
        assert_eq!(answers(&mut s), before, "{mode:?}: rejected batches changed the session");

        // The session still commits, and a group added earlier in the
        // same batch may be named by a later op.
        let mut d = Delta::new();
        d.add_vars(1).remove_group(GroupId::new(1)).add_group(edit.clone());
        d.edit_group(GroupId::new(3), vec![(src.into(), Var::new(3).into())]);
        let report: ApplyReport = s.apply(d);
        assert_eq!(report.new_groups, vec![GroupId::new(3)]);
        assert_eq!(s.points_to(Var::new(3)), &[src], "{mode:?}");
        let mut reference = scratch(&s, 4);
        assert_matches_scratch(&mut s, &mut reference, 4, !report.fast_repaired, "after");
    }
}
