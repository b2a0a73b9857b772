//! The fleet-equivalence property: a [`ShardManager`] fleet driven through
//! a partitioned random edit history answers, after **every** step, every
//! `points_to` and `alias` query identically to one unsharded [`Session`]
//! fed the same script — and each shard's observables (stats, census,
//! least-solution buffers) stay byte-identical to a reference session fed
//! only that shard's canonical subsequence, at every thread count.
//!
//! Scripts are generated with `partitions = 4`, so the same script routes
//! cleanly over S ∈ {1, 2, 4} shards (ownership is modular:
//! `v mod S = (v mod 4) mod S` whenever `S` divides 4). The matrix covers
//! all three solution-set backends and worker counts 1/2/4/8 — none of
//! which may change a single observable.
//!
//! The tail of every check publishes the fleet into a [`SnapshotHub`] and
//! replays the queries against the lock-free [`HubView`], pinning the
//! serving layer to the same answers as a single-session snapshot.

use std::sync::atomic::{AtomicUsize, Ordering};

use bane_core::prelude::*;
use bane_serve::{Delta, GroupId, Session, SessionBuilder, ShardManager};
use bane_snap::{QueryIndex, ShardRoute, SnapshotHub};
use bane_synth::delta::{
    generate_delta_script, DeltaScript, DeltaScriptConfig, DeltaStep, ScriptBindings,
};
use proptest::prelude::*;

const SHARDS: [usize; 3] = [1, 2, 4];
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The shard owning a resolved constraint group: the owner of any of its
/// variables (the generator confines each group to one partition class).
fn owner_of(route: ShardRoute, cs: &[(SetExpr, SetExpr)]) -> usize {
    for &(lhs, rhs) in cs {
        for e in [lhs, rhs] {
            if let SetExpr::Var(v) = e {
                return route.owner(v);
            }
        }
    }
    0
}

/// Whether two sorted term-id slices intersect.
fn intersects(a: &[TermId], b: &[TermId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Drives `script` through an `shards`-wide fleet, an unsharded session,
/// and per-shard reference sessions, checking equivalence at every step
/// and hub-served equivalence at the end.
fn check_fleet(script: &DeltaScript, kind: SolSetKind, threads: usize, shards: usize) {
    assert_eq!(script.partitions as usize % shards, 0, "S must divide the partition count");
    let builder =
        SessionBuilder::new().config(SolverConfig::if_online().with_solset(kind)).threads(threads);
    let mut fleet = ShardManager::new(&builder, shards);
    let mut single = builder.build();
    let mut refs: Vec<Session> = (0..shards).map(|_| builder.build()).collect();
    let route = fleet.route();

    // Registrations fan out identically, so one binding set describes all
    // three rigs (the fleet's ConstraintBuilder impl asserts alignment).
    let mut bind = ScriptBindings::bind(&mut fleet, script);
    ScriptBindings::bind(&mut single, script);
    for r in &mut refs {
        ScriptBindings::bind(r, script);
    }

    // Script slot → group id in each rig (the fleet's ids are fleet-scoped,
    // the reference's are local to the owning shard).
    let mut fleet_slots: Vec<GroupId> = Vec::new();
    let mut single_slots: Vec<GroupId> = Vec::new();
    let mut ref_slots: Vec<(usize, GroupId)> = Vec::new();
    // Shards that have applied at least one delta (`least_solution` is
    // only defined after the first apply).
    let mut applied = vec![false; shards];

    for (i, step) in script.steps.iter().enumerate() {
        let mut fd = Delta::new();
        let mut sd = Delta::new();
        let mut rds: Vec<Delta> = (0..shards).map(|_| Delta::new()).collect();
        let mut nonmonotone = false;
        let mut new_owner = None;
        match step {
            DeltaStep::GrowVars(n) => {
                fd.add_vars(*n);
                sd.add_vars(*n);
                for rd in &mut rds {
                    rd.add_vars(*n);
                }
                let base = bind.vars.len();
                bind.vars.extend((0..*n as usize).map(|k| Var::new(base + k)));
            }
            DeltaStep::AddGroup(cs) => {
                let cs = bind.constraints(cs);
                let owner = owner_of(route, &cs);
                fd.add_group(cs.clone());
                sd.add_group(cs.clone());
                rds[owner].add_group(cs);
                new_owner = Some(owner);
            }
            DeltaStep::EditGroup { slot, constraints } => {
                let cs = bind.constraints(constraints);
                fd.edit_group(fleet_slots[*slot], cs.clone());
                sd.edit_group(single_slots[*slot], cs.clone());
                let (owner, local) = ref_slots[*slot];
                rds[owner].edit_group(local, cs);
                nonmonotone = true;
            }
            DeltaStep::RemoveGroup { slot } => {
                fd.remove_group(fleet_slots[*slot]);
                sd.remove_group(single_slots[*slot]);
                let (owner, local) = ref_slots[*slot];
                rds[owner].remove_group(local);
                nonmonotone = true;
            }
        }

        let freport = fleet.apply(fd).unwrap_or_else(|e| {
            panic!("step {i} ({kind:?}, {shards} shards): fleet rejected a partitioned script: {e}")
        });
        let sreport = single.apply(sd);
        assert_eq!(freport.monotone, sreport.monotone, "step {i}: path classification");
        assert_eq!(freport.monotone, !nonmonotone, "step {i}: monotonicity");
        let mut ref_reports = Vec::with_capacity(shards);
        for (k, rd) in rds.into_iter().enumerate() {
            ref_reports.push((!rd.is_empty()).then(|| refs[k].apply(rd)));
        }
        if let Some(owner) = new_owner {
            assert_eq!(freport.new_groups.len(), 1, "step {i}: one group per AddGroup");
            fleet_slots.push(freport.new_groups[0]);
            single_slots.push(sreport.new_groups[0]);
            let rr = ref_reports[owner].as_ref().expect("owner shard applied");
            ref_slots.push((owner, rr.new_groups[0]));
            assert_eq!(fleet.owner_of_group(freport.new_groups[0]), Some(owner));
        }
        // The router must have touched exactly the shards the references
        // did.
        for (k, rr) in ref_reports.iter().enumerate() {
            assert_eq!(
                freport.shard_reports[k].is_some(),
                rr.is_some(),
                "step {i}: shard {k} touched-set diverged"
            );
        }

        // (1) Global answers: every variable's set matches the unsharded
        // session's; sampled pairs agree on alias.
        for &v in &bind.vars {
            assert_eq!(
                fleet.points_to(v),
                single.points_to(v).to_vec().as_slice(),
                "step {i} ({kind:?}, {threads} threads, {shards} shards): set of {v:?} diverged"
            );
        }
        for pair in bind.vars.windows(2).step_by(3) {
            let (a, b) = (pair[0], pair[1]);
            let sa = single.points_to(a).to_vec();
            let expect = intersects(&sa, single.points_to(b));
            assert_eq!(fleet.alias(a, b), expect, "step {i}: alias({a:?},{b:?}) diverged");
        }

        // (2) Per-shard byte identity: each shard against a session fed
        // only that shard's canonical subsequence.
        for k in 0..shards {
            applied[k] |= freport.shard_reports[k].is_some();
            assert_eq!(fleet.session(k).stats(), refs[k].stats(), "step {i}: shard {k} stats");
            assert_eq!(fleet.session(k).census(), refs[k].census(), "step {i}: shard {k} census");
            if applied[k] {
                assert_eq!(
                    fleet.session(k).least_solution(),
                    refs[k].least_solution(),
                    "step {i}: shard {k} least-solution bytes"
                );
            }
        }
    }

    // (3) The published fleet serves the same answers as a single-session
    // snapshot, through the lock-free hub view. The tests of this file run
    // concurrently, so every call publishes into a directory of its own.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bane-fleet-eq-{}-{}-{kind:?}-{threads}t-{shards}s",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let hub = SnapshotHub::new(shards);
    fleet.publish_all(&dir, &hub).expect("fleet publishes");
    let view = hub.view();
    assert!(view.complete());
    let single_path = dir.join("single.snap");
    single.publish_snapshot(&single_path).expect("single publishes");
    let sidx = QueryIndex::load(&single_path).expect("single snapshot loads");
    for &v in &bind.vars {
        assert_eq!(view.points_to(v), sidx.points_to(v), "hub points_to({v:?})");
        assert_eq!(
            view.reachable_sources(v),
            sidx.reachable_sources(v),
            "hub reachable_sources({v:?})"
        );
    }
    for pair in bind.vars.windows(2).step_by(3) {
        assert_eq!(
            view.alias(pair[0], pair[1]),
            sidx.alias(pair[0], pair[1]),
            "hub alias({:?},{:?})",
            pair[0],
            pair[1]
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random partitioned scripts, every backend, every shard width.
    #[test]
    fn fleet_equals_unsharded(seed in 0u64..1_000_000, steps in 6usize..18) {
        let script = generate_delta_script(&DeltaScriptConfig::sharded(steps, seed, 4));
        script.validate().expect("generated script validates");
        for kind in SolSetKind::ALL {
            for shards in SHARDS {
                check_fleet(&script, kind, 2, shards);
            }
        }
    }
}

/// A fixed long adversarial script across the full backend × shard matrix,
/// pinned outside proptest so it always runs.
#[test]
fn long_partitioned_script_all_backends_all_widths() {
    let script = generate_delta_script(&DeltaScriptConfig::sharded(36, 0xf1ee7, 4));
    script.validate().expect("script validates");
    assert!(script.has_nonmonotone(), "long script must exercise replay");
    for kind in SolSetKind::ALL {
        for shards in SHARDS {
            check_fleet(&script, kind, 4, shards);
        }
    }
}

/// Worker count is invisible: the same script at every thread count, on a
/// 2- and 4-shard fleet (the per-shard byte-identity asserts inside
/// `check_fleet` are the teeth).
#[test]
fn thread_matrix_changes_nothing() {
    let script = generate_delta_script(&DeltaScriptConfig::sharded(24, 0xba9e, 4));
    script.validate().expect("script validates");
    for threads in THREADS {
        check_fleet(&script, SolSetKind::SortedSpan, threads, 2);
        check_fleet(&script, SolSetKind::Hybrid, threads, 4);
    }
}
