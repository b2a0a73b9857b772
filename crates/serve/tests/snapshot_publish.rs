//! Publishing is encoding, not solving: the snapshot a [`Session`] writes
//! from the least solution and CSR its last commit revalidated is
//! byte-identical to a cold `bane_snap::encode_solver` of (a clone of) its
//! live solver.
//!
//! Checked after every apply of random edit-heavy histories under both
//! apply modes, at 1 and 2 revalidation workers, with the sorted-span and
//! bitmap backends; before the first apply (the cold fallback); over the
//! wire while a delta is staged but not committed (the snapshot reflects
//! the last commit); and per shard through `ShardManager::publish_all`.

use std::path::{Path, PathBuf};

use bane_core::prelude::*;
use bane_serve::proto::execute;
use bane_serve::{parse_request, ApplyMode, Delta, GroupId, Session, SessionBuilder, ShardManager};
use bane_snap::{encode_solver, QueryIndex, SnapshotHub};
use bane_synth::delta::{
    generate_delta_script, DeltaScript, DeltaScriptConfig, DeltaStep, ScriptBindings,
};
use proptest::prelude::*;

const MODES: [ApplyMode; 2] = [ApplyMode::Exact, ApplyMode::Fast];
const KINDS: [SolSetKind; 2] = [SolSetKind::SortedSpan, SolSetKind::Bitmap];
const THREADS: [usize; 2] = [1, 2];

/// A fresh scratch directory for one rig.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bane-publish-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The cold reference: encode a clone of `session`'s live solver.
fn cold_image(session: &Session) -> Vec<u8> {
    encode_solver(&mut session.solver().clone()).expect("cold encode")
}

/// Publishes `session` to `path` and returns the bytes on disk.
fn published(session: &mut Session, path: &Path) -> Vec<u8> {
    let n = session.publish_snapshot(path).expect("session publishes");
    let bytes = std::fs::read(path).unwrap();
    assert_eq!(n, bytes.len() as u64, "reported size is the file size");
    bytes
}

/// The delta for one script step; `slots` maps script slots to the group
/// ids the target assigned.
fn step_delta(step: &DeltaStep, bind: &mut ScriptBindings, slots: &[GroupId]) -> Delta {
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
    delta
}

/// Drives `script` through one session, comparing every publish with a
/// cold encode, then checks a wire snapshot taken with a delta staged.
fn check_session(script: &DeltaScript, mode: ApplyMode, kind: SolSetKind, threads: usize) {
    let config = SolverConfig::if_online().with_solset(kind);
    let mut session =
        SessionBuilder::new().config(config).threads(threads).apply_mode(mode).build();
    let mut bind = ScriptBindings::bind(&mut session, script);
    let dir = scratch_dir(&format!("{mode:?}-{kind:?}-{threads}"));
    let path = dir.join("session.snap");
    let rig = format!("{mode:?}, {kind:?}, {threads} threads");

    // Before the first apply there is no committed solution: cold path.
    assert_eq!(published(&mut session, &path), cold_image(&session), "{rig}: pre-apply");

    let mut slots = Vec::new();
    for (i, step) in script.steps.iter().enumerate() {
        let report = session.apply(step_delta(step, &mut bind, &slots));
        slots.extend(report.new_groups);
        assert_eq!(published(&mut session, &path), cold_image(&session), "{rig}: step {i}");
    }
    let last_commit = published(&mut session, &path);

    // Over the wire, with variables, a group and (when one is live) a drop
    // staged but not committed: the snapshot is still the last commit's.
    let mut pending = Delta::new();
    let wire = |session: &mut Session, pending: &mut Delta, frame: &str| {
        let reply = execute(session, pending, parse_request(frame).expect("frame parses"));
        assert!(reply.is_ok(), "{rig}: `{frame}` -> {}", reply.render());
    };
    let v = bind.vars.len();
    wire(&mut session, &mut pending, "vars 2");
    wire(&mut session, &mut pending, &format!("group t0 <= v{v} ; v{v} <= v0"));
    if let Some(&g) = slots.iter().rev().find(|&&g| session.group(g).is_some()) {
        wire(&mut session, &mut pending, &format!("drop {g}"));
    }
    let snap_frame = format!("snapshot {}", path.display());
    wire(&mut session, &mut pending, &snap_frame);
    let staged = std::fs::read(&path).unwrap();
    assert_eq!(staged, last_commit, "{rig}: staged delta leaked into the snapshot");
    assert_eq!(staged, cold_image(&session), "{rig}: staged snapshot vs cold encode");

    // A constructor and term registered while the delta is staged join the
    // tables of both encodings alike.
    wire(&mut session, &mut pending, "con w +");
    wire(&mut session, &mut pending, "term w v0");
    wire(&mut session, &mut pending, &snap_frame);
    assert_eq!(std::fs::read(&path).unwrap(), cold_image(&session), "{rig}: staged term");

    // Committing the staged delta publishes the new state.
    wire(&mut session, &mut pending, "commit");
    assert_eq!(published(&mut session, &path), cold_image(&session), "{rig}: after commit");
    let index = QueryIndex::load(&path).expect("snapshot loads");
    for &v in &bind.vars {
        assert_eq!(index.points_to(v), session.points_to(v), "{rig}: served set of {v:?}");
    }

    // A variable created outside an apply is not covered by the last
    // commit: publishing solves cold rather than leave it out.
    session.fresh_var();
    assert_eq!(published(&mut session, &path), cold_image(&session), "{rig}: unapplied var");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random edit-heavy histories: every publish equals a cold encode.
    #[test]
    fn session_snapshot_equals_cold_encode(seed in 0u64..1_000_000, steps in 6usize..24) {
        let script = generate_delta_script(&DeltaScriptConfig::edit_heavy(steps, seed, 2.0));
        script.validate().expect("generated script validates");
        for mode in MODES {
            for kind in KINDS {
                for threads in THREADS {
                    check_session(&script, mode, kind, threads);
                }
            }
        }
    }
}

/// A 2-shard fleet: after every routed batch, `publish_all` writes each
/// shard's cold encode, including shards that have not applied yet.
#[test]
fn fleet_publish_all_writes_per_shard_cold_encodes() {
    for mode in MODES {
        let script = generate_delta_script(&DeltaScriptConfig::sharded(24, 0x5a4b, 4));
        let builder = SessionBuilder::new().apply_mode(mode);
        let mut fleet = ShardManager::new(&builder, 2);
        let mut bind = ScriptBindings::bind(&mut fleet, &script);
        let dir = scratch_dir(&format!("fleet-{mode:?}"));
        let hub = SnapshotHub::new(2);
        let mut slots = Vec::new();
        for (i, step) in script.steps.iter().enumerate() {
            let report = fleet.apply(step_delta(step, &mut bind, &slots)).expect("routes");
            slots.extend(report.new_groups);
            let sizes = fleet.publish_all(&dir, &hub).expect("fleet publishes");
            for (k, &size) in sizes.iter().enumerate() {
                let bytes = std::fs::read(dir.join(format!("shard-{k}.snap"))).unwrap();
                assert_eq!(size, bytes.len() as u64);
                let cold = encode_solver(&mut fleet.session(k).solver().clone()).unwrap();
                assert_eq!(bytes, cold, "{mode:?} step {i}: shard {k}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
