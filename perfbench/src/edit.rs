//! `edit-exact` and `edit-fast`: a closed-loop editor client driving one
//! `Session` through the wire protocol (`proto::parse_request` +
//! `proto::execute`), waiting for each reply before sending the next frame.
//!
//! The base is povray-2.2's Andersen constraint system split by
//! `build_grouped` into groups. Each commit carries one seeded edit: drop
//! one constraint of a group (`edit g<i>`), restore it on the next commit
//! (`edit g<i>`), drop a whole group (`drop g<i>`) or re-add a dropped group
//! (`group`, monotone). The mix is synthetic, not measured editor traffic:
//! see [`Client::next`]. After each
//! commit the client sends `snapshot <path>`, publishes the file to a
//! `SnapshotHub`, and sends a seeded batch of `points-to`/`alias` reads.
//!
//! Reference: after the timed loop, the client's own model of the live
//! groups is replayed commit by commit; each state is solved from scratch
//! (IF-Online, from the synthesized AST rather than the parsed text) and
//! every read answer, from the session and from the hub, is compared with
//! it by set equality.

use std::collections::VecDeque;
use std::time::Instant;

use bane_cfront::program_to_c;
use bane_core::prelude::*;
use bane_obs::{Phase, Recorder, RunReport};
use bane_points_to::andersen;
use bane_serve::proto::{execute, parse_request, Response};
use bane_serve::{ApplyMode, Delta, GroupId, Session, SessionBuilder};
use bane_snap::SnapshotHub;
use bane_synth::{suite_program, PAPER_SUITE};
use bane_util::rng::SplitMix64;

use crate::calib::Calibration;
use crate::stats::{self, bool_fp, derive, median, query, set_fp, Answer, Samples};
use crate::trace::Tracer;
use crate::{Args, Outcome};

type Constraints = Vec<(SetExpr, SetExpr)>;

/// Groups the base constraint system is split into.
const GROUPS: usize = 250;
/// Reads per commit, timed in batches of [`READ_BATCH`].
const READS: usize = 64;
const READ_BATCH: usize = 16;
/// Commits before the first timed sample.
const WARMUP: usize = 4;
/// Set-ups per untraced run; `setup_s` is their median. The first comes
/// before the timed loop, the rest are spread evenly through it.
const SETUP_REPS: usize = 12;
/// Distinct constraint sets whose reference solution the check keeps.
const REFERENCE_CACHE: usize = 2;
/// The timed loop stops here even short of its sample minimum.
const HARD_STOP_S: f64 = 90.0;

/// One client edit, as the client's model sees it.
#[derive(Clone, Debug)]
enum Step {
    /// Drop one constraint of a group.
    Edit(usize, Constraints),
    /// Restore the constraint the previous commit dropped; removes nothing.
    Restore(usize, Constraints),
    Drop(usize),
    Add(Constraints),
}

/// Names of the kinds of [`Step`], in [`Step::kind`] order.
const KINDS: [&str; 4] = ["drop-one", "restore", "drop-group", "re-add"];

impl Step {
    /// Index into [`KINDS`].
    fn kind(&self) -> usize {
        match self {
            Step::Edit(..) => 0,
            Step::Restore(..) => 1,
            Step::Drop(_) => 2,
            Step::Add(_) => 3,
        }
    }

    /// Whether the edit removes constraints, so that Fast must retract.
    fn retracts(&self) -> bool {
        matches!(self, Step::Edit(..) | Step::Drop(_))
    }
}

/// The kinds of edit the client sends, in order, over and over: five
/// drop/restore pairs of one constraint, then a group drop and its re-add.
const CYCLE: [usize; 12] = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2, 3];

/// The editor client: its model of the session's groups, the edit it has
/// outstanding, and where it is in [`CYCLE`].
struct Client {
    groups: Vec<Option<Constraints>>,
    restore: Option<(usize, Constraints)>,
    dropped: Option<Constraints>,
    sent: usize,
}

impl Client {
    fn live(&self, rng: &mut SplitMix64, min_len: usize) -> usize {
        loop {
            let g = rng.next_below(self.groups.len() as u64) as usize;
            if self.groups[g].as_ref().is_some_and(|c| c.len() >= min_len) {
                return g;
            }
        }
    }

    /// The next edit, of the kind [`CYCLE`] names; `rng` picks the group
    /// and the constraint.
    ///
    /// A synthetic mix after a single-user edit session, not measured
    /// editor traffic: every dropped constraint is restored on the next
    /// commit, and every dropped group is re-added on the next commit as a
    /// new group. That is 5/12 (42%) drop-one, 5/12 restore, 1/12 (8%)
    /// drop-group and 1/12 re-add commits. The kinds follow a fixed order
    /// so that every run has the same mix; only the seed's choice of group
    /// and constraint varies.
    fn next(&mut self, rng: &mut SplitMix64) -> Step {
        let kind = CYCLE[self.sent % CYCLE.len()];
        self.sent += 1;
        match kind {
            1 => {
                let (g, full) = self.restore.take().expect("a drop-one came before");
                Step::Restore(g, full)
            }
            2 => {
                let g = self.live(rng, 1);
                self.dropped = self.groups[g].clone();
                Step::Drop(g)
            }
            3 => Step::Add(self.dropped.take().expect("a drop-group came before")),
            _ => {
                let g = self.live(rng, 2);
                let full = self.groups[g].clone().expect("live");
                let mut edited = full.clone();
                edited.remove(rng.next_below(full.len() as u64) as usize);
                self.restore = Some((g, full));
                Step::Edit(g, edited)
            }
        }
    }

    fn apply(groups: &mut Vec<Option<Constraints>>, step: &Step) {
        match step {
            Step::Edit(g, c) | Step::Restore(g, c) => groups[*g] = Some(c.clone()),
            Step::Drop(g) => groups[*g] = None,
            Step::Add(c) => groups.push(Some(c.clone())),
        }
    }
}

fn expr_text(e: SetExpr) -> String {
    use bane_util::idx::Idx;
    match e {
        SetExpr::Zero => "zero".to_string(),
        SetExpr::One => "one".to_string(),
        SetExpr::Var(v) => format!("v{}", v.index()),
        SetExpr::Term(t) => format!("t{}", t.index()),
    }
}

fn constraints_text(c: &Constraints) -> String {
    let parts: Vec<String> = c
        .iter()
        .map(|&(l, r)| format!("{} <= {}", expr_text(l), expr_text(r)))
        .collect();
    parts.join("; ")
}

fn step_frame(step: &Step) -> String {
    match step {
        Step::Edit(g, c) | Step::Restore(g, c) => format!("edit g{g} {}", constraints_text(c)),
        Step::Drop(g) => format!("drop g{g}"),
        Step::Add(c) => format!("group {}", constraints_text(c)),
    }
}

/// Which apply path a commit took.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ApplyPath {
    Monotone,
    Replay,
    Repair,
    Fallback,
}

const PATHS: [(ApplyPath, &str); 4] = [
    (ApplyPath::Monotone, "monotone"),
    (ApplyPath::Replay, "replay"),
    (ApplyPath::Repair, "repair"),
    (ApplyPath::Fallback, "fallback"),
];

/// Everything recorded about one commit for the deferred check.
struct Record {
    step: Step,
    ok: bool,
    queries: Vec<(Var, Option<Var>)>,
    session_fps: Vec<u64>,
    hub_fps: Vec<u64>,
}

/// Fingerprint of a wire read reply (`ok {t1,t2}`, `ok yes`, `ok no`).
fn reply_fp(reply: &str) -> u64 {
    match reply {
        "ok yes" => bool_fp(true),
        "ok no" => bool_fp(false),
        _ => {
            let Some(body) = reply.strip_prefix("ok {").and_then(|r| r.strip_suffix('}')) else {
                return 0;
            };
            let mut ids = Vec::new();
            for tok in body.split(',').filter(|t| !t.is_empty()) {
                match tok.strip_prefix('t').and_then(|n| n.parse::<u64>().ok()) {
                    Some(i) => ids.push(i),
                    None => return 0,
                }
            }
            stats::ids_fp(ids)
        }
    }
}

fn query_frame(q: (Var, Option<Var>)) -> String {
    use bane_util::idx::Idx;
    match q {
        (a, None) => format!("points-to v{}", a.index()),
        (a, Some(b)) => format!("alias v{} v{}", a.index(), b.index()),
    }
}

/// Nanoseconds the recorder has timed in the phases `pick` selects, summed
/// as self time so nested phases count once.
fn phase_ns(rec: Option<&Recorder>, pick: impl Fn(Phase) -> bool) -> u64 {
    rec.map_or(0, |r| {
        Phase::ALL
            .into_iter()
            .filter(|&p| pick(p))
            .map(|p| r.timers().get(p).self_ns())
            .sum()
    })
}

/// Recorder totals read around a traced call: everything the live
/// solver timed (core), what the session timed outside `serve-apply`
/// (revalidation, par), and the solver's resolve and least-solution phases.
#[derive(Clone, Copy, Default)]
struct RecorderNs {
    core: u64,
    par: u64,
    resolve: u64,
    least: u64,
}

impl RecorderNs {
    fn read(session: &Session) -> Self {
        let solver = session.solver().obs();
        let total = |p: Phase| solver.map_or(0, |r| r.timers().get(p).total_ns);
        RecorderNs {
            core: phase_ns(solver, |_| true),
            par: phase_ns(session.recorder(), |p| p != Phase::ServeApply),
            resolve: total(Phase::Resolve),
            least: total(Phase::LeastSolution),
        }
    }
}

/// Parses `frame` and executes it, with a `proto.parse` span around the
/// parse and a `module.name` span around the execution. Time the program's
/// recorders saw inside the call is attributed to `core` and `par`, and the
/// solver's resolve and least-solution time is added to `acc`.
#[allow(clippy::too_many_arguments)]
fn traced_execute(
    tr: &mut Tracer,
    acc: &mut RecorderNs,
    module: &'static str,
    name: &'static str,
    session: &mut Session,
    pending: &mut Delta,
    frame: &str,
) -> Response {
    let s = tr.begin("proto", "parse");
    let req = parse_request(frame);
    tr.end(s);
    let req = match req {
        Ok(r) => r,
        Err(e) => return Response::Err(e),
    };
    if !tr.enabled() {
        return execute(session, pending, req);
    }
    let mut before = RecorderNs::read(session);
    let s = tr.begin(module, name);
    let resp = execute(session, pending, req);
    tr.end(s);
    let after = RecorderNs::read(session);
    // A replay builds a new solver whose recorder starts from zero.
    if matches!(&resp, Response::Ok(r) if r.contains("path=replay")) {
        before = RecorderNs {
            par: before.par,
            ..RecorderNs::default()
        };
    }
    tr.attribute(s, "core", after.core.saturating_sub(before.core));
    tr.attribute(s, "par", after.par.saturating_sub(before.par));
    acc.resolve += after.resolve.saturating_sub(before.resolve);
    acc.least += after.least.saturating_sub(before.least);
    resp
}

/// The user's cold start: parse the base program, generate its Andersen
/// constraints, split them into `groups` groups behind a session, and
/// publish the first snapshot. `None` if any step fails.
fn cold_start(
    tr: &mut Tracer,
    text: &str,
    mode: ApplyMode,
    groups: usize,
    snap_frame: &str,
    snap_path: &std::path::Path,
) -> Option<(Session, SnapshotHub, usize)> {
    let s = tr.begin("cfront", "parse");
    let program = bane_cfront::parse(text);
    tr.end(s);
    let program = program.ok()?;
    let s = tr.begin("pointsto", "generate");
    let mut problem = Problem::new(SolverConfig::if_online());
    andersen::generate(&program, &mut problem);
    tr.end(s);
    let s = tr.begin("serve", "build_grouped");
    let mut session = SessionBuilder::new()
        .apply_mode(mode)
        .build_grouped(problem, groups);
    tr.end(s);
    let hub = SnapshotHub::new(1);
    let s = tr.begin("snap", "write");
    let written = execute(
        &mut session,
        &mut Delta::new(),
        parse_request(snap_frame).ok()?,
    );
    tr.end(s);
    let s = tr.begin("snap", "publish");
    let published = hub.publish_path(0, snap_path);
    tr.end(s);
    (written.is_ok() && published.is_ok()).then(|| (session, hub, program.ast_nodes()))
}

pub fn run(args: &Args, mode: ApplyMode) -> Outcome {
    let (scale, groups) = if args.smoke {
        (0.02, 24)
    } else {
        (0.2, GROUPS)
    };
    let entry = PAPER_SUITE
        .iter()
        .find(|e| e.name == "povray-2.2")
        .expect("povray-2.2 in suite");
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace);
    let snap_path = args
        .work_dir
        .join(format!("{}-{}.snap", args.workload, std::process::id()));
    let snap_frame = format!("snapshot {}", snap_path.display());

    // Input: the base program as C text.
    let source = suite_program(entry, scale);
    let text = program_to_c(&source);

    // Set-up: the user's cold start. An untraced run repeats it, on a
    // session it then drops, at even intervals through the timed loop, so
    // that its samples meet the same machine drift as the commits do;
    // `setup_s` is their median.
    let mut e2e = Samples::default();
    let mut cal = Calibration::new();
    let t = Instant::now();
    let built = cold_start(&mut tr, &text, mode, groups, &snap_frame, &snap_path);
    e2e.setup_s.push((cal.now(), t.elapsed().as_secs_f64()));
    cal.run();
    let Some((mut session, hub, ast_nodes)) = built else {
        out.attempted = 1;
        out.failed = 1;
        return out;
    };
    let mut setup_failed = 0u64;
    let setup_every = args.seconds / SETUP_REPS as f64;
    let mut next_setup = setup_every;
    let n_vars = session.solver().graph_len();
    let base: Vec<Option<Constraints>> = (0..session.group_slots())
        .map(|g| session.group(GroupId::new(g as u32)).map(<[_]>::to_vec))
        .collect();
    let base_constraints: usize = base.iter().flatten().map(Vec::len).sum();
    let mut client = Client {
        groups: base.clone(),
        restore: None,
        dropped: None,
        sent: 0,
    };
    let mut pending = Delta::new();
    // Warm-up commits follow a fixed stream, so the state and memory they
    // leave do not depend on the seed; the timed commits follow the seed.
    let mut warm_rng = SplitMix64::new(derive(0, 0, 0));
    let mut rng = SplitMix64::new(derive(args.seed, 0, 0));
    let mut rss_warm = None;

    let (mut untraced_fresh, mut traced_fresh) = (Vec::new(), Vec::new());
    let mut commits: Vec<CommitStat> = Vec::new();
    let (mut dirty_levels, mut total_levels, mut dirty_vars, mut reused_vars) =
        (0u64, 0u64, 0u64, 0u64);
    let mut records: Vec<Record> = Vec::new();
    let mut acc = RecorderNs::default();

    tr.set_enabled(false);
    let min_commits = if args.smoke {
        10
    } else {
        stats::MIN_TAIL_SAMPLES
    };
    let trace_from = args.seconds / 2.0;
    let start = Instant::now();
    let mut generation = hub.generation(0);
    let mut commit = 0usize;
    loop {
        let measured = commit >= WARMUP;
        if measured && rss_warm.is_none() {
            // Memory the kernel freed may stay resident: it runs right
            // before the sample, so the sample does not depend on whether
            // it happened to run just before.
            cal.run();
            rss_warm = Some(stats::rss_mb());
        }
        let elapsed = start.elapsed().as_secs_f64();
        let enough = elapsed >= args.seconds && commit >= WARMUP + min_commits;
        if enough || elapsed >= HARD_STOP_S {
            break;
        }
        if !args.trace && measured && elapsed >= next_setup {
            next_setup += setup_every;
            let t = Instant::now();
            let again = cold_start(&mut tr, &text, mode, groups, &snap_frame, &snap_path);
            e2e.setup_s.push((cal.now(), t.elapsed().as_secs_f64()));
            setup_failed += again.is_none() as u64;
            drop(again);
        }
        if args.trace && elapsed >= trace_from && !tr.enabled() {
            tr.set_enabled(true);
            session.enable_obs();
        }
        let traced = tr.enabled();

        // Client side, untimed: the edit and the read frames.
        let (stream, stream_seed) = if measured {
            (&mut rng, args.seed)
        } else {
            (&mut warm_rng, 0)
        };
        let step = client.next(stream);
        Client::apply(&mut client.groups, &step);
        let edit_frame = step_frame(&step);
        let mut qrng = SplitMix64::new(derive(stream_seed, 1, commit as u64));
        let queries: Vec<(Var, Option<Var>)> =
            (0..READS).map(|_| query(&mut qrng, n_vars)).collect();
        let read_frames: Vec<String> = queries.iter().map(|&q| query_frame(q)).collect();
        let mut replies: Vec<String> = Vec::with_capacity(READS);

        tr.request(commit as u64 + 1);
        let root = tr.begin("bench", "commit");
        let loop_start = Instant::now();
        let staged = traced_execute(
            &mut tr,
            &mut acc,
            "proto",
            "stage",
            &mut session,
            &mut pending,
            &edit_frame,
        );
        let t0 = Instant::now();
        let committed = traced_execute(
            &mut tr,
            &mut acc,
            "serve",
            "commit",
            &mut session,
            &mut pending,
            "commit",
        )
        .render();
        let t_commit = t0.elapsed();
        let snap = traced_execute(
            &mut tr,
            &mut acc,
            "snap",
            "write",
            &mut session,
            &mut pending,
            &snap_frame,
        )
        .render();
        let s = tr.begin("snap", "publish");
        let published = hub.publish_path(0, &snap_path);
        tr.end(s);
        let t_fresh = t0.elapsed();
        for batch in read_frames.chunks(READ_BATCH) {
            let t = Instant::now();
            for frame in batch {
                let reply = traced_execute(
                    &mut tr,
                    &mut acc,
                    "proto",
                    "read",
                    &mut session,
                    &mut pending,
                    frame,
                );
                replies.push(reply.render());
            }
            if measured && !traced {
                let us = t.elapsed().as_nanos() as f64 / batch.len() as f64 / 1e3;
                e2e.read_us.push((cal.now(), us));
            }
        }
        let loop_wall = loop_start.elapsed();
        tr.end(root);

        // Client side, untimed: what the commit did, and the hub's answers.
        let outcome = session.last_outcome();
        let path = if committed.contains("path=monotone") {
            ApplyPath::Monotone
        } else if committed.contains("path=fast-repair") {
            ApplyPath::Repair
        } else if outcome.fell_back {
            ApplyPath::Fallback
        } else {
            ApplyPath::Replay
        };
        let new_group_ok = match &step {
            Step::Add(_) => committed.contains(&format!("groups=[g{}]", client.groups.len() - 1)),
            _ => true,
        };
        generation += 1;
        let hub_current = published.as_ref().is_ok_and(|&g| g == generation);
        let view = hub.view();
        let s = tr.begin("snap", "read");
        let hub_answers: Vec<Answer<'_>> = queries
            .iter()
            .map(|&(a, b)| match b {
                None => Answer::Set(view.points_to(a)),
                Some(b) => Answer::Alias(view.alias(a, b)),
            })
            .collect();
        tr.end(s);
        let hub_fps = hub_answers.iter().map(Answer::fp).collect();
        let snap_bytes = snap
            .strip_prefix("ok snapshot ")
            .and_then(|r| r.strip_suffix(" bytes"))
            .and_then(|b| b.parse::<f64>().ok());
        let (kind, retracts) = (step.kind(), step.retracts());
        records.push(Record {
            step,
            ok: staged.is_ok()
                && committed.starts_with("ok committed")
                && new_group_ok
                && snap_bytes.is_some()
                && hub_current,
            queries,
            session_fps: replies.iter().map(|r| reply_fp(r)).collect(),
            hub_fps,
        });
        if measured {
            let commit_ms = t_commit.as_secs_f64() * 1e3;
            let fresh_ms = t_fresh.as_secs_f64() * 1e3;
            commits.push(CommitStat {
                kind,
                retracts,
                path,
                untraced_ms: (!traced).then_some(commit_ms),
            });
            dirty_levels += outcome.dirty_levels as u64;
            total_levels += outcome.total_levels as u64;
            dirty_vars += outcome.dirty_vars as u64;
            reused_vars += outcome.reused_vars as u64;
            if traced {
                traced_fresh.push(fresh_ms);
            } else {
                untraced_fresh.push(fresh_ms);
                e2e.commit_ms.push((cal.now(), commit_ms));
                e2e.fresh_ms.push((cal.now(), fresh_ms));
                e2e.pass_s.push((cal.now(), loop_wall.as_secs_f64()));
                e2e.snapshot_mb.push(snap_bytes.unwrap_or(0.0) / 1e6);
            }
        }
        commit += 1;
        cal.run_if_due();
    }
    let rss_end = stats::rss_mb();
    let stats_end = *session.stats();
    let reports: Vec<RunReport> = session
        .recorder()
        .map(|r| r.report("session"))
        .into_iter()
        .chain(session.solver().obs().map(|r| r.report("solver")))
        .collect();
    drop(session);
    let _ = std::fs::remove_file(&snap_path);

    // Reference check, outside every reported time.
    if args.corrupt {
        if let Some(r) = records.first_mut() {
            r.session_fps[0] ^= 1;
        }
    }
    let mut reference = Problem::new(SolverConfig::if_online());
    andersen::generate(&source, &mut reference);
    let ref_base = reference.split_off_constraints(0);
    let same_base = base.iter().flatten().flatten().eq(ref_base.iter());
    let mut failed = setup_failed;
    let mut model = base;
    // A restore brings back an earlier constraint set, and the least
    // solution depends only on the set: each set is solved from scratch once
    // while it stays among the last few seen.
    let mut solved: VecDeque<(Constraints, Solver, LeastSolution)> = VecDeque::new();
    let mut solves = 0usize;
    let check_start = Instant::now();
    for r in &records {
        Client::apply(&mut model, &r.step);
        let mut live: Constraints = model.iter().flatten().flatten().copied().collect();
        live.sort_unstable();
        let hit = solved.iter().position(|(key, ..)| *key == live);
        let (_, solver, ls) = match hit {
            Some(i) => {
                let entry = solved.remove(i).expect("position is in range");
                solved.push_front(entry);
                &mut solved[0]
            }
            None => {
                let mut p = reference.clone();
                for &(l, rhs) in &live {
                    p.add(l, rhs);
                }
                let mut solver = Solver::from_problem(p);
                solver.solve();
                let ls = solver.least_solution();
                solves += 1;
                solved.truncate(REFERENCE_CACHE - 1);
                solved.push_front((live, solver, ls));
                &mut solved[0]
            }
        };
        failed += (!r.ok || !same_base) as u64;
        for (i, &(a, b)) in r.queries.iter().enumerate() {
            let expect = match b {
                None => set_fp(ls.get(solver.find(a))),
                Some(b) => bool_fp(stats::intersects(
                    ls.get(solver.find(a)),
                    ls.get(solver.find(b)),
                )),
            };
            let wrong = r.session_fps[i] != expect || r.hub_fps[i] != expect || !same_base;
            failed += wrong as u64;
        }
    }
    out.attempted = 1 + records.len() as u64 * (1 + READS as u64);
    out.failed = failed;
    out.notes.push(format!(
        "{}: povray-2.2 at scale {scale}, {base_constraints} constraints in {} groups, {} commits ({WARMUP} warm-up)",
        args.workload,
        client.groups.len(),
        records.len(),
    ));
    for (k, name) in KINDS.iter().enumerate() {
        let of_kind: Vec<&CommitStat> = commits.iter().filter(|c| c.kind == k).collect();
        let paths: Vec<String> = PATHS
            .iter()
            .map(|&(p, path)| (path, of_kind.iter().filter(|c| c.path == p).count()))
            .filter(|&(_, n)| n > 0)
            .map(|(path, n)| format!("{path}={n}"))
            .collect();
        let ms: Vec<f64> = of_kind.iter().filter_map(|c| c.untraced_ms).collect();
        out.notes.push(format!(
            "{name}: {} measured commits, paths {}, untraced commit_ms median {:.2}",
            of_kind.len(),
            paths.join(" "),
            median(&ms)
        ));
    }
    out.notes.push(format!(
        "check: {solves} from-scratch reference solves in {:.1} s",
        check_start.elapsed().as_secs_f64()
    ));

    if args.trace {
        let ms = |m, n| tr.mean_ns(m, n) / 1e6;
        let measured = commits.len().max(1) as f64;
        out.put("cfront.parse_ms", ms("cfront", "parse"), "ms");
        out.put("cfront.ast_nodes", ast_nodes as f64, "count");
        out.put("pointsto.gen_ms", ms("pointsto", "generate"), "ms");
        out.put("pointsto.constraints", base_constraints as f64, "count");
        let traced_commits = tr.requests().max(1) as f64;
        out.put(
            "core.solve_ms",
            acc.resolve as f64 / 1e6 / traced_commits,
            "ms",
        );
        out.put(
            "core.least_ms",
            acc.least as f64 / 1e6 / traced_commits,
            "ms",
        );
        out.put("core.work", stats_end.work as f64, "count");
        out.put(
            "core.redundant_ratio",
            stats_end.redundant as f64 / stats_end.work.max(1) as f64,
            "ratio",
        );
        out.put(
            "core.vars_eliminated",
            stats_end.vars_eliminated as f64,
            "count",
        );
        out.put(
            "core.search.visits",
            stats_end.search.nodes_visited as f64,
            "count",
        );
        out.put("snap.encode_ms", ms("snap", "write"), "ms");
        out.put("snap.load_ms", ms("snap", "publish"), "ms");
        out.put(
            "snap.read_ns",
            tr.mean_ns("snap", "read") / READS as f64,
            "ns",
        );
        out.put("snap.bytes", median(&e2e.snapshot_mb) * 1e6, "bytes");
        // Counts cover every measured commit; times only the untraced ones,
        // which the session's recorders do not inflate.
        for (p, name) in PATHS {
            let on_path: Vec<&CommitStat> = commits.iter().filter(|c| c.path == p).collect();
            let times: Vec<f64> = on_path.iter().filter_map(|c| c.untraced_ms).collect();
            let mean = if times.is_empty() {
                0.0
            } else {
                times.iter().sum::<f64>() / times.len() as f64
            };
            out.put(format!("serve.apply_ms.{name}"), mean, "ms");
            out.put(format!("serve.path.{name}"), on_path.len() as f64, "count");
        }
        // A restore removes nothing, so Fast always repairs it: the ratio
        // counts only the commits that retract constraints.
        let retracting = commits.iter().filter(|c| c.retracts);
        let repaired = retracting
            .clone()
            .filter(|c| c.path == ApplyPath::Repair)
            .count();
        out.put(
            "serve.fast.repair_ratio",
            repaired as f64 / retracting.count().max(1) as f64,
            "ratio",
        );
        out.put("par.dirty_levels", dirty_levels as f64 / measured, "count");
        out.put("par.total_levels", total_levels as f64 / measured, "count");
        out.put(
            "par.reuse_ratio",
            reused_vars as f64 / (reused_vars + dirty_vars).max(1) as f64,
            "ratio",
        );
        out.put(
            "serve.rss_growth_kb",
            (rss_end - rss_warm.unwrap_or(rss_end)) * 1e3 / measured,
            "KB",
        );
        out.put("proto.parse_us", tr.mean_ns("proto", "parse") / 1e3, "us");
        out.put("proto.read_us", tr.mean_ns("proto", "read") / 1e3, "us");
        for (module, ns) in tr.self_ns_by_module() {
            out.put(
                format!("self_ms.{module}"),
                ns as f64 / 1e6 / traced_commits,
                "ms",
            );
        }
        out.put(
            "trace.overhead_pct",
            (median(&traced_fresh) / median(&untraced_fresh) - 1.0) * 100.0,
            "%",
        );
        tr.dump(&args.work_dir, &args.workload, reports.iter());
    } else {
        e2e.rss_mb = rss_warm.unwrap_or(rss_end);
        e2e.emit(&mut out, &cal);
    }
    out
}

/// What one measured commit did, for the per-layer metrics.
struct CommitStat {
    /// Index into [`KINDS`].
    kind: usize,
    retracts: bool,
    path: ApplyPath,
    /// Commit time, kept for untraced commits only.
    untraced_ms: Option<f64>,
}
