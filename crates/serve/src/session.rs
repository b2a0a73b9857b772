//! The long-lived [`Session`]: solved state plus delta re-solve.
//!
//! # What stays byte-identical, and how
//!
//! The repository-wide contract is that every alternative execution path
//! reproduces the sequential solver's observables *exactly*. A session keeps
//! that contract through two mechanisms:
//!
//! - **Canonical replay** for non-monotone deltas. Online cycle elimination
//!   is schedule-dependent: feeding the same constraints in a different
//!   order (or against a pre-warmed graph) collapses different cycles at
//!   different times, changing Work, the redundant-constraint count, and the
//!   graph census — even though the least solution's *sets* are
//!   order-independent. The only way to reproduce a from-scratch solve's
//!   observables byte-for-byte is to *be* a from-scratch solve: the session
//!   keeps the canonical constraint sequence (live groups in slot order),
//!   resets the live solver in place ([`Solver::reset`] forgets every
//!   constraint but keeps the registrations and the buffers) and replays the
//!   sequence into it. A reset solver is observably identical to a new one,
//!   so the replay is a from-scratch solve that does not regrow its
//!   adjacency lists, worklist and forwarding table from empty. Cost is
//!   bounded by the solver, not the session.
//! - **Least-solution revalidation** for both paths. Whatever produced the
//!   solved graph, the expensive part of serving is evaluating equation (1)
//!   over it. The session's [`Revalidator`] compares the new canonical CSR
//!   rows against the previous commit's and recomputes only variables whose
//!   sources, predecessors, representative status, or (transitively) any
//!   predecessor changed. Clean variables copy their previous spans
//!   verbatim, which is where the `serve.reuse.hit` wins come from.
//!
//! The net equivalence contract of [`Session::apply`]:
//!
//! - after a **non-monotone** delta, `stats()`, `census()`,
//!   `inconsistencies()` and the least solution are byte-identical to a
//!   from-scratch solve of the canonical sequence (same `Solver`, same
//!   schedule, by construction);
//! - after a **monotone** delta, the least solution's per-variable *sets*
//!   equal a from-scratch solve's (monotonicity), but work counters and
//!   census may legitimately differ — the live solver took a different
//!   (cheaper) schedule. Clients needing full observable parity after a
//!   monotone batch can force replay with
//!   [`Session::reanchor`].
//!
//! # Limitations
//!
//! Oracle-partitioned configurations (`Solver::with_oracle`) are not
//! supported: the oracle aliases variable creations per a partition
//! computed from one constraint set, which a replay of a different set
//! would not reproduce, and [`Solver::reset`] panics on an oracle solver.

use bane_core::graph::GraphCensus;
use bane_core::least::{LeastSolution, RevalidateOutcome, Revalidator};
use bane_core::prelude::*;
use bane_obs::{Counter, Phase, Recorder};
use bane_util::idx::Idx;
use bane_util::FxHashMap;

use crate::delta::{Delta, DeltaOp, GroupId};

/// Sub-group provenance granularity: each group's constraints are spread
/// over this many provenance atoms (`atom = group · ATOM_BUCKETS + bucket`),
/// so an edit that removes a few constraints retracts — and gates the
/// collapse check on — only its own slice of the group, not the whole
/// group. At whole-suite scale this is the difference between a gate that
/// can pass and one that never does: every one of 64 coarse groups
/// transitively feeds some collapsed cycle, but most ~dozen-constraint
/// slices feed none.
const ATOM_BUCKETS: u32 = 256;

/// The provenance atom for `bucket` of `group`.
fn atom(group: u32, bucket: u32) -> u32 {
    group * ATOM_BUCKETS + bucket
}

/// A live constraint group: its contents plus the provenance atom of each
/// constraint (assigned at first add, stable across edits for surviving
/// constraints — retraction deletes by recorded atom, so a constraint's tag
/// must never drift while its facts are in the graph).
#[derive(Clone, Debug)]
struct LiveGroup {
    constraints: Vec<(SetExpr, SetExpr)>,
    /// Provenance atom per constraint (parallel to `constraints`).
    atoms: Vec<u32>,
    /// Rotating bucket cursor for constraints added by later edits.
    next_bucket: u32,
}

impl LiveGroup {
    /// A fresh group: constraint `k` of `n` lands in the contiguous bucket
    /// `k·ATOM_BUCKETS/n`, mirroring canonical order so an edit's
    /// neighborhood shares few atoms.
    fn new(group: u32, constraints: Vec<(SetExpr, SetExpr)>) -> Self {
        let n = constraints.len().max(1) as u64;
        let atoms = (0..constraints.len() as u64)
            .map(|k| atom(group, (k * u64::from(ATOM_BUCKETS) / n) as u32))
            .collect();
        LiveGroup { constraints, atoms, next_bucket: 0 }
    }

    /// Rebinds the slot to `new` contents: occurrences also present in the
    /// old contents keep their atom (multiset matching), genuinely new
    /// constraints get rotating fresh buckets and are appended to `fresh`
    /// with their atoms. Returns the atoms of the *removed* occurrences —
    /// exactly what this edit retracts.
    fn rebind(
        &mut self,
        group: u32,
        new: Vec<(SetExpr, SetExpr)>,
        fresh: &mut Vec<(SetExpr, SetExpr, u32)>,
    ) -> Vec<u32> {
        let mut pool: FxHashMap<(SetExpr, SetExpr), Vec<u32>> = FxHashMap::default();
        for (c, &a) in self.constraints.iter().zip(&self.atoms) {
            pool.entry(*c).or_default().push(a);
        }
        let mut atoms = Vec::with_capacity(new.len());
        for c in &new {
            let inherited = pool.get_mut(c).and_then(Vec::pop);
            atoms.push(inherited.unwrap_or_else(|| {
                let a = atom(group, self.next_bucket);
                self.next_bucket = (self.next_bucket + 1) % ATOM_BUCKETS;
                fresh.push((c.0, c.1, a));
                a
            }));
        }
        let removed: Vec<u32> = pool.into_values().flatten().collect();
        self.constraints = new;
        self.atoms = atoms;
        removed
    }

    /// Feeds the group's constraints to `solver`, each tagged with its
    /// provenance atom (a no-op tag when the solver tracks no provenance).
    fn feed(&self, solver: &mut Solver) {
        feed_tagged(solver, self.tagged());
    }

    /// The group's constraints, each with its provenance atom.
    fn tagged(&self) -> impl Iterator<Item = (SetExpr, SetExpr, u32)> + '_ {
        self.constraints.iter().zip(&self.atoms).map(|(&(l, r), &a)| (l, r, a))
    }
}

/// Adds each constraint to `solver` tagged with its provenance atom.
fn feed_tagged(
    solver: &mut Solver,
    constraints: impl IntoIterator<Item = (SetExpr, SetExpr, u32)>,
) {
    for (lhs, rhs, a) in constraints {
        solver.set_current_group(Some(a));
        solver.add(lhs, rhs);
    }
    solver.set_current_group(None);
}

/// How a session re-solves **non-monotone** deltas — the two-tier contract
/// (`docs/INCREMENTAL.md`).
///
/// Monotone deltas always feed the live solver; the mode only decides what
/// a `RemoveGroup`/`EditGroup` costs and what it promises:
///
/// - [`Exact`](ApplyMode::Exact) (the default) resets the live solver and
///   replays the canonical sequence into it: `stats()`, `census()` and
///   `inconsistencies()` are **byte-identical** to a from-scratch solve.
/// - [`Fast`](ApplyMode::Fast) repairs the least solution in place: the
///   solver tracks constraint provenance at sub-group granularity (256
///   atoms per group), retracts exactly the facts derived from the
///   constraints the edit removed, and re-derives the closure from the
///   retained graph.
///   The least solution's per-variable *sets* equal replay's (asserted by
///   the equivalence suite), but work counters, census and the recorded
///   inconsistency list are **not** byte-identical — repair takes a
///   different (cheaper) schedule. When the edit invalidates a recorded
///   cycle collapse (forwarding cannot be locally undone), the session
///   falls back to full replay and says so in
///   [`RevalidateOutcome::fell_back`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ApplyMode {
    /// Canonical replay on every non-monotone delta (byte-identical
    /// observables).
    #[default]
    Exact,
    /// Provenance-based in-place repair, falling back to replay only when a
    /// retained collapse is invalidated (set-equal least solution).
    Fast,
}

impl ApplyMode {
    /// The wire-protocol token (`hello` response `mode=` field).
    pub fn wire_name(self) -> &'static str {
        match self {
            ApplyMode::Exact => "exact",
            ApplyMode::Fast => "fast",
        }
    }
}

/// Why a batch op may not name a group (see `Session::group_fault`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GroupFault {
    /// No slot has that id.
    Missing,
    /// An earlier commit removed the group.
    Removed,
    /// An earlier op of the same batch removes the group.
    DroppedInBatch,
}

/// What one [`Session::apply`] call did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ApplyReport {
    /// Group ids assigned to this batch's `AddGroup` operations, in batch
    /// order.
    pub new_groups: Vec<GroupId>,
    /// Whether the batch took the monotone live-solver path (`false` means
    /// canonical replay or, under [`ApplyMode::Fast`], in-place repair).
    pub monotone: bool,
    /// Whether a non-monotone batch was served by provenance-based in-place
    /// repair ([`ApplyMode::Fast`] only; `false` means the monotone path or
    /// a replay).
    pub fast_repaired: bool,
    /// How localized the least-solution revalidation was.
    pub outcome: RevalidateOutcome,
}

/// A long-lived constraint-solving session: a solved system that accepts
/// [`Delta`] batches and re-solves incrementally.
///
/// See the [module docs](self) for the equivalence contract, and
/// `docs/INCREMENTAL.md` for the full design.
///
/// # Examples
///
/// ```
/// use bane_core::prelude::*;
/// use bane_serve::{Delta, SessionBuilder};
///
/// let mut s = SessionBuilder::new().build();
/// let c = s.register_nullary("c");
/// let src = s.term(c, vec![]);
/// let (x, y) = (s.fresh_var(), s.fresh_var());
///
/// let mut d = Delta::new();
/// d.add_group(vec![(src.into(), x.into()), (x.into(), y.into())]);
/// let report = s.apply(d);
/// assert!(report.monotone);
/// assert_eq!(s.points_to(y), &[src]);
///
/// // Editing the group non-monotonically replays the canonical sequence.
/// let mut e = Delta::new();
/// e.edit_group(report.new_groups[0], vec![(src.into(), y.into())]);
/// let report = s.apply(e);
/// assert!(!report.monotone);
/// assert_eq!(s.points_to(x), &[] as &[TermId]);
/// assert_eq!(s.points_to(y), &[src]);
/// ```
#[derive(Debug)]
pub struct Session {
    /// Slot-indexed constraint groups; `None` marks a removed group. The
    /// canonical constraint sequence is the concatenation of the live
    /// groups in slot order.
    groups: Vec<Option<LiveGroup>>,
    /// The live solver. It holds the registrations (constructors, terms,
    /// variables) too: a replay resets it in place, which keeps them.
    solver: Solver,
    /// The least solution and CSR of the last commit, and the pass that
    /// revalidates them against the next one.
    least: Revalidator,
    /// Whether [`ConstraintBuilder::add`] fed the solver since the last
    /// commit: the next [`apply`](Session::apply) must solve and revalidate
    /// even when its batch is empty.
    staged: bool,
    last_outcome: RevalidateOutcome,
    rec: Option<Recorder>,
    /// The two-tier re-solve mode (fixed at construction; Fast requires the
    /// solver's provenance tracking to cover its whole life).
    mode: ApplyMode,
}

impl Session {
    /// An empty session under `config`: the [`SessionBuilder::build`] body.
    ///
    /// [`SessionBuilder::build`]: crate::SessionBuilder::build
    pub(crate) fn empty(config: SolverConfig, mode: ApplyMode) -> Self {
        let mut solver = Solver::new(config);
        if mode == ApplyMode::Fast {
            solver.enable_provenance();
        }
        Session {
            groups: Vec::new(),
            solver,
            least: Revalidator::new(),
            staged: false,
            last_outcome: RevalidateOutcome::default(),
            rec: None,
            mode,
        }
    }

    /// The [`SessionBuilder::build_grouped`] body: adopt `problem`'s
    /// recording, split its constraints into `n_groups` contiguous groups,
    /// and solve the result.
    ///
    /// [`SessionBuilder::build_grouped`]: crate::SessionBuilder::build_grouped
    pub(crate) fn adopt_grouped(mut problem: Problem, n_groups: usize, mode: ApplyMode) -> Self {
        let constraints = problem.split_off_constraints(0);
        // The problem's constraint list was just split off, so the adopted
        // solver replays registrations only — provenance can still attach.
        let mut solver = Solver::from_problem(problem);
        if mode == ApplyMode::Fast {
            solver.enable_provenance();
        }
        let mut session = Session {
            solver,
            groups: Vec::new(),
            least: Revalidator::new(),
            staged: false,
            last_outcome: RevalidateOutcome::default(),
            rec: None,
            mode,
        };
        if constraints.is_empty() {
            return session;
        }
        assert!(n_groups > 0, "n_groups must be positive for a non-empty problem");
        let n_groups = n_groups.min(constraints.len());
        let per = constraints.len().div_ceil(n_groups);
        let mut delta = Delta::new();
        for chunk in constraints.chunks(per) {
            delta.add_group(chunk.to_vec());
        }
        session.apply(delta);
        session
    }

    /// Enables observability: the session allocates a [`Recorder`] and
    /// records `serve.*` counters and the `serve-apply` phase on every
    /// [`apply`](Session::apply). Also enables the live solver's probes.
    pub fn enable_obs(&mut self) {
        if self.rec.is_none() {
            self.rec = Some(Recorder::new());
        }
        self.solver.enable_obs();
    }

    /// The session's recorder, when [`enable_obs`](Session::enable_obs) has
    /// been called.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.rec.as_ref()
    }

    /// Number of group slots ever created (including removed ones).
    pub fn group_slots(&self) -> usize {
        self.groups.len()
    }

    /// The constraints of group `g`, or `None` if the slot was removed (or
    /// never existed).
    pub fn group(&self, g: GroupId) -> Option<&[(SetExpr, SetExpr)]> {
        self.groups.get(g.index()).and_then(|s| s.as_ref()).map(|lg| lg.constraints.as_slice())
    }

    /// Why a `RemoveGroup` or `EditGroup` of `g` may not follow the ops
    /// `earlier` of its batch when `slots` group slots exist at that point,
    /// or `None` if it may. The one group check behind both
    /// [`apply`](Session::apply) and the wire protocol's `drop`/`edit`.
    pub(crate) fn group_fault(
        &self,
        g: GroupId,
        slots: usize,
        earlier: &[DeltaOp],
    ) -> Option<GroupFault> {
        if g.index() >= slots {
            Some(GroupFault::Missing)
        } else if matches!(self.groups.get(g.index()), Some(None)) {
            Some(GroupFault::Removed)
        } else if earlier.contains(&DeltaOp::RemoveGroup(g)) {
            Some(GroupFault::DroppedInBatch)
        } else {
            None
        }
    }

    /// Panics, before anything changes, if an op of `delta` names a group
    /// that does not exist or is removed by the time the op runs. A group an
    /// earlier `AddGroup` of the batch creates counts as existing.
    fn validate(&self, delta: &Delta) {
        let ops = delta.ops();
        let mut slots = self.groups.len();
        for (i, op) in ops.iter().enumerate() {
            let (g, removing) = match op {
                DeltaOp::AddVars(_) => continue,
                DeltaOp::AddGroup { .. } => {
                    slots += 1;
                    continue;
                }
                DeltaOp::RemoveGroup(g) => (*g, true),
                DeltaOp::EditGroup { group, .. } => (*group, false),
            };
            match self.group_fault(g, slots, &ops[..i]) {
                None => {}
                Some(GroupFault::Missing) => panic!("no such group: {g}"),
                Some(_) if removing => panic!("group already removed: {g}"),
                Some(_) => panic!("cannot edit removed group: {g}"),
            }
        }
    }

    /// Applies one [`Delta`] batch and re-solves.
    ///
    /// Monotone batches feed the live solver and re-run closure from the
    /// current graph; non-monotone batches reset the live solver and replay
    /// the canonical sequence into it (see the [module docs](self) for
    /// why). Both paths then revalidate the least solution against the
    /// previous commit's, recomputing only dirty variables.
    ///
    /// # Panics
    ///
    /// Panics if the batch names a [`GroupId`] that does not exist or was
    /// already removed. The whole batch is checked before anything changes,
    /// so a session that panics here still answers as it did before.
    pub fn apply(&mut self, delta: Delta) -> ApplyReport {
        self.validate(&delta);
        let t0 = self.rec.as_ref().map(|_| std::time::Instant::now());
        let monotone = delta.is_monotone();
        let mut new_groups = Vec::new();
        let mut fast_repaired = false;
        let mut fell_back = false;
        let mut retracted_edges = 0u64;

        if monotone {
            for op in delta.ops() {
                match op {
                    DeltaOp::AddVars(n) => {
                        for _ in 0..*n {
                            self.solver.fresh_var();
                        }
                    }
                    DeltaOp::AddGroup { constraints } => {
                        let gid = self.groups.len() as u32;
                        new_groups.push(GroupId::new(gid));
                        let group = LiveGroup::new(gid, constraints.clone());
                        group.feed(&mut self.solver);
                        self.groups.push(Some(group));
                    }
                    DeltaOp::RemoveGroup(_) | DeltaOp::EditGroup { .. } => unreachable!(),
                }
            }
            self.solver.solve();
        } else {
            // One bookkeeping pass over the ops, collecting the retraction
            // set at provenance-atom granularity — whole slots for
            // `RemoveGroup`, the multiset diff for `EditGroup` (surviving
            // constraints keep their atoms and are not retracted). New
            // variables go straight to the solver: repair and replay both
            // keep every variable it has.
            let mut retract_atoms: Vec<u32> = Vec::new();
            // Constraint occurrences this batch adds, with their atoms: what
            // a repair that retracts nothing feeds.
            let mut fresh: Vec<(SetExpr, SetExpr, u32)> = Vec::new();
            for op in delta.ops() {
                match op {
                    DeltaOp::AddVars(n) => {
                        for _ in 0..*n {
                            self.solver.fresh_var();
                        }
                    }
                    DeltaOp::AddGroup { constraints } => {
                        let gid = self.groups.len() as u32;
                        new_groups.push(GroupId::new(gid));
                        let group = LiveGroup::new(gid, constraints.clone());
                        fresh.extend(group.tagged());
                        self.groups.push(Some(group));
                    }
                    DeltaOp::RemoveGroup(g) => {
                        let taken = self.groups[g.index()].take().expect("validated");
                        retract_atoms.extend(taken.atoms);
                    }
                    DeltaOp::EditGroup { group: g, constraints } => {
                        let lg = self.groups[g.index()].as_mut().expect("validated");
                        let removed = lg.rebind(g.index() as u32, constraints.clone(), &mut fresh);
                        retract_atoms.extend(removed);
                    }
                }
            }
            // Fast retracts exactly the removed constraints' facts unless
            // that would invalidate a recorded collapse (then nothing was
            // touched and the batch replays).
            let retracted = match self.mode {
                ApplyMode::Fast => self.solver.retract_groups(&retract_atoms),
                ApplyMode::Exact => None,
            };
            if let Some(edges) = retracted {
                retracted_edges = edges;
                self.repair(&retract_atoms, fresh);
                fast_repaired = true;
            } else {
                fell_back = self.mode == ApplyMode::Fast;
                self.replay();
            }
        }

        let mut outcome = self.revalidate(!delta.is_empty());
        outcome.fell_back = fell_back;

        if let Some(rec) = &self.rec {
            rec.add(Counter::ServeDeltaApplied, 1);
            if monotone {
                rec.add(Counter::ServeDeltaMonotone, 1);
            } else if fast_repaired {
                rec.add(Counter::ServeFastRepaired, 1);
                rec.add(Counter::ServeFastRetractedEdges, retracted_edges);
            } else {
                rec.add(Counter::ServeDeltaReplayed, 1);
                if fell_back {
                    rec.add(Counter::ServeFastFallback, 1);
                }
            }
            rec.set(Counter::ServeDirtyLevels, outcome.dirty_levels as u64);
            rec.set(Counter::ServeDirtyVars, outcome.dirty_vars as u64);
            rec.add(Counter::ServeReuseHit, outcome.reused_vars as u64);
            if let Some(t0) = t0 {
                rec.record_ns(Phase::ServeApply, t0.elapsed().as_nanos() as u64);
            }
        }

        self.last_outcome = outcome;
        ApplyReport { new_groups, monotone, fast_repaired, outcome }
    }

    /// Replays the canonical sequence into the reset live solver, making
    /// *all* observables (work counters, census) byte-identical to a
    /// from-scratch solve — what clients call after a run of monotone
    /// batches when they need full parity, not just equal sets.
    ///
    /// The least solution is revalidated, not recomputed: unchanged
    /// variables still copy their previous spans.
    pub fn reanchor(&mut self) -> RevalidateOutcome {
        self.replay();
        let outcome = self.revalidate(true);
        self.last_outcome = outcome;
        outcome
    }

    /// Re-solves the canonical sequence from scratch in the live solver:
    /// [`Solver::reset`] forgets every constraint and derived fact but keeps
    /// the registrations and the solver's buffers, then every live group is
    /// fed in slot order and solved. The result is byte-identical to
    /// `Solver::from_problem` of the same registrations and sequence.
    ///
    /// In [`ApplyMode::Fast`] the reset solver keeps provenance on and every
    /// live group is re-tagged, so the very next non-monotone delta can
    /// again attempt in-place repair — a fallback is a one-batch event, not
    /// a permanent downgrade. Tracking provenance is observable-neutral
    /// (see `bane-core`'s `provenance_tracking_is_observable_neutral`), so
    /// even the Fast replay is byte-identical to an Exact one.
    fn replay(&mut self) {
        self.solver.reset();
        for group in self.groups.iter().flatten() {
            group.feed(&mut self.solver);
        }
        self.solver.solve();
    }

    /// Repairs the live solver in place after [`Solver::retract_groups`]
    /// removed the facts of the `retracted` atoms, then re-runs the
    /// resolution engine to a fixpoint.
    ///
    /// When something was retracted, it re-injects every live group's
    /// constraints (almost all are redundant against the retained graph;
    /// the ones whose direct fact was over-deleted re-insert and propagate)
    /// and schedules the solver's targeted damage re-fire pass. Work is
    /// proportional to the graph neighborhood of the retraction, not to the
    /// closure.
    ///
    /// When nothing was retracted (an edit that only adds occurrences, or
    /// the removal of an empty group), the graph is still the closure of
    /// every constraint that was live before the batch, so only the
    /// batch's `fresh` occurrences — its new groups and the edits' new
    /// occurrences, each with its atom — are fed.
    fn repair(&mut self, retracted: &[u32], fresh: Vec<(SetExpr, SetExpr, u32)>) {
        if retracted.is_empty() {
            feed_tagged(&mut self.solver, fresh);
        } else {
            for group in self.groups.iter().flatten() {
                group.feed(&mut self.solver);
            }
            self.solver.repair_refire();
        }
        self.solver.solve();
    }

    /// Revalidates the cached least solution against the just-solved graph.
    ///
    /// The pass is skipped only when nothing can have changed since the
    /// last commit: `changed` is false (the batch contained no operations),
    /// no constraint was staged through [`ConstraintBuilder::add`], and the
    /// cached solution covers every variable (one created outside a batch
    /// is not yet covered).
    ///
    /// The pass is timed under the session recorder's `revalidate` phase,
    /// with its CSR freeze also recorded as `csr-build`.
    fn revalidate(&mut self, changed: bool) -> RevalidateOutcome {
        let staged = std::mem::take(&mut self.staged);
        if !changed && !staged && self.covered() {
            return RevalidateOutcome {
                total_levels: self.last_outcome.total_levels,
                dirty_levels: 0,
                dirty_vars: 0,
                reused_vars: self.last_outcome.reused_vars + self.last_outcome.dirty_vars,
                fell_back: false,
            };
        }
        let t0 = self.rec.as_ref().map(|_| std::time::Instant::now());
        let parts = self.solver.least_parts();
        self.least.freeze(&parts);
        if let (Some(rec), Some(t0)) = (&self.rec, t0) {
            rec.record_ns(Phase::CsrBuild, t0.elapsed().as_nanos() as u64);
            rec.add(Counter::CsrBuilds, 1);
        }
        let outcome = self.least.evaluate(parts.form);
        if let (Some(rec), Some(t0)) = (&self.rec, t0) {
            let ls = self.least.solution().expect("just evaluated");
            let set_vars = ls.raw_parts().2.iter().filter(|(s, e)| e > s).count();
            rec.set(Counter::LsSetVars, set_vars as u64);
            rec.set(Counter::LsEntries, ls.total_entries() as u64);
            rec.set(Counter::LsStoredEntries, ls.stored_entries() as u64);
            rec.record_ns(Phase::Revalidate, t0.elapsed().as_nanos() as u64);
        }
        outcome
    }

    /// Whether the last commit's solution covers every variable of the live
    /// solver (variables created outside a batch are not yet covered).
    fn covered(&self) -> bool {
        self.least.solution().is_some_and(|ls| ls.len() == self.solver.graph_len())
    }

    /// The least solution of the current system.
    ///
    /// # Panics
    ///
    /// Panics if no [`apply`](Session::apply) has run yet.
    pub fn least_solution(&self) -> &LeastSolution {
        self.least.solution().expect("no delta applied yet")
    }

    /// The points-to/solution set of `v` (canonicalized first) as of the
    /// last commit. Empty when no delta has been applied, and for a
    /// variable created since the last commit.
    pub fn points_to(&mut self, v: Var) -> &[TermId] {
        let r = self.solver.find(v);
        self.committed(r)
    }

    /// Whether the two solution sets intersect (may `a` and `b` alias?) as
    /// of the last commit. `false` when no delta has been applied, and
    /// when either variable was created since the last commit.
    pub fn alias(&mut self, a: Var, b: Var) -> bool {
        let (ra, rb) = (self.solver.find(a), self.solver.find(b));
        intersects(self.committed(ra), self.committed(rb))
    }

    /// The committed solution of representative `r`: empty when no commit
    /// covers it yet.
    fn committed(&self, r: Var) -> &[TermId] {
        match self.least.solution() {
            Some(ls) if r.index() < ls.len() => ls.get(r),
            _ => &[],
        }
    }

    /// Whether `v` names a variable of the live system. Reads of any other
    /// id would index past the solver's tables.
    pub fn has_var(&self, v: Var) -> bool {
        v.index() < self.solver.graph_len()
    }

    /// The canonical representative of `v`.
    pub fn find(&mut self, v: Var) -> Var {
        self.solver.find(v)
    }

    /// The live solver's cumulative statistics. After a non-monotone batch
    /// these are byte-identical to a from-scratch solve's.
    pub fn stats(&self) -> &Stats {
        self.solver.stats()
    }

    /// The live graph census. Same parity note as [`stats`](Session::stats).
    pub fn census(&self) -> GraphCensus {
        self.solver.census()
    }

    /// Inconsistencies discovered so far.
    pub fn inconsistencies(&self) -> &[Inconsistency] {
        self.solver.inconsistencies()
    }

    /// How localized the last re-solve was.
    pub fn last_outcome(&self) -> RevalidateOutcome {
        self.last_outcome
    }

    /// Read-only access to the live solver.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Least-solution entries the session stores between commits, counting
    /// the double-buffered pass's spare solution
    /// ([`Revalidator::arena_entries`]). The spare is emptied after every
    /// commit, so this equals `least_solution().stored_entries()` however
    /// many commits ran.
    pub fn ls_arena_entries(&self) -> usize {
        self.least.arena_entries()
    }

    /// The re-solve tier this session was built with.
    pub fn apply_mode(&self) -> ApplyMode {
        self.mode
    }

    /// Writes the last committed state as a `bane-snap` snapshot at `path`
    /// (atomically — see `bane_snap::write_image`), republishing the
    /// session for the read-only serving layer. Returns the snapshot size
    /// in bytes.
    ///
    /// The snapshot is encoded from the least solution and CSR the last
    /// [`apply`](Session::apply) revalidated, so publishing solves nothing;
    /// the bytes equal a cold `bane_snap::encode_solver` of the live solver.
    /// Only when no commit covers every variable (before the first apply,
    /// or after variables were added outside one) does it solve cold.
    ///
    /// # Errors
    ///
    /// Propagates `bane-snap` encode/write errors.
    pub fn publish_snapshot(&mut self, path: &std::path::Path) -> Result<u64, bane_snap::SnapError> {
        let image = match self.least.solution() {
            Some(ls) if self.covered() => bane_snap::encode_parts(
                self.solver.config().form,
                self.least.csr(),
                ls,
                self.solver.terms(),
                self.solver.cons(),
            )?,
            _ => bane_snap::encode_solver(&mut self.solver)?,
        };
        bane_snap::write_image(path, &image, self.rec.as_ref())
    }
}

impl ConstraintBuilder for Session {
    fn register_con(&mut self, name: impl Into<String>, variances: Vec<Variance>) -> Con {
        self.solver.register_con(name, variances)
    }

    fn register_nullary(&mut self, name: impl Into<String>) -> Con {
        self.solver.register_nullary(name)
    }

    fn term(&mut self, con: Con, args: Vec<SetExpr>) -> TermId {
        self.solver.term(con, args)
    }

    fn fresh_var(&mut self) -> Var {
        self.solver.fresh_var()
    }

    /// Adds a single immediate constraint as its own one-constraint group
    /// (monotone), without re-solving. Prefer batching through
    /// [`Delta`]/[`apply`](Session::apply); this exists so generators
    /// written against [`ConstraintBuilder`] can target a session directly.
    fn add(&mut self, lhs: impl Into<SetExpr>, rhs: impl Into<SetExpr>) {
        let group = LiveGroup::new(self.groups.len() as u32, vec![(lhs.into(), rhs.into())]);
        group.feed(&mut self.solver);
        self.groups.push(Some(group));
        self.staged = true;
    }
}

/// Whether two sorted, distinct slices intersect.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_session() -> (Session, Vec<Var>, TermId, GroupId) {
        let mut s = crate::SessionBuilder::new().build();
        let c = s.register_nullary("c");
        let src = s.term(c, vec![]);
        let vars: Vec<Var> = (0..6).map(|_| s.fresh_var()).collect();
        let mut group = vec![(SetExpr::from(src), SetExpr::from(vars[0]))];
        for w in vars.windows(2) {
            group.push((w[0].into(), w[1].into()));
        }
        let mut d = Delta::new();
        d.add_group(group);
        let report = s.apply(d);
        assert!(report.monotone);
        (s, vars, src, report.new_groups[0])
    }

    #[test]
    fn monotone_growth_matches_sets() {
        let (mut s, vars, src, _) = chain_session();
        for &v in &vars {
            assert_eq!(s.points_to(v), &[src]);
        }
        // Grow: a second source into the middle of the chain.
        let c2 = s.register_nullary("d");
        let src2 = s.term(c2, vec![]);
        let mut d = Delta::new();
        d.add_group(vec![(src2.into(), vars[3].into())]);
        let report = s.apply(d);
        assert!(report.monotone);
        assert_eq!(s.points_to(vars[2]), &[src]);
        assert_eq!(s.points_to(vars[5]), &[src, src2]);
        // The prefix of the chain did not change: revalidation reused it.
        assert!(report.outcome.reused_vars > 0);
    }

    #[test]
    fn removal_replays_and_shrinks() {
        let (mut s, vars, src, g) = chain_session();
        let mut d = Delta::new();
        d.remove_group(g);
        let report = s.apply(d);
        assert!(!report.monotone);
        for &v in &vars {
            assert_eq!(s.points_to(v), &[] as &[TermId]);
        }
        // And the replayed solver's stats equal a from-scratch empty system.
        assert_eq!(s.stats().constraints_added, 0);
        let _ = src;
    }

    #[test]
    fn edit_matches_from_scratch_bytes() {
        let (mut s, vars, src, g) = chain_session();
        // Rebuild the edited group: drop the src→v0 feed, keep the chain.
        let mut edited = Vec::new();
        for w in vars.windows(2) {
            edited.push((SetExpr::from(w[0]), SetExpr::from(w[1])));
        }
        edited.push((src.into(), vars[4].into()));
        let mut d = Delta::new();
        d.edit_group(g, edited.clone());
        let report = s.apply(d);
        assert!(!report.monotone);

        // Reference: identical canonical sequence from scratch.
        let mut p = Problem::new(SolverConfig::if_online());
        let c = p.register_nullary("c");
        let src2 = p.term(c, vec![]);
        assert_eq!(src, src2);
        for _ in 0..6 {
            p.fresh_var();
        }
        for &(l, r) in &edited {
            p.add(l, r);
        }
        let mut reference = Solver::from_problem(p);
        reference.solve();

        assert_eq!(s.stats(), reference.stats());
        assert_eq!(s.census(), reference.census());
        assert_eq!(s.least_solution(), &reference.least_solution());
        assert_eq!(s.points_to(vars[3]), &[] as &[TermId]);
        assert_eq!(s.points_to(vars[5]), &[src]);
    }

    #[test]
    fn empty_delta_skips_revalidation() {
        let (mut s, _, _, _) = chain_session();
        let before = s.least_solution().clone();
        let report = s.apply(Delta::new());
        assert!(report.monotone);
        assert_eq!(report.outcome.dirty_vars, 0);
        assert_eq!(report.outcome.dirty_levels, 0);
        assert_eq!(s.least_solution(), &before);
    }

    #[test]
    fn empty_delta_covers_variables_created_outside_a_batch() {
        let (mut s, _, _, _) = chain_session();
        let y = s.fresh_var();
        let report = s.apply(Delta::new());
        assert_eq!(report.outcome.dirty_vars, 1, "only the new variable is evaluated");
        assert_eq!(s.points_to(y), &[] as &[TermId]);
        assert_eq!(s.least_solution().len(), s.solver().graph_len());
    }

    /// A variable made after the last commit reads as its committed
    /// solution, empty, until the next commit covers it.
    #[test]
    fn variables_created_after_the_last_commit_read_empty() {
        let (mut s, vars, src, _) = chain_session();
        let y = s.fresh_var();
        assert!(s.has_var(y));
        assert_eq!(s.points_to(y), &[] as &[TermId]);
        assert!(!s.alias(y, vars[0]));
        assert!(!s.alias(vars[0], y));
        assert_eq!(s.points_to(vars[0]), &[src]);
    }

    /// A source staged through `ConstraintBuilder::add` moves no var–var
    /// edge, yet an empty commit must still solve and revalidate it.
    #[test]
    fn empty_delta_after_builder_add_serves_the_new_source() {
        let mut s = crate::SessionBuilder::new().build();
        let c = s.register_nullary("c");
        let src = s.term(c, vec![]);
        let vars: Vec<Var> = (0..4).map(|_| s.fresh_var()).collect();
        let mut d = Delta::new();
        d.add_group(vars.windows(2).map(|w| (w[0].into(), w[1].into())).collect());
        s.apply(d);
        assert_eq!(s.points_to(vars[3]), &[] as &[TermId]);

        ConstraintBuilder::add(&mut s, src, vars[0]);
        assert!(s.staged);
        let report = s.apply(Delta::new());
        assert!(!s.staged);
        assert!(report.outcome.dirty_vars > 0, "the staged source was revalidated");
        for &v in &vars {
            assert_eq!(s.points_to(v), &[src], "{v:?}");
        }
    }

    #[test]
    fn obs_counters_track_applies() {
        let mut s = crate::SessionBuilder::new().obs(true).build();
        let c = s.register_nullary("c");
        let src = s.term(c, vec![]);
        let x = s.fresh_var();
        let mut d = Delta::new();
        d.add_group(vec![(src.into(), x.into())]);
        let report = s.apply(d);
        let g = report.new_groups[0];
        let mut e = Delta::new();
        e.remove_group(g);
        s.apply(e);

        let rec = s.recorder().expect("obs enabled");
        assert_eq!(rec.get(Counter::ServeDeltaApplied), 2);
        assert_eq!(rec.get(Counter::ServeDeltaMonotone), 1);
        assert_eq!(rec.get(Counter::ServeDeltaReplayed), 1);
        let report = rec.report("session");
        assert!(report.phases.iter().any(|p| p.phase == Phase::ServeApply.name()));
    }

    #[test]
    fn grouped_problem_construction_solves() {
        let mut p = Problem::new(SolverConfig::if_online());
        let c = p.register_nullary("c");
        let src = p.term(c, vec![]);
        let vars: Vec<Var> = (0..8).map(|_| p.fresh_var()).collect();
        p.add(src, vars[0]);
        for w in vars.windows(2) {
            p.add(w[0], w[1]);
        }
        let mut s = crate::SessionBuilder::new().build_grouped(p, 3);
        assert_eq!(s.group_slots(), 3);
        assert_eq!(s.points_to(vars[7]), &[src]);
    }

    #[test]
    fn snapshot_roundtrips_through_snap() {
        let (mut s, vars, src, _) = chain_session();
        let dir = std::env::temp_dir().join(format!("bane-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.snap");
        let bytes = s.publish_snapshot(&path).expect("snapshot written");
        assert!(bytes > 0);
        let index = bane_snap::QueryIndex::load(&path).expect("snapshot loads");
        assert_eq!(index.points_to(vars[5]), &[src][..]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
