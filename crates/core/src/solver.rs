//! The constraint resolution engine.
//!
//! A [`Solver`] holds a system of inclusion constraints and closes its graph
//! representation under the transitive-closure rule `L ⋯→ X → R ⇒ L ⊆ R`
//! plus the structural resolution rules **R** (Figure 1 of the paper,
//! implemented in the private `Solver::process`). The engine is
//! parameterized on the paper's two axes:
//!
//! - [`Form`]: **standard form** (all variable-variable edges are successor
//!   edges; the least solution becomes explicit) vs. **inductive form** (edge
//!   representation chosen by the variable order `o(·)`; the least solution
//!   is computed afterwards, see [`crate::least`]),
//! - [`CycleElim`]: whether *partial online cycle elimination* (Section 2.5)
//!   runs on every variable-variable edge insertion.
//!
//! A solver can also be constructed with an oracle [`Partition`] (Section 4's
//! `SF-Oracle` / `IF-Oracle` experiments): variable creation then returns the
//! class witness, so cycles never materialize at all.
//!
//! # Examples
//!
//! Solving `c ⊆ X ⊆ Y` and reading the least solution of `Y`:
//!
//! ```
//! use bane_core::solver::{Solver, SolverConfig};
//!
//! let mut s = Solver::new(SolverConfig::if_online());
//! let c = s.register_nullary("c");
//! let src = s.term(c, vec![]);
//! let (x, y) = (s.fresh_var(), s.fresh_var());
//! s.add(src, x);
//! s.add(x, y);
//! s.solve();
//! let ls = s.least_solution();
//! assert_eq!(ls.get(s.find(y)), &[src]);
//! ```

use bane_util::idx::Idx;
use crate::cons::{Con, ConRegistry, Variance};
use crate::cycle::{ChainDir, ChainSearch, CycleSweep, SfSearchPolicy, StepOrder};
use crate::error::Inconsistency;
use crate::expr::{SetExpr, TermArena, TermData, TermId, Var};
use crate::forward::Forwarding;
use crate::graph::{Graph, GraphCensus, Insert};
use crate::oracle::Partition;
use crate::order::{OrderPolicy, VarOrder};
use crate::problem::{ConstraintBuilder, Problem};
use crate::prov::{ProvId, ProvTable};
use crate::scc::{tarjan, SccStats};
use crate::stats::Stats;
use bane_util::FxHashSet;
use std::collections::VecDeque;

#[cfg(feature = "obs")]
use bane_obs::{Event, Phase, Recorder, RunReport};

/// The constraint-graph representation (Sections 2.3 and 2.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Form {
    /// Standard form: variable-variable constraints are always successor
    /// edges; sources propagate forward so the least solution is explicit.
    Standard,
    /// Inductive form: edge representation chosen by the variable order.
    Inductive,
}

/// Whether and how cycles are eliminated during resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleElim {
    /// No cycle elimination (the `*-Plain` experiments).
    Off,
    /// Partial online cycle detection at every variable-variable edge
    /// insertion (the `*-Online` experiments, Section 2.5).
    Online,
    /// *Periodic* offline elimination: a full Tarjan SCC pass over the
    /// current variable-variable graph every `interval` processed
    /// constraints — the prior-work strategy (\[FA96\]/\[FF97\]/\[MW97\]) that
    /// the paper's introduction contrasts with the online approach. Each
    /// pass finds *all* cycles present at that moment, but cycles forming
    /// between passes still generate redundant work, and the passes
    /// themselves cost O(V + E).
    Periodic {
        /// Processed-constraint count between offline SCC passes.
        interval: u32,
    },
}

/// Configuration of a solver run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolverConfig {
    /// Graph representation.
    pub form: Form,
    /// Online cycle elimination on/off.
    pub cycle_elim: CycleElim,
    /// Chain-search policy for standard form's online detection.
    ///
    /// The paper's scheme follows successor edges to *lower*-ordered
    /// variables; [`SfSearchPolicy::AlsoIncreasing`] is the 57%-detection
    /// ablation mentioned in Section 4. Ignored by inductive form, whose
    /// edge representation already implies the decreasing restriction.
    pub sf_chain: SfSearchPolicy,
    /// How the total variable order `o(·)` is chosen.
    pub order: OrderPolicy,
    /// Record the variable-variable constraint log needed to build the
    /// oracle partition afterwards (small overhead; off by default except in
    /// the `if_online` preset which feeds the oracle runs).
    pub log_varvar: bool,
}

impl SolverConfig {
    /// `SF-Plain`: standard form, no cycle elimination.
    pub fn sf_plain() -> Self {
        SolverConfig {
            form: Form::Standard,
            cycle_elim: CycleElim::Off,
            sf_chain: SfSearchPolicy::Decreasing,
            order: OrderPolicy::default(),
            log_varvar: false,
        }
    }

    /// `IF-Plain`: inductive form, no cycle elimination.
    pub fn if_plain() -> Self {
        SolverConfig { form: Form::Inductive, ..Self::sf_plain() }
    }

    /// `SF-Online`: standard form with partial online cycle elimination.
    pub fn sf_online() -> Self {
        SolverConfig { cycle_elim: CycleElim::Online, ..Self::sf_plain() }
    }

    /// `IF-Online`: inductive form with partial online cycle elimination.
    ///
    /// Enables the variable-variable log so the run can also produce the
    /// oracle partition for the `*-Oracle` experiments.
    pub fn if_online() -> Self {
        SolverConfig {
            form: Form::Inductive,
            cycle_elim: CycleElim::Online,
            log_varvar: true,
            ..Self::sf_plain()
        }
    }

    /// Replaces the order policy.
    pub fn with_order(mut self, order: OrderPolicy) -> Self {
        self.order = order;
        self
    }

    /// Enables or disables the variable-variable constraint log.
    pub fn with_log(mut self, log: bool) -> Self {
        self.log_varvar = log;
        self
    }

    /// Replaces the SF chain-search policy.
    pub fn with_sf_chain(mut self, policy: SfSearchPolicy) -> Self {
        self.sf_chain = policy;
        self
    }
}

impl Default for SolverConfig {
    /// Defaults to the paper's best configuration, `IF-Online`.
    fn default() -> Self {
        Self::if_online()
    }
}

/// Node counts of the current graph (Table 1's node columns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCounts {
    /// Variables created (counting oracle-aliased creations).
    pub vars_created: usize,
    /// Live (non-collapsed, non-aliased) variable nodes.
    pub live_vars: usize,
    /// Distinct source terms.
    pub sources: usize,
    /// Distinct sink terms.
    pub sinks: usize,
}

impl NodeCounts {
    /// Total distinct graph nodes (live variables + sources + sinks).
    pub fn total(&self) -> usize {
        self.live_vars + self.sources + self.sinks
    }
}

/// The resolution worklist: a FIFO of the constraints that can change the
/// graph.
///
/// Decomposition discharges trivially-true arguments (`0 ⊆ R`, `L ⊆ 1`)
/// instead of queueing them; under the Andersen encoding that is two of
/// every three arguments. Each still counts as processed at the FIFO
/// position it would have had, so every entry carries the number of
/// discharged constraints that preceded it, and `tail` counts those after
/// the last entry. [`Solver::run_inner`] counts them where the FIFO would
/// have dequeued them, which keeps `Stats::constraints_processed` — and the
/// periodic passes and `max_work` bail-out that key on it — exact at every
/// step.
#[derive(Clone, Debug, Default)]
struct Worklist {
    queue: VecDeque<Queued>,
    tail: u32,
}

#[derive(Clone, Copy, Debug)]
struct Queued {
    lhs: SetExpr,
    rhs: SetExpr,
    discharged_before: u32,
}

/// One step of [`Worklist::pop_step`], in FIFO order.
enum Step {
    /// A trivially-true constraint, discharged when it was made.
    Discharged,
    /// A queued constraint `lhs ⊆ rhs`.
    Queued(SetExpr, SetExpr),
    /// Nothing is left.
    Empty,
}

impl Worklist {
    /// Appends `lhs ⊆ rhs` behind the constraints discharged since the last
    /// entry.
    #[inline]
    fn push(&mut self, lhs: SetExpr, rhs: SetExpr) {
        let discharged_before = std::mem::take(&mut self.tail);
        self.queue.push_back(Queued { lhs, rhs, discharged_before });
    }

    /// Counts one discharged constraint at the back of the FIFO. Returns
    /// `false`, counting nothing, if the counter is full; the caller then
    /// queues the constraint instead.
    #[inline]
    fn discharge(&mut self) -> bool {
        match self.tail.checked_add(1) {
            Some(n) => {
                self.tail = n;
                true
            }
            None => false,
        }
    }

    /// Takes the front entry: the number of discharged constraints ahead
    /// of it, and its constraint. With the queue empty it takes the tail,
    /// with no constraint.
    #[inline]
    fn pop(&mut self) -> (u32, Option<(SetExpr, SetExpr)>) {
        match self.queue.pop_front() {
            Some(entry) => (entry.discharged_before, Some((entry.lhs, entry.rhs))),
            None => (std::mem::take(&mut self.tail), None),
        }
    }

    /// Takes one step off the front: a discharged constraint if one is
    /// ahead of the front entry (or, with the queue empty, in the tail),
    /// else the front entry's constraint. A discharged step is taken off
    /// its counter first, so whatever the caller queues in response lands
    /// behind the discharged steps still ahead.
    fn pop_step(&mut self) -> Step {
        let ahead = match self.queue.front_mut() {
            Some(entry) => &mut entry.discharged_before,
            None => &mut self.tail,
        };
        if *ahead > 0 {
            *ahead -= 1;
            return Step::Discharged;
        }
        match self.queue.pop_front() {
            Some(entry) => Step::Queued(entry.lhs, entry.rhs),
            None => Step::Empty,
        }
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty() && self.tail == 0
    }

    /// Drops every entry and the discharged tail, keeping the ring.
    fn clear(&mut self) {
        self.queue.clear();
        self.tail = 0;
    }
}

/// Per-node provenance mirrors, positionally parallel to the node's four
/// adjacency lists (same push order, taken/retained in lockstep). Possible
/// only because the provenance-tracking solver disables eager compaction:
/// entries stay raw forever, so positions never get rewritten under us.
#[derive(Clone, Debug, Default)]
struct NodeProv {
    pred_vars: Vec<ProvId>,
    succ_vars: Vec<ProvId>,
    pred_srcs: Vec<ProvId>,
    succ_snks: Vec<ProvId>,
}

/// Provenance-tracking state (the `fast_apply` side-table; see
/// [`crate::prov`] and `docs/INCREMENTAL.md`). Boxed on the solver so the
/// common untracked configuration pays one null check per probe.
#[derive(Clone, Debug)]
struct ProvState {
    table: ProvTable,
    /// Parallel to `Solver::pending`: the provenance of each queued
    /// constraint (pushed and popped in lockstep with it).
    pending_prov: VecDeque<ProvId>,
    /// Ambient tag applied to constraints entering through
    /// [`Solver::add`] (set by [`Solver::set_current_group`]).
    current_group: ProvId,
    /// Provenance of the constraint currently being processed; derived
    /// facts union it with the provenance of the edges they meet.
    current: ProvId,
    /// Per-node mirrors, indexed like `Graph::nodes`.
    nodes: Vec<NodeProv>,
    /// One justification per collapse, in collapse order: the union of the
    /// cycle's edge provenances plus the triggering constraint's. A
    /// retraction intersecting any entry invalidates work that cannot be
    /// locally undone (the forwarding is permanent), forcing full replay.
    collapse_log: Vec<ProvId>,
    /// Justification computed by the online search for the collapse it is
    /// about to request; `None` (→ `TOP`) for offline sweeps.
    next_justification: Option<ProvId>,
    /// Parallel to `Solver::errors`.
    error_prov: Vec<ProvId>,
    /// Endpoints of adjacency entries deleted by
    /// [`Solver::retract_groups`], raw (canonicalized when consumed by
    /// [`Solver::repair_refire`]). Every over-deleted fact is incident to a
    /// damaged variable, which is what lets the repair pass re-fire only
    /// scans near the damage instead of replaying every canonical edge.
    damaged: Vec<Var>,
}

impl ProvState {
    /// A new state for a graph of `nodes` variables: only the sentinels in
    /// the table, no group tag, empty mirrors and logs.
    fn new(nodes: usize) -> Self {
        ProvState {
            table: ProvTable::new(),
            pending_prov: VecDeque::new(),
            current_group: ProvTable::EMPTY,
            current: ProvTable::EMPTY,
            nodes: vec![NodeProv::default(); nodes],
            collapse_log: Vec::new(),
            next_justification: None,
            error_prov: Vec::new(),
            damaged: Vec::new(),
        }
    }

    /// Returns to [`new`](ProvState::new) over the same variables, keeping
    /// every buffer.
    fn clear(&mut self) {
        self.table.clear();
        self.pending_prov.clear();
        self.current_group = ProvTable::EMPTY;
        self.current = ProvTable::EMPTY;
        for mirror in &mut self.nodes {
            mirror.pred_vars.clear();
            mirror.succ_vars.clear();
            mirror.pred_srcs.clear();
            mirror.succ_snks.clear();
        }
        self.collapse_log.clear();
        self.next_justification = None;
        self.error_prov.clear();
        self.damaged.clear();
    }
}

/// The inclusion-constraint solver.
///
/// See the [module documentation](self) for an overview and example.
#[derive(Clone, Debug)]
pub struct Solver {
    config: SolverConfig,
    cons: ConRegistry,
    terms: TermArena,
    graph: Graph,
    fwd: Forwarding,
    order: VarOrder,
    search: ChainSearch,
    pending: Worklist,
    /// Provenance tracking (the `fast_apply` side-table). `None` unless
    /// [`enable_provenance`](Solver::enable_provenance) was called before
    /// any constraint was added; the untracked path pays one null check.
    prov: Option<Box<ProvState>>,
    // Reusable buffers: steady-state resolution must not allocate per
    // processed constraint, so the cycle path, the collapse member list, and
    // the periodic-pass Tarjan bookkeeping all live on the solver and are
    // loaned out with `mem::take` where borrow splitting needs it.
    path_buf: Vec<Var>,
    members_buf: Vec<Var>,
    cycle_sweep: CycleSweep,
    /// Frozen CSR view of the solved graph, rebuilt by each least-solution
    /// pass; kept on the solver so repeated passes reuse its buffers.
    csr: crate::least::CsrSnapshot,
    stats: Stats,
    errors: Vec<Inconsistency>,
    one_term: TermId,
    zero_term: TermId,
    varvar_log: Vec<(u32, u32)>,
    union_log: Vec<(u32, u32)>,
    oracle: Option<Partition>,
    creation_count: u32,
    creation_to_var: Vec<Var>,
    source_terms: FxHashSet<TermId>,
    sink_terms: FxHashSet<TermId>,
    /// The optional observability recorder (obs builds only). `None` until
    /// [`enable_obs`](Solver::enable_obs): probes compile to a null check
    /// that the branch predictor retires for free, so an obs build with
    /// recording off measures indistinguishably from a non-obs build.
    #[cfg(feature = "obs")]
    obs: Option<Box<Recorder>>,
    /// Prefix of the graph's promotion log already turned into events by
    /// [`run_report`](Solver::run_report).
    #[cfg(feature = "obs")]
    promotions_reported: usize,
}

impl Solver {
    /// Creates a solver with the given configuration.
    pub fn new(config: SolverConfig) -> Self {
        Self::build(config, None)
    }

    /// Creates a solver that pre-aliases variables per the oracle partition
    /// (the paper's `*-Oracle` experiments).
    ///
    /// The partition must come from a converged run over the *same* constraint
    /// generation sequence (see [`Solver::scc_partition`]).
    pub fn with_oracle(config: SolverConfig, partition: Partition) -> Self {
        Self::build(config, Some(partition))
    }

    /// Creates a solver from a recorded [`Problem`], adopting its
    /// constructors and terms and replaying its variable creations and
    /// constraints.
    pub fn from_problem(problem: Problem) -> Self {
        Self::adopt_problem(problem, None)
    }

    /// Like [`from_problem`](Solver::from_problem) but pre-aliasing variable
    /// creations per the oracle partition, as
    /// [`with_oracle`](Solver::with_oracle) does.
    ///
    /// Replaying the recorded creation sequence through
    /// [`fresh_var`](Solver::fresh_var) reproduces the creation-index
    /// bookkeeping exactly, so a partition computed from a converged run of
    /// the same recording applies unchanged.
    pub fn from_problem_with_oracle(problem: Problem, partition: Partition) -> Self {
        Self::adopt_problem(problem, Some(partition))
    }

    fn adopt_problem(problem: Problem, oracle: Option<Partition>) -> Self {
        let (config, cons, terms, vars, constraints) = problem.into_parts();
        let mut solver = Self::build(config, oracle);
        // Adopt the recording's registries wholesale. The builtin `1`/`0`
        // prefix is identical by construction (debug-asserted), so every
        // `Con`/`TermId` the generator observed stays valid.
        debug_assert_eq!(solver.terms.len(), 2);
        solver.cons = cons;
        solver.terms = terms;
        for _ in 0..vars {
            solver.fresh_var();
        }
        for (lhs, rhs) in constraints {
            solver.add(lhs, rhs);
        }
        solver
    }

    /// Forgets every constraint and everything derived from them, keeping
    /// the registrations. Afterwards the solver is observably identical to
    /// [`from_problem`](Solver::from_problem) of its own constructors, terms
    /// and variable count, with [`enable_provenance`](Solver::enable_provenance)
    /// and `enable_obs` applied again if they were on: the same `Stats`,
    /// census, inconsistencies, least solution and run report after the
    /// same constraints are fed and solved.
    ///
    /// It keeps the configuration, the constructor and term tables, every
    /// variable with its order stamp (stamps depend only on the policy and
    /// the creation index, so a new solver would draw the same ones), and
    /// whether provenance and observability are on. It clears `Stats`, the
    /// inconsistencies, the worklist with its discharged tail, forwarding
    /// (back to the identity, no collapses counted), every adjacency list
    /// with its compaction stamp, the source and sink term sets, the
    /// variable-variable, union and promotion logs, the provenance DAG with
    /// its mirrors, the frozen CSR, and the recorder's counters, timers and
    /// events.
    ///
    /// It keeps the allocations. A session replays almost the same system
    /// after every non-monotone edit, so the closure it re-derives has about
    /// the shape of the one it forgets: each node's four adjacency lists and
    /// their promoted hash sets, the worklist ring, the forwarding array,
    /// the chain-search and sweep scratch, the CSR buffers and the
    /// provenance mirrors are cleared, not freed, and the solve refills
    /// them instead of growing each from empty.
    ///
    /// # Panics
    ///
    /// Panics on an oracle solver ([`with_oracle`](Solver::with_oracle)):
    /// its variable creations alias per the partition, which a replay of
    /// different constraints would not reproduce.
    pub fn reset(&mut self) {
        assert!(self.oracle.is_none(), "reset does not support oracle solvers");
        self.stats = Stats::default();
        self.errors.clear();
        self.pending.clear();
        self.graph.reset();
        self.fwd.reset();
        self.search.clear();
        self.cycle_sweep.clear();
        self.csr.clear();
        self.varvar_log.clear();
        self.union_log.clear();
        self.source_terms.clear();
        self.sink_terms.clear();
        if let Some(p) = &mut self.prov {
            p.clear();
        }
        #[cfg(feature = "obs")]
        {
            if let Some(rec) = &self.obs {
                rec.reset();
            }
            self.promotions_reported = 0;
        }
    }

    fn build(config: SolverConfig, oracle: Option<Partition>) -> Self {
        let mut cons = ConRegistry::new();
        let mut terms = TermArena::new();
        let one_con = cons.register_nullary("1");
        let zero_con = cons.register_nullary("0");
        let one_term = terms.intern(&cons, one_con, Vec::new());
        let zero_term = terms.intern(&cons, zero_con, Vec::new());
        Solver {
            config,
            cons,
            terms,
            graph: Graph::new(),
            fwd: Forwarding::new(),
            order: VarOrder::new(config.order),
            search: ChainSearch::new(1024),
            pending: Worklist::default(),
            prov: None,
            path_buf: Vec::new(),
            members_buf: Vec::new(),
            cycle_sweep: CycleSweep::default(),
            csr: crate::least::CsrSnapshot::new(),
            stats: Stats::default(),
            errors: Vec::new(),
            one_term,
            zero_term,
            varvar_log: Vec::new(),
            union_log: Vec::new(),
            oracle,
            creation_count: 0,
            creation_to_var: Vec::new(),
            source_terms: FxHashSet::default(),
            sink_terms: FxHashSet::default(),
            #[cfg(feature = "obs")]
            obs: None,
            #[cfg(feature = "obs")]
            promotions_reported: 0,
        }
    }

    // ------------------------------------------------------------------
    // Observability (obs feature only; see docs/OBSERVABILITY.md)
    // ------------------------------------------------------------------

    /// Turns on observability recording for this solver.
    ///
    /// Until this is called, the compiled-in probes are inert (a null check).
    /// Idempotent: a second call keeps the existing recorder and its data.
    #[cfg(feature = "obs")]
    pub fn enable_obs(&mut self) {
        if self.obs.is_none() {
            self.obs = Some(Box::new(Recorder::new()));
        }
    }

    /// The active recorder, if [`enable_obs`](Solver::enable_obs) was called.
    #[cfg(feature = "obs")]
    pub fn obs(&self) -> Option<&Recorder> {
        self.obs.as_deref()
    }

    #[cfg(feature = "obs")]
    #[inline]
    fn obs_start(&self, phase: Phase) {
        if let Some(o) = &self.obs {
            o.start(phase);
        }
    }

    #[cfg(feature = "obs")]
    #[inline]
    fn obs_stop(&self, phase: Phase) {
        if let Some(o) = &self.obs {
            o.stop(phase);
        }
    }

    #[cfg(feature = "obs")]
    #[inline]
    fn obs_emit(&self, event: Event) {
        if let Some(o) = &self.obs {
            o.emit(event);
        }
    }

    /// Snapshots the recorder into a [`RunReport`]: unifies [`Stats`], the
    /// search counters, the graph census and node counts, and the adjacency
    /// promotion log behind the counter registry, emits any promotions not
    /// yet reported as events, and returns the labeled report.
    ///
    /// Returns `None` if [`enable_obs`](Solver::enable_obs) was never called.
    /// Calling it repeatedly is safe: stats-derived counters are overwritten
    /// (they are cumulative totals) and promotion events are emitted once.
    #[cfg(feature = "obs")]
    pub fn run_report(&mut self, label: &str) -> Option<RunReport> {
        let census = self.census();
        let counts = self.node_counts();
        let rec = self.obs.as_deref()?;
        crate::obs::record_stats(rec, &self.stats);
        rec.set(bane_obs::Counter::CensusEdges, census.total_edges() as u64);
        rec.set(bane_obs::Counter::CensusLiveVars, counts.live_vars as u64);
        let promotions = self.graph.promotions();
        rec.set(bane_obs::Counter::AdjPromotions, promotions.len() as u64);
        rec.set(
            bane_obs::Counter::EpochResets,
            self.search.epoch_resets() + self.cycle_sweep.epoch_resets(),
        );
        for p in &promotions[self.promotions_reported..] {
            rec.emit(Event::ListPromoted { node: p.node.raw(), kind: p.kind.name() });
        }
        self.promotions_reported = promotions.len();
        Some(self.obs.as_deref()?.report(label))
    }

    /// The configuration this solver runs under.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Constraint provenance (the serve-layer `fast_apply` contract;
    // see crate::prov and docs/INCREMENTAL.md)
    // ------------------------------------------------------------------

    /// Turns on per-group constraint provenance tracking.
    ///
    /// Must precede all constraints: the side-table mirrors the adjacency
    /// lists positionally, so facts derived before tracking began cannot be
    /// attributed. Tracking disables eager adjacency compaction — compaction
    /// rewrites list entries in place, which would desynchronize the
    /// positional mirrors. Compaction is observable-neutral (see
    /// [`Graph::compact_node`]), so this changes throughput, not results.
    ///
    /// # Panics
    ///
    /// Panics if constraints were already added.
    pub fn enable_provenance(&mut self) {
        assert_eq!(
            self.stats.constraints_added, 0,
            "enable_provenance must precede all constraints"
        );
        if self.prov.is_some() {
            return;
        }
        self.prov = Some(Box::new(ProvState::new(self.graph.len())));
    }

    /// Whether [`enable_provenance`](Solver::enable_provenance) was called.
    pub fn provenance_enabled(&self) -> bool {
        self.prov.is_some()
    }

    /// Sets the constraint-group tag applied to subsequent
    /// [`add`](Solver::add) calls (`None` → untagged: facts that are never
    /// retracted). No-op without provenance tracking.
    pub fn set_current_group(&mut self, group: Option<u32>) {
        if let Some(p) = &mut self.prov {
            p.current_group = match group {
                Some(g) => p.table.singleton(g),
                None => ProvTable::EMPTY,
            };
        }
    }

    /// Recorded collapse justifications (one provenance per collapse).
    pub fn collapse_log_len(&self) -> usize {
        self.prov.as_ref().map_or(0, |p| p.collapse_log.len())
    }

    /// Retracts the provenance atoms `atoms`: deletes every graph fact
    /// whose recorded derivation depends on one of them, plus the
    /// inconsistencies attributed to them. Returns the number of removed
    /// adjacency entries, or `None` — with nothing changed — when the
    /// retraction would invalidate a recorded cycle collapse.
    ///
    /// Collapses rewrite the graph irreversibly (members forward to the
    /// witness and their edges are merged), so a retraction hitting any
    /// collapse justification cannot be repaired in place; the caller must
    /// fall back to full replay. Both the gate and the deletion read one
    /// [`ProvMask`](crate::prov::ProvMask) computed up front, so each edge
    /// costs one bit test.
    ///
    /// This over-deletes by design: only the *first* derivation of each fact
    /// is recorded, so a fact is dropped even when a surviving derivation
    /// exists. Callers re-inject the retained groups' atomic constraints,
    /// call [`repair_refire`](Solver::repair_refire), and drain, which
    /// re-derives the closure (delete-and-rederive) soundly.
    ///
    /// # Panics
    ///
    /// Panics without provenance tracking or with a non-empty worklist.
    pub fn retract_groups(&mut self, atoms: &[u32]) -> Option<u64> {
        assert!(
            self.pending.is_empty(),
            "retract_groups requires a drained worklist"
        );
        let Some(p) = &mut self.prov else {
            panic!("retract_groups requires enable_provenance");
        };
        if atoms.is_empty() {
            return Some(0);
        }
        let mask = p.table.retraction_mask(atoms);
        if p.collapse_log.iter().any(|&j| mask.hits(j)) {
            return None;
        }
        let mut removed = 0u64;
        let ProvState { nodes, error_prov, damaged, .. } = &mut **p;
        for (i, mirror) in nodes.iter_mut().enumerate() {
            let v = Var::new(i);
            let at_v = removed;
            // The graph retains by position, the mirror by value; the
            // predicate depends only on the mirror value at each position,
            // so both keep exactly the same entries. Deleted entries record
            // their endpoints as damaged, which is what the targeted
            // [`repair_refire`](Solver::repair_refire) pass keys on.
            removed += self
                .graph
                .retain_pred_vars(v, |pos, l| {
                    let keep = !mask.hits(mirror.pred_vars[pos]);
                    if !keep {
                        damaged.push(l);
                    }
                    keep
                }) as u64;
            mirror.pred_vars.retain(|&pr| !mask.hits(pr));
            removed += self
                .graph
                .retain_succ_vars(v, |pos, r| {
                    let keep = !mask.hits(mirror.succ_vars[pos]);
                    if !keep {
                        damaged.push(r);
                    }
                    keep
                }) as u64;
            mirror.succ_vars.retain(|&pr| !mask.hits(pr));
            removed += self
                .graph
                .retain_pred_srcs(v, |pos, _| !mask.hits(mirror.pred_srcs[pos])) as u64;
            mirror.pred_srcs.retain(|&pr| !mask.hits(pr));
            removed += self
                .graph
                .retain_succ_snks(v, |pos, _| !mask.hits(mirror.succ_snks[pos])) as u64;
            mirror.succ_snks.retain(|&pr| !mask.hits(pr));
            if removed > at_v {
                damaged.push(v);
            }
        }
        let mut i = 0;
        let ep = &*error_prov;
        self.errors.retain(|_| {
            let keep = !mask.hits(ep[i]);
            i += 1;
            keep
        });
        error_prov.retain(|&pr| !mask.hits(pr));
        Some(removed)
    }

    /// Schedules the targeted re-derivation pass after
    /// [`retract_groups`](Solver::retract_groups) (delete-and-rederive).
    ///
    /// Retraction over-deletes: only the first derivation of each fact is
    /// recorded, so facts with a surviving alternative derivation are gone
    /// too. Every closure rule here is binary with both premises co-located
    /// at a pivot variable, and any deleted fact has *damaged* endpoints
    /// (recorded during retraction), so the only rule instances able to
    /// re-derive an over-deleted fact from facts that survived are
    ///
    /// - a transitive scan through a surviving adjacency entry whose far
    ///   endpoint is damaged (the deleted consequence inherits that
    ///   endpoint from the premise), and
    /// - a structural meet `s ⊆ t` whose decomposition can emit an edge
    ///   between damaged argument variables — detectable as `s` or `t`
    ///   containing a damaged variable among its (transitive) arguments.
    ///
    /// This method re-fires exactly those instances, each once, pushing
    /// their consequences onto the worklist. The caller re-injects the live
    /// groups' atomic constraints (covering direct facts whose recorded
    /// first derivation was transitive) and drains with
    /// [`solve`](Solver::solve); instances needing a premise that is itself
    /// re-derived fire through the normal closure scans as those premises
    /// re-insert, completing the fixpoint.
    pub fn repair_refire(&mut self) {
        let Some(p) = &mut self.prov else { return };
        let raw = std::mem::take(&mut p.damaged);
        if raw.is_empty() {
            return;
        }
        let mut damaged = vec![false; self.graph.len()];
        for v in raw {
            damaged[self.fwd.find(v).raw() as usize] = true;
        }
        // A term is damage-relevant iff some argument variable, at any
        // nesting depth, is damaged. Arguments intern before their parent,
        // so one ascending pass settles the recursion.
        let mut relevant = vec![false; self.terms.len()];
        for id in 0..self.terms.len() {
            let t = TermId::new(id);
            let hit = (0..self.terms.data(t).args().len()).any(|k| {
                match self.terms.data(t).args()[k] {
                    SetExpr::Var(a) => damaged[self.fwd.find(a).raw() as usize],
                    SetExpr::Term(u) => {
                        debug_assert!(u < t, "arguments intern before parents");
                        relevant[u.raw() as usize]
                    }
                    _ => false,
                }
            });
            relevant[id] = hit;
        }
        // Collect the re-fires first (the scans need `&mut self`), deduped:
        // a scan per (pivot, canonical far endpoint) and a meet per (s, t).
        let mut seen: FxHashSet<(u8, u32, u32)> = FxHashSet::default();
        let mut scans: Vec<(bool, Var, SetExpr, ProvId)> = Vec::new();
        let mut meets: Vec<(TermId, TermId, ProvId, ProvId)> = Vec::new();
        for i in 0..self.graph.len() {
            let v = Var::new(i);
            for j in 0..self.graph.node(v).succ_vars().len() {
                let rc = self.fwd.find(self.graph.node(v).succ_vars()[j]);
                if damaged[rc.raw() as usize] && seen.insert((0, v.raw(), rc.raw())) {
                    let pr = self.prov.as_ref().expect("checked").nodes[i].succ_vars[j];
                    scans.push((true, v, SetExpr::Var(rc), pr));
                }
            }
            for j in 0..self.graph.node(v).pred_vars().len() {
                let lc = self.fwd.find(self.graph.node(v).pred_vars()[j]);
                if damaged[lc.raw() as usize] && seen.insert((1, v.raw(), lc.raw())) {
                    let pr = self.prov.as_ref().expect("checked").nodes[i].pred_vars[j];
                    scans.push((false, v, SetExpr::Var(lc), pr));
                }
            }
            for j in 0..self.graph.node(v).pred_srcs().len() {
                let s = self.graph.node(v).pred_srcs()[j];
                if relevant[s.raw() as usize] {
                    let ps = self.prov.as_ref().expect("checked").nodes[i].pred_srcs[j];
                    for k in 0..self.graph.node(v).succ_snks().len() {
                        let t = self.graph.node(v).succ_snks()[k];
                        if seen.insert((2, s.raw(), t.raw())) {
                            let pt = self.prov.as_ref().expect("checked").nodes[i].succ_snks[k];
                            meets.push((s, t, ps, pt));
                        }
                    }
                }
            }
            for j in 0..self.graph.node(v).succ_snks().len() {
                let t = self.graph.node(v).succ_snks()[j];
                if relevant[t.raw() as usize] {
                    let pt = self.prov.as_ref().expect("checked").nodes[i].succ_snks[j];
                    for k in 0..self.graph.node(v).pred_srcs().len() {
                        let s = self.graph.node(v).pred_srcs()[k];
                        if seen.insert((2, s.raw(), t.raw())) {
                            let ps = self.prov.as_ref().expect("checked").nodes[i].pred_srcs[k];
                            meets.push((s, t, ps, pt));
                        }
                    }
                }
            }
        }
        // The scans union the triggering entry's provenance (set as
        // `current`) with each co-located premise's mirror entry, so every
        // re-derived fact records a derivation that is valid *after* the
        // retraction.
        for (is_pred, pivot, operand, pr) in scans {
            self.prov.as_mut().expect("checked").current = pr;
            if is_pred {
                self.fire_pred_scan(pivot, operand);
            } else {
                self.fire_succ_scan(pivot, operand);
            }
        }
        for (s, t, ps, pt) in meets {
            {
                let p = self.prov.as_mut().expect("checked");
                p.current = p.table.union(ps, pt);
            }
            self.resolve_terms(s, t);
        }
        if let Some(p) = &mut self.prov {
            p.current = ProvTable::EMPTY;
        }
    }

    /// Registers a constructor with explicit argument variances.
    pub fn register_con(&mut self, name: impl Into<String>, variances: Vec<Variance>) -> Con {
        self.cons.register(name, variances)
    }

    /// Registers a nullary (constant) constructor.
    pub fn register_nullary(&mut self, name: impl Into<String>) -> Con {
        self.cons.register_nullary(name)
    }

    /// Interns the term `con(args…)`.
    ///
    /// # Panics
    ///
    /// Panics if the argument count does not match the constructor's arity.
    pub fn term(&mut self, con: Con, args: Vec<SetExpr>) -> TermId {
        self.terms.intern(&self.cons, con, args)
    }

    /// Creates a fresh set variable.
    ///
    /// Under an oracle partition this may return an existing witness
    /// variable instead of allocating a node.
    pub fn fresh_var(&mut self) -> Var {
        let ci = self.creation_count;
        self.creation_count += 1;
        if let Some(partition) = &self.oracle {
            let rep = partition.rep_of(ci);
            if rep != ci {
                let v = self.creation_to_var[rep as usize];
                self.creation_to_var.push(v);
                self.stats.oracle_aliased += 1;
                return v;
            }
        }
        let v = self.graph.push_node();
        if let Some(p) = &mut self.prov {
            p.nodes.push(NodeProv::default());
        }
        let f = self.fwd.push();
        debug_assert_eq!(v, f);
        self.order.assign(v);
        self.search.grow(self.graph.len());
        if self.oracle.is_some() {
            self.creation_to_var.push(v);
        }
        v
    }

    /// Number of `fresh_var` calls so far (creation indices `0..count`).
    pub fn vars_created(&self) -> u32 {
        self.creation_count
    }

    /// Adds the constraint `lhs ⊆ rhs` to the worklist.
    ///
    /// Call [`solve`](Solver::solve) (or [`atomize`](Solver::atomize)) to
    /// process it; constraints may be added incrementally between calls.
    pub fn add(&mut self, lhs: impl Into<SetExpr>, rhs: impl Into<SetExpr>) {
        self.stats.constraints_added += 1;
        if let Some(p) = &mut self.prov {
            let g = p.current_group;
            p.pending_prov.push_back(g);
        }
        self.pending.push(lhs.into(), rhs.into());
    }

    /// Queues a derived constraint carrying the in-flight provenance.
    #[inline]
    fn push_pending(&mut self, lhs: SetExpr, rhs: SetExpr) {
        if let Some(p) = &mut self.prov {
            let pr = p.current;
            p.pending_prov.push_back(pr);
        }
        self.pending.push(lhs, rhs);
    }

    /// Queues a decomposition argument `lhs ⊆ rhs`, or discharges it on the
    /// spot when it is trivially true (`0 ⊆ R` or `L ⊆ 1`): processing it
    /// would change nothing but `constraints_processed`, so it is only
    /// counted, at its FIFO position, and pushes no provenance.
    #[inline]
    fn push_argument(&mut self, lhs: SetExpr, rhs: SetExpr) {
        let trivial = matches!(lhs, SetExpr::Zero) || matches!(rhs, SetExpr::One);
        if !(trivial && self.pending.discharge()) {
            self.push_pending(lhs, rhs);
        }
    }

    /// Queues a derived constraint with an explicit provenance (collapse
    /// re-assertions, whose edges carry their own recorded provenance).
    #[inline]
    fn push_pending_with(&mut self, lhs: SetExpr, rhs: SetExpr, prov: ProvId) {
        if let Some(p) = &mut self.prov {
            p.pending_prov.push_back(prov);
        }
        self.pending.push(lhs, rhs);
    }

    /// Resolves all pending constraints, closing the graph transitively.
    pub fn solve(&mut self) {
        let finished = self.run(true, u64::MAX);
        debug_assert!(finished);
    }

    /// Like [`solve`](Solver::solve) but gives up once the work counter
    /// exceeds `max_work`; returns `true` if resolution finished.
    ///
    /// Used by the experiment harness to bound the `SF-Plain` blow-ups on
    /// large benchmarks.
    pub fn solve_limited(&mut self, max_work: u64) -> bool {
        self.run(true, max_work)
    }

    /// Rewrites pending constraints to atomic form and records them as graph
    /// edges *without* transitive closure or cycle elimination.
    ///
    /// This materializes the paper's *initial* constraint graph (Table 1's
    /// initial-edge and initial-SCC columns). Use a dedicated solver instance
    /// for this; mixing `atomize` and `solve` on one instance is not
    /// supported.
    pub fn atomize(&mut self) {
        self.run(false, u64::MAX);
    }

    fn run(&mut self, closure: bool, max_work: u64) -> bool {
        #[cfg(feature = "obs")]
        self.obs_start(Phase::Resolve);
        let finished = self.run_inner(closure, max_work);
        #[cfg(feature = "obs")]
        {
            if !finished {
                self.obs_emit(Event::WorkLimitHit { work: self.stats.work });
            }
            self.obs_stop(Phase::Resolve);
        }
        finished
    }

    /// The resolution loop. A discharged constraint is one processed step
    /// that changes nothing else, so the periodic pass and the `max_work`
    /// check follow it exactly as they follow a queued one. Without periodic
    /// passes and below the bound those checks cannot fire, so the steps
    /// ahead of an entry are counted at once; otherwise the loop takes one
    /// step at a time.
    fn run_inner(&mut self, closure: bool, max_work: u64) -> bool {
        let periodic = match self.config.cycle_elim {
            CycleElim::Periodic { interval } if closure => interval.max(1) as u64,
            _ => 0,
        };
        loop {
            let (lhs, rhs) = if periodic == 0 && self.stats.work <= max_work {
                let (discharged, next) = self.pending.pop();
                self.stats.constraints_processed += u64::from(discharged);
                match next {
                    Some(constraint) => constraint,
                    None => return true,
                }
            } else {
                match self.pending.pop_step() {
                    Step::Queued(lhs, rhs) => (lhs, rhs),
                    Step::Empty => return true,
                    Step::Discharged => {
                        self.stats.constraints_processed += 1;
                        if !self.after_step(periodic, max_work) {
                            return false;
                        }
                        continue;
                    }
                }
            };
            if let Some(p) = &mut self.prov {
                p.current = p.pending_prov.pop_front().unwrap_or(ProvTable::EMPTY);
            }
            self.process(lhs, rhs, closure);
            if !self.after_step(periodic, max_work) {
                return false;
            }
        }
    }

    /// Runs what follows every processed step: the periodic pass when the
    /// count reaches a multiple of `periodic` (0: none), then the `max_work`
    /// check. Returns `false` when the run must stop.
    #[inline]
    fn after_step(&mut self, periodic: u64, max_work: u64) -> bool {
        if periodic != 0 && self.stats.constraints_processed.is_multiple_of(periodic) {
            self.offline_collapse();
        }
        self.stats.work <= max_work
    }

    /// One offline elimination pass: Tarjan over the current canonical
    /// variable-variable edges, collapsing every non-trivial SCC.
    ///
    /// The read-only half lives in [`CycleSweep`]; this drives it with the
    /// solver's own [`collapse`](Solver::collapse).
    fn offline_collapse(&mut self) {
        #[cfg(feature = "obs")]
        self.obs_start(Phase::OfflinePass);
        let mut sweep = std::mem::take(&mut self.cycle_sweep);
        let count = sweep.compute(&self.graph, &self.fwd);
        let mut members = std::mem::take(&mut self.path_buf);
        for i in 0..count {
            members.clear();
            members.extend_from_slice(sweep.component(i));
            self.collapse(&members);
        }
        self.path_buf = members;
        self.cycle_sweep = sweep;
        #[cfg(feature = "obs")]
        self.obs_stop(Phase::OfflinePass);
    }

    fn inconsistent(&mut self, err: Inconsistency) {
        self.stats.inconsistencies += 1;
        if let Some(p) = &mut self.prov {
            let pr = p.current;
            p.error_prov.push(pr);
        }
        #[cfg(feature = "obs")]
        self.obs_emit(Event::Inconsistency);
        self.errors.push(err);
    }

    fn process(&mut self, lhs: SetExpr, rhs: SetExpr, closure: bool) {
        self.stats.constraints_processed += 1;
        // Normalize: 0 ⊆ R and L ⊆ 1 are trivially true; the remaining
        // occurrences of 1 (as a source) and 0 (as a sink) become the builtin
        // nullary terms so the graph stores them uniformly.
        let lhs = match lhs {
            SetExpr::Zero => return,
            SetExpr::One => SetExpr::Term(self.one_term),
            SetExpr::Var(v) => SetExpr::Var(self.fwd.find(v)),
            t @ SetExpr::Term(_) => t,
        };
        let rhs = match rhs {
            SetExpr::One => return,
            SetExpr::Zero => SetExpr::Term(self.zero_term),
            SetExpr::Var(v) => SetExpr::Var(self.fwd.find(v)),
            t @ SetExpr::Term(_) => t,
        };
        // The three edge-inserting arms share the EdgeInsert phase; term-term
        // decomposition is structural, not an insertion, and stays outside.
        #[cfg(feature = "obs")]
        let is_edge = !matches!((&lhs, &rhs), (SetExpr::Term(_), SetExpr::Term(_)));
        #[cfg(feature = "obs")]
        if is_edge {
            self.obs_start(Phase::EdgeInsert);
        }
        match (lhs, rhs) {
            (SetExpr::Var(x), SetExpr::Var(y)) => self.var_var(x, y, closure),
            (SetExpr::Var(x), SetExpr::Term(t)) => self.add_snk(x, t, closure),
            (SetExpr::Term(s), SetExpr::Var(y)) => self.add_src(s, y, closure),
            (SetExpr::Term(s), SetExpr::Term(t)) => self.resolve_terms(s, t),
            _ => unreachable!("normalization removed 0/1"),
        }
        #[cfg(feature = "obs")]
        if is_edge {
            self.obs_stop(Phase::EdgeInsert);
        }
    }

    /// The resolution rules **R**: decompose `s ⊆ t` structurally.
    fn resolve_terms(&mut self, s: TermId, t: TermId) {
        self.stats.term_constraints += 1;
        if s == t || s == self.zero_term || t == self.one_term {
            return;
        }
        if s == self.one_term {
            self.inconsistent(Inconsistency::OneInTerm { rhs: t });
            return;
        }
        if t == self.zero_term {
            self.inconsistent(Inconsistency::NonEmptyInZero { lhs: Some(s) });
            return;
        }
        let (sc, tc) = (self.terms.data(s).con(), self.terms.data(t).con());
        if sc != tc {
            self.inconsistent(Inconsistency::ConstructorMismatch { lhs: s, rhs: t });
            return;
        }
        self.stats.resolutions += 1;
        let arity = self.cons.signature(sc).arity();
        for i in 0..arity {
            let a = self.terms.data(s).args()[i];
            let b = self.terms.data(t).args()[i];
            match self.cons.signature(sc).variances()[i] {
                Variance::Covariant => self.push_argument(a, b),
                Variance::Contravariant => self.push_argument(b, a),
            }
        }
    }

    /// Fires the closure rule over `pivot`'s successor lists: `lhs ⊆ R` for
    /// every successor `R`. The untracked arm is byte-identical to the
    /// historical inline code, including the eager compaction that the
    /// provenance arm must skip (it would rewrite list entries out from
    /// under the positional mirrors); the provenance arm unions the
    /// triggering constraint's provenance into each derived constraint.
    fn fire_succ_scan(&mut self, pivot: Var, lhs: SetExpr) {
        match &mut self.prov {
            None => {
                self.graph.compact_node(pivot, &self.fwd);
                let node = self.graph.node(pivot);
                for &r in node.succ_vars() {
                    self.pending.push(lhs, SetExpr::Var(r));
                }
                for &r in node.succ_snks() {
                    self.pending.push(lhs, SetExpr::Term(r));
                }
            }
            Some(p) => {
                let ProvState { table, nodes, pending_prov, current, .. } = &mut **p;
                let node = self.graph.node(pivot);
                let mirror = &nodes[pivot.raw() as usize];
                debug_assert_eq!(node.succ_vars().len(), mirror.succ_vars.len());
                debug_assert_eq!(node.succ_snks().len(), mirror.succ_snks.len());
                for (i, &r) in node.succ_vars().iter().enumerate() {
                    pending_prov.push_back(table.union(*current, mirror.succ_vars[i]));
                    self.pending.push(lhs, SetExpr::Var(r));
                }
                for (i, &r) in node.succ_snks().iter().enumerate() {
                    pending_prov.push_back(table.union(*current, mirror.succ_snks[i]));
                    self.pending.push(lhs, SetExpr::Term(r));
                }
            }
        }
    }

    /// The predecessor twin of [`fire_succ_scan`](Solver::fire_succ_scan):
    /// `L ⊆ rhs` for every predecessor `L` of `pivot`.
    fn fire_pred_scan(&mut self, pivot: Var, rhs: SetExpr) {
        match &mut self.prov {
            None => {
                self.graph.compact_node(pivot, &self.fwd);
                let node = self.graph.node(pivot);
                for &l in node.pred_srcs() {
                    self.pending.push(SetExpr::Term(l), rhs);
                }
                for &l in node.pred_vars() {
                    self.pending.push(SetExpr::Var(l), rhs);
                }
            }
            Some(p) => {
                let ProvState { table, nodes, pending_prov, current, .. } = &mut **p;
                let node = self.graph.node(pivot);
                let mirror = &nodes[pivot.raw() as usize];
                debug_assert_eq!(node.pred_srcs().len(), mirror.pred_srcs.len());
                debug_assert_eq!(node.pred_vars().len(), mirror.pred_vars.len());
                for (i, &l) in node.pred_srcs().iter().enumerate() {
                    pending_prov.push_back(table.union(*current, mirror.pred_srcs[i]));
                    self.pending.push(SetExpr::Term(l), rhs);
                }
                for (i, &l) in node.pred_vars().iter().enumerate() {
                    pending_prov.push_back(table.union(*current, mirror.pred_vars[i]));
                    self.pending.push(SetExpr::Var(l), rhs);
                }
            }
        }
    }

    /// Records the provenance of a freshly inserted adjacency entry in the
    /// positional mirror (no-op untracked).
    #[inline]
    fn mirror_push(&mut self, v: Var, list: u8) {
        if let Some(p) = &mut self.prov {
            let pr = p.current;
            let mirror = &mut p.nodes[v.raw() as usize];
            match list {
                0 => mirror.pred_vars.push(pr),
                1 => mirror.succ_vars.push(pr),
                2 => mirror.pred_srcs.push(pr),
                _ => mirror.succ_snks.push(pr),
            }
        }
    }

    /// Adds the source edge `s ⋯→ y` and fires the closure rule with `y` as
    /// the pivot: `s ⊆ R` for every successor `R` of `y`.
    fn add_src(&mut self, s: TermId, y: Var, closure: bool) {
        self.stats.work += 1;
        if self.graph.insert_src(y, s) == Insert::Redundant {
            self.stats.redundant += 1;
            return;
        }
        self.mirror_push(y, 2);
        // A redundant addition implies the term was registered when the edge
        // first went in, so this hash insert only runs on new edges.
        self.source_terms.insert(s);
        if closure {
            self.fire_succ_scan(y, SetExpr::Term(s));
        }
    }

    /// Adds the sink edge `x → t` and fires the closure rule with `x` as the
    /// pivot: `L ⊆ t` for every predecessor `L` of `x`.
    fn add_snk(&mut self, x: Var, t: TermId, closure: bool) {
        self.stats.work += 1;
        if self.graph.insert_snk(x, t) == Insert::Redundant {
            self.stats.redundant += 1;
            return;
        }
        self.mirror_push(x, 3);
        self.sink_terms.insert(t);
        if closure {
            self.fire_pred_scan(x, SetExpr::Term(t));
        }
    }

    /// Handles the variable-variable constraint `x ⊆ y`: picks the edge
    /// representation per the form, runs online cycle detection, inserts the
    /// edge, and fires the closure rule.
    fn var_var(&mut self, x: Var, y: Var, closure: bool) {
        if x == y {
            self.stats.self_constraints += 1;
            return;
        }
        let as_pred = match self.config.form {
            Form::Standard => false,
            Form::Inductive => self.order.lt(x, y),
        };
        self.stats.work += 1;
        if as_pred {
            // x ⋯→ y: look for a successor chain y → … → x.
            if self.graph.has_pred_var(y, x) {
                self.stats.redundant += 1;
                return;
            }
            if closure
                && self.config.cycle_elim == CycleElim::Online
                && self.search_cycle(y, x, ChainDir::Succ, StepOrder::Decreasing)
            {
                return;
            }
            self.graph.insert_pred_var(y, x);
            self.mirror_push(y, 0);
            self.log_varvar(x, y);
            if closure {
                self.fire_succ_scan(y, SetExpr::Var(x));
            }
        } else {
            // x → y: look for a predecessor chain y ⋯→ … ⋯→ x (inductive
            // form) or a successor chain y → … → x (standard form).
            if self.graph.has_succ_var(x, y) {
                self.stats.redundant += 1;
                return;
            }
            if closure && self.config.cycle_elim == CycleElim::Online {
                match self.config.form {
                    Form::Inductive => {
                        if self.search_cycle(x, y, ChainDir::Pred, StepOrder::Decreasing) {
                            return;
                        }
                    }
                    Form::Standard => {
                        // `steps()` yields a static slice, so SF's one-or-two
                        // attempts iterate without building a temporary list.
                        for &step in self.config.sf_chain.steps() {
                            if self.search_cycle(y, x, ChainDir::Succ, step) {
                                return;
                            }
                        }
                    }
                }
            }
            self.graph.insert_succ_var(x, y);
            self.mirror_push(x, 1);
            self.log_varvar(x, y);
            if closure {
                self.fire_pred_scan(x, SetExpr::Var(y));
            }
        }
    }

    /// Runs one chain search and, if it closes a cycle, collapses it.
    ///
    /// Returns whether a cycle was found (the pending edge must then be
    /// dropped, not inserted). The path lives in the solver's reusable
    /// buffer, loaned out around the call so `collapse` can borrow freely.
    fn search_cycle(&mut self, start: Var, target: Var, dir: ChainDir, step: StepOrder) -> bool {
        let mut path = std::mem::take(&mut self.path_buf);
        #[cfg(feature = "obs")]
        self.obs_start(Phase::CycleDetect);
        let found = self.search.search(
            &self.graph,
            &self.fwd,
            &self.order,
            start,
            target,
            dir,
            step,
            &mut self.stats.search,
            &mut path,
        );
        #[cfg(feature = "obs")]
        self.obs_stop(Phase::CycleDetect);
        if found {
            if let Some(p) = &mut self.prov {
                // Justify the collapse: the triggering constraint plus every
                // edge the found chain stepped through. The chain walked raw
                // list entries canonicalized through forwarding, so each step
                // is recovered as the first entry of `from`'s dir-list that
                // canonicalizes to `to`; an unrecoverable step (shouldn't
                // happen) degrades to `TOP`, which only widens the fallback.
                let ProvState { table, nodes, current, next_justification, .. } = &mut **p;
                let mut just = *current;
                for w in path.windows(2) {
                    let (from, to) = (w[0], w[1]);
                    let node = self.graph.node(from);
                    let (items, mirror) = match dir {
                        ChainDir::Succ => {
                            (node.succ_vars(), &nodes[from.raw() as usize].succ_vars)
                        }
                        ChainDir::Pred => {
                            (node.pred_vars(), &nodes[from.raw() as usize].pred_vars)
                        }
                    };
                    let step_prov = items
                        .iter()
                        .position(|&raw| self.fwd.find_const(raw) == to)
                        .and_then(|i| mirror.get(i).copied())
                        .unwrap_or(ProvTable::TOP);
                    just = table.union(just, step_prov);
                }
                *next_justification = Some(just);
            }
            self.collapse(&path);
        }
        self.path_buf = path;
        found
    }

    fn log_varvar(&mut self, x: Var, y: Var) {
        if self.config.log_varvar && self.oracle.is_none() {
            self.varvar_log.push((x.raw(), y.raw()));
        }
    }

    /// Collapses the cycle through `path`: forwards every member to the
    /// lowest-ordered witness and re-asserts the absorbed edges against it.
    fn collapse(&mut self, path: &[Var]) {
        // Always clear the search's stashed justification, even on the
        // degenerate early return, so it cannot leak into a later collapse.
        let justification = self.prov.as_mut().and_then(|p| p.next_justification.take());
        let mut members = std::mem::take(&mut self.members_buf);
        members.clear();
        members.extend(path.iter().map(|&v| self.fwd.find(v)));
        members.sort_unstable();
        members.dedup();
        if members.len() < 2 {
            self.members_buf = members;
            return;
        }
        if let Some(p) = &mut self.prov {
            // Offline sweeps pass no justification and conservatively log
            // `TOP`: any later retraction then falls back to replay.
            p.collapse_log.push(justification.unwrap_or(ProvTable::TOP));
        }
        #[cfg(feature = "obs")]
        self.obs_start(Phase::Collapse);
        // The lowest-ordered member preserves the inductive-form invariant.
        let witness = self.order.min_of(&members);
        #[cfg(feature = "obs")]
        self.obs_emit(Event::CycleCollapsed {
            witness: witness.raw(),
            members: members.len() as u32,
        });
        self.stats.cycles_collapsed += 1;
        for &m in &members {
            if m == witness {
                continue;
            }
            self.stats.vars_eliminated += 1;
            let taken = self.graph.take_edges(m);
            // Take the positional mirrors with the lists they mirror; the
            // re-assertions below carry each absorbed edge's own provenance.
            let taken_prov = match &mut self.prov {
                Some(p) => std::mem::take(&mut p.nodes[m.raw() as usize]),
                None => NodeProv::default(),
            };
            if self.config.log_varvar && self.oracle.is_none() {
                self.union_log.push((m.raw(), witness.raw()));
            }
            self.fwd.union_into(m, witness);
            // Re-assert through the normal path so representation invariants
            // are restored and the closure rule fires for the merged lists.
            for (i, s) in taken.pred_srcs.into_iter().enumerate() {
                let pr = taken_prov.pred_srcs.get(i).copied().unwrap_or(ProvTable::EMPTY);
                self.push_pending_with(SetExpr::Term(s), SetExpr::Var(witness), pr);
            }
            for (i, u) in taken.pred_vars.into_iter().enumerate() {
                let pr = taken_prov.pred_vars.get(i).copied().unwrap_or(ProvTable::EMPTY);
                self.push_pending_with(SetExpr::Var(u), SetExpr::Var(witness), pr);
            }
            for (i, u) in taken.succ_vars.into_iter().enumerate() {
                let pr = taken_prov.succ_vars.get(i).copied().unwrap_or(ProvTable::EMPTY);
                self.push_pending_with(SetExpr::Var(witness), SetExpr::Var(u), pr);
            }
            for (i, t) in taken.succ_snks.into_iter().enumerate() {
                let pr = taken_prov.succ_snks.get(i).copied().unwrap_or(ProvTable::EMPTY);
                self.push_pending_with(SetExpr::Var(witness), SetExpr::Term(t), pr);
            }
        }
        self.members_buf = members;
        #[cfg(feature = "obs")]
        self.obs_stop(Phase::Collapse);
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// The representative of `v` after collapses (with path compression).
    pub fn find(&mut self, v: Var) -> Var {
        self.fwd.find(v)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Inconsistencies recorded during resolution.
    pub fn inconsistencies(&self) -> &[Inconsistency] {
        &self.errors
    }

    /// The constructor registry.
    pub fn cons(&self) -> &ConRegistry {
        &self.cons
    }

    /// The term arena.
    pub fn term_data(&self, id: TermId) -> &TermData {
        self.terms.data(id)
    }

    /// The full interned term table. Serialization consumers (`bane-snap`)
    /// walk this to persist every term a solution can mention.
    pub fn terms(&self) -> &crate::expr::TermArena {
        &self.terms
    }

    /// Renders a set expression for humans.
    pub fn display(&self, expr: SetExpr) -> String {
        self.terms.display(&self.cons, expr)
    }

    /// Distinct canonical edge counts (the paper's "Edges" columns).
    pub fn census(&self) -> GraphCensus {
        self.graph.census(&self.fwd)
    }

    /// Node counts (Table 1's node columns).
    pub fn node_counts(&self) -> NodeCounts {
        let live = self.fwd.reps().count();
        NodeCounts {
            vars_created: self.creation_count as usize,
            live_vars: live,
            sources: self.source_terms.len(),
            sinks: self.sink_terms.len(),
        }
    }

    /// The canonical sources flowing into `v` (SF's explicit least solution),
    /// sorted and deduplicated.
    pub fn sources_of(&mut self, v: Var) -> Vec<TermId> {
        let v = self.fwd.find(v);
        let mut out: Vec<TermId> = self.graph.node(v).pred_srcs().to_vec();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// SCC statistics over the *current* variable-variable edges (used for
    /// Table 1's initial-SCC columns after [`atomize`](Solver::atomize)).
    pub fn var_var_scc_stats(&self) -> SccStats {
        let edges = self.graph.var_var_edges(&self.fwd);
        let n = self.graph.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (a, b) in edges {
            adj[a.index()].push(b.raw());
        }
        SccStats::from(&tarjan(n, &adj))
    }

    /// Measures Theorem 5.2's quantity directly: for every live variable,
    /// the number of variables reachable through a chain of `dir` edges with
    /// strictly decreasing order; returns the mean (and maximum).
    ///
    /// For the paper's sparse graphs (final density ≈ 2/n) this should stay
    /// near 2.2 — the reason partial online cycle detection is cheap.
    pub fn chain_reach(&mut self, dir: ChainDir) -> (f64, usize) {
        let mut visited = bane_util::EpochSet::new(self.graph.len());
        let mut stack: Vec<Var> = Vec::new();
        let mut total = 0usize;
        let mut max = 0usize;
        let mut live = 0usize;
        for i in 0..self.graph.len() {
            let v = Var::new(i);
            if self.fwd.find_const(v) != v {
                continue;
            }
            live += 1;
            visited.begin();
            visited.mark(v.index());
            stack.clear();
            stack.push(v);
            let mut count = 0usize;
            while let Some(u) = stack.pop() {
                let list = match dir {
                    ChainDir::Pred => self.graph.node(u).pred_vars(),
                    ChainDir::Succ => self.graph.node(u).succ_vars(),
                };
                for &raw in list {
                    let w = self.fwd.find_const(raw);
                    if w == u || !self.order.lt(w, u) {
                        continue;
                    }
                    if visited.mark(w.index()) {
                        count += 1;
                        stack.push(w);
                    }
                }
            }
            total += count;
            max = max.max(count);
        }
        if live == 0 {
            (0.0, 0)
        } else {
            (total as f64 / live as f64, max)
        }
    }

    /// Builds the oracle partition from this run's logs (requires
    /// `log_varvar` and a converged [`solve`](Solver::solve)).
    ///
    /// Returns the identity partition if logging was disabled.
    pub fn scc_partition(&self) -> Partition {
        if !self.config.log_varvar || self.oracle.is_some() {
            return Partition::identity(self.creation_count as usize);
        }
        #[cfg(feature = "obs")]
        if let Some(rec) = &self.obs {
            return Partition::from_run_observed(
                self.creation_count as usize,
                &self.varvar_log,
                &self.union_log,
                rec,
            );
        }
        Partition::from_run(self.creation_count as usize, &self.varvar_log, &self.union_log)
    }

    /// The logged variable-variable constraints (creation-index pairs).
    pub fn varvar_log(&self) -> &[(u32, u32)] {
        &self.varvar_log
    }

    /// The logged online collapses (member, witness creation-index pairs).
    pub fn union_log(&self) -> &[(u32, u32)] {
        &self.union_log
    }

    /// Borrows exactly the parts the least-solution pass reads.
    ///
    /// This is the hook the least-solution pass
    /// ([`LeastPass`](crate::least::LeastPass)) reads the solved system
    /// through, for [`least_solution`](Solver::least_solution) and for a
    /// caller that keeps its own revalidated solution (`bane-serve`'s
    /// sessions). Meaningful after [`solve`](Solver::solve) has converged.
    pub fn least_parts(&self) -> crate::least::LeastParts<'_> {
        crate::least::LeastParts {
            graph: &self.graph,
            fwd: &self.fwd,
            order: &self.order,
            form: self.config.form,
        }
    }

    /// The solver-owned CSR snapshot buffer the least-solution pass loans
    /// out with `mem::take` (borrow splitting against `least_parts`).
    pub(crate) fn csr_snapshot_mut(&mut self) -> &mut crate::least::CsrSnapshot {
        &mut self.csr
    }

    /// The CSR the last [`least_solution`](Solver::least_solution) pass
    /// froze: canonical rows in layout order, the graph half of what
    /// `bane-snap` serializes next to that solution. Empty before the first
    /// pass, and stale once the graph changes again.
    pub fn least_csr(&self) -> &crate::least::CsrSnapshot {
        &self.csr
    }

    /// Number of variable nodes ever created (including collapsed ones).
    pub fn graph_len(&self) -> usize {
        self.graph.len()
    }

    /// Gathers the canonical edges of `v` for rendering (see [`crate::dot`]).
    pub(crate) fn node_edges(&mut self, v: Var) -> crate::dot::NodeEdges {
        let mut var_edges: Vec<(Var, bool)> = Vec::new();
        let mut term_edges: Vec<(TermId, bool)> = Vec::new();
        for &u in self.graph.node(v).pred_vars() {
            let u = self.fwd.find_const(u);
            if u != v {
                var_edges.push((u, true));
            }
        }
        for &u in self.graph.node(v).succ_vars() {
            let u = self.fwd.find_const(u);
            if u != v {
                var_edges.push((u, false));
            }
        }
        for &t in self.graph.node(v).pred_srcs() {
            term_edges.push((t, true));
        }
        for &t in self.graph.node(v).succ_snks() {
            term_edges.push((t, false));
        }
        crate::dot::NodeEdges { var_edges, term_edges }
    }

    /// The builtin term representing the universal set `1`.
    pub fn one_term(&self) -> TermId {
        self.one_term
    }

    /// The builtin term representing the empty set `0`.
    pub fn zero_term(&self) -> TermId {
        self.zero_term
    }
}

// The sequential solver keeps its inherent construction/run methods as the
// primary surface (they predate the traits and are not duplicated anywhere);
// the trait impls delegate so generic harness code works on any engine. This
// covers both plain and oracle-mode solvers — oracle aliasing lives inside
// `fresh_var` and needs no separate impl.
impl ConstraintBuilder for Solver {
    fn register_con(&mut self, name: impl Into<String>, variances: Vec<Variance>) -> Con {
        Solver::register_con(self, name, variances)
    }

    fn register_nullary(&mut self, name: impl Into<String>) -> Con {
        Solver::register_nullary(self, name)
    }

    fn term(&mut self, con: Con, args: Vec<SetExpr>) -> TermId {
        Solver::term(self, con, args)
    }

    fn fresh_var(&mut self) -> Var {
        Solver::fresh_var(self)
    }

    fn add(&mut self, lhs: impl Into<SetExpr>, rhs: impl Into<SetExpr>) {
        Solver::add(self, lhs, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configs() -> Vec<SolverConfig> {
        vec![
            SolverConfig::sf_plain(),
            SolverConfig::if_plain(),
            SolverConfig::sf_online(),
            SolverConfig::if_online(),
        ]
    }

    /// `c ⊆ X`, `X ⊆ Y` in every configuration: `LS(Y) = {c}`.
    #[test]
    fn transitive_source_propagation() {
        for config in configs() {
            let mut s = Solver::new(config);
            let c = s.register_nullary("c");
            let src = s.term(c, vec![]);
            let (x, y) = (s.fresh_var(), s.fresh_var());
            s.add(src, x);
            s.add(x, y);
            s.solve();
            let yr = s.find(y);
            let ls = s.least_solution();
            assert_eq!(ls.get(yr), &[src], "{config:?}");
        }
    }

    /// Source–sink meetings decompose by variance.
    #[test]
    fn covariant_and_contravariant_decomposition() {
        for config in configs() {
            let mut s = Solver::new(config);
            let c = s.register_nullary("c");
            let f = s.register_con("f", vec![Variance::Covariant, Variance::Contravariant]);
            let csrc = s.term(c, vec![]);
            let (a, b, p, q, mid) = (
                s.fresh_var(),
                s.fresh_var(),
                s.fresh_var(),
                s.fresh_var(),
                s.fresh_var(),
            );
            // f(a, b̄) ⊆ mid ⊆ f(p, q̄)  ⇒  a ⊆ p and q ⊆ b.
            let src = s.term(f, vec![a.into(), b.into()]);
            let snk = s.term(f, vec![p.into(), q.into()]);
            s.add(src, mid);
            s.add(mid, snk);
            // Witness flows: c ⊆ a must reach p; c2 ⊆ q must reach b.
            let c2 = s.register_nullary("c2");
            let c2src = s.term(c2, vec![]);
            s.add(csrc, a);
            s.add(c2src, q);
            s.solve();
            assert!(s.inconsistencies().is_empty(), "{config:?}");
            let (pr, br) = (s.find(p), s.find(b));
            let ls = s.least_solution();
            assert_eq!(ls.get(pr), &[csrc], "covariant flow, {config:?}");
            assert_eq!(ls.get(br), &[c2src], "contravariant flow, {config:?}");
        }
    }

    #[test]
    fn constructor_mismatch_is_recorded_not_fatal() {
        let mut s = Solver::new(SolverConfig::if_online());
        let c = s.register_nullary("c");
        let d = s.register_nullary("d");
        let (csrc, dsnk) = (s.term(c, vec![]), s.term(d, vec![]));
        let x = s.fresh_var();
        s.add(csrc, x);
        s.add(x, dsnk);
        s.solve();
        assert_eq!(s.inconsistencies().len(), 1);
        assert!(matches!(s.inconsistencies()[0], Inconsistency::ConstructorMismatch { .. }));
        // Resolution continued: the source still reached x.
        assert_eq!(s.sources_of(x).len(), 1);
    }

    #[test]
    fn zero_and_one_are_trivial_bounds() {
        let mut s = Solver::new(SolverConfig::if_online());
        let x = s.fresh_var();
        s.add(SetExpr::Zero, x);
        s.add(x, SetExpr::One);
        s.solve();
        assert!(s.inconsistencies().is_empty());
        assert_eq!(s.stats().work, 0, "no edges at all");
    }

    #[test]
    fn one_into_constructed_sink_is_inconsistent() {
        let mut s = Solver::new(SolverConfig::sf_plain());
        let c = s.register_nullary("c");
        let snk = s.term(c, vec![]);
        let x = s.fresh_var();
        s.add(SetExpr::One, x);
        s.add(x, snk);
        s.solve();
        assert_eq!(s.inconsistencies().len(), 1);
        assert!(matches!(s.inconsistencies()[0], Inconsistency::OneInTerm { .. }));
    }

    #[test]
    fn source_into_zero_sink_is_inconsistent() {
        let mut s = Solver::new(SolverConfig::sf_plain());
        let c = s.register_nullary("c");
        let src = s.term(c, vec![]);
        let x = s.fresh_var();
        s.add(src, x);
        s.add(x, SetExpr::Zero);
        s.solve();
        assert_eq!(s.inconsistencies().len(), 1);
        assert!(matches!(s.inconsistencies()[0], Inconsistency::NonEmptyInZero { .. }));
    }

    /// A two-cycle collapses under online elimination in both forms.
    #[test]
    fn two_cycle_collapses_online() {
        for config in [SolverConfig::sf_online(), SolverConfig::if_online()] {
            let mut s = Solver::new(config);
            let (x, y) = (s.fresh_var(), s.fresh_var());
            s.add(x, y);
            s.add(y, x);
            s.solve();
            assert_eq!(s.find(x), s.find(y), "{config:?}");
            assert_eq!(s.stats().vars_eliminated, 1, "{config:?}");
            assert_eq!(s.stats().cycles_collapsed, 1, "{config:?}");
        }
    }

    /// Without elimination the cycle persists but solutions agree.
    #[test]
    fn two_cycle_without_elimination_keeps_nodes() {
        for config in [SolverConfig::sf_plain(), SolverConfig::if_plain()] {
            let mut s = Solver::new(config);
            let c = s.register_nullary("c");
            let src = s.term(c, vec![]);
            let (x, y) = (s.fresh_var(), s.fresh_var());
            s.add(x, y);
            s.add(y, x);
            s.add(src, x);
            s.solve();
            assert_ne!(s.find(x), s.find(y));
            assert_eq!(s.stats().vars_eliminated, 0);
            let (xr, yr) = (s.find(x), s.find(y));
            let ls = s.least_solution();
            assert_eq!(ls.get(xr), &[src], "{config:?}");
            assert_eq!(ls.get(yr), &[src], "{config:?}");
        }
    }

    /// The paper's Figure 4 example: whether the full 3-cycle is caught
    /// depends on edge insertion order, but it is a theorem that inductive
    /// form exposes at least a *two*-cycle for every non-trivial SCC — so
    /// online elimination always eliminates at least one variable, for every
    /// insertion order and every variable order.
    #[test]
    fn if_online_eliminates_part_of_every_scc() {
        // All 6 insertion orders of the 3-cycle edges.
        let perms: Vec<Vec<usize>> = vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ];
        for perm in perms {
            for seed in 0..8u64 {
                let mut s = Solver::new(
                    SolverConfig::if_online().with_order(OrderPolicy::Random { seed }),
                );
                let vs = [s.fresh_var(), s.fresh_var(), s.fresh_var()];
                let edges = [(0, 1), (1, 2), (2, 0)];
                for &i in &perm {
                    let (a, b) = edges[i];
                    s.add(vs[a], vs[b]);
                }
                s.solve();
                assert!(
                    s.stats().vars_eliminated >= 1,
                    "perm {perm:?} seed {seed}: no part of the SCC was eliminated"
                );
            }
        }
    }

    #[test]
    fn work_counts_redundant_additions() {
        let mut s = Solver::new(SolverConfig::sf_plain());
        let (x, y) = (s.fresh_var(), s.fresh_var());
        s.add(x, y);
        s.add(x, y);
        s.solve();
        assert_eq!(s.stats().work, 2);
        assert_eq!(s.stats().redundant, 1);
        assert_eq!(s.stats().new_edges(), 1);
    }

    #[test]
    fn census_counts_final_edges() {
        let mut s = Solver::new(SolverConfig::sf_plain());
        let c = s.register_nullary("c");
        let src = s.term(c, vec![]);
        let (x, y, z) = (s.fresh_var(), s.fresh_var(), s.fresh_var());
        s.add(src, x);
        s.add(x, y);
        s.add(y, z);
        s.solve();
        let census = s.census();
        // Edges: src⋯→x, src⋯→y, src⋯→z (propagated), x→y, y→z.
        assert_eq!(census.src_edges, 3);
        assert_eq!(census.var_var_edges, 2);
        assert_eq!(census.total_edges(), 5);
        let counts = s.node_counts();
        assert_eq!(counts.live_vars, 3);
        assert_eq!(counts.sources, 1);
        assert_eq!(counts.sinks, 0);
        assert_eq!(counts.total(), 4);
    }

    #[test]
    fn atomize_skips_closure() {
        let mut s = Solver::new(SolverConfig::sf_plain());
        let c = s.register_nullary("c");
        let src = s.term(c, vec![]);
        let (x, y) = (s.fresh_var(), s.fresh_var());
        s.add(src, x);
        s.add(x, y);
        s.atomize();
        let census = s.census();
        assert_eq!(census.src_edges, 1, "source not propagated");
        assert_eq!(census.var_var_edges, 1);
    }

    #[test]
    fn scc_partition_matches_cycles() {
        let mut s = Solver::new(SolverConfig::if_plain().with_log(true));
        let vs: Vec<Var> = (0..4).map(|_| s.fresh_var()).collect();
        s.add(vs[0], vs[1]);
        s.add(vs[1], vs[2]);
        s.add(vs[2], vs[0]);
        s.add(vs[2], vs[3]);
        s.solve();
        let p = s.scc_partition();
        assert_eq!(p.rep_of(0), 0);
        assert_eq!(p.rep_of(1), 0);
        assert_eq!(p.rep_of(2), 0);
        assert_eq!(p.rep_of(3), 3);
        assert_eq!(p.scc_stats().vars_in_cycles, 3);
    }

    /// Oracle pre-aliasing produces identical solutions with zero cycles.
    #[test]
    fn oracle_run_avoids_cycles_and_agrees() {
        // First run: converge with logging.
        let gen = |s: &mut Solver| {
            let c = s.register_nullary("c");
            let src = s.term(c, vec![]);
            let vs: Vec<Var> = (0..5).map(|_| s.fresh_var()).collect();
            s.add(src, vs[0]);
            s.add(vs[0], vs[1]);
            s.add(vs[1], vs[2]);
            s.add(vs[2], vs[0]); // 3-cycle
            s.add(vs[2], vs[3]);
            s.add(vs[3], vs[4]);
            (src, vs)
        };
        let mut first = Solver::new(SolverConfig::if_online());
        let _ = gen(&mut first);
        first.solve();
        let partition = first.scc_partition();
        assert_eq!(partition.eliminated(), 2);

        for base in [SolverConfig::sf_plain(), SolverConfig::if_plain()] {
            let mut oracle = Solver::with_oracle(base, partition.clone());
            let (src, vs) = gen(&mut oracle);
            oracle.solve();
            assert_eq!(oracle.stats().oracle_aliased, 2);
            // All cycle members are literally the same node.
            assert_eq!(oracle.find(vs[0]), oracle.find(vs[2]));
            let end = oracle.find(vs[4]);
            let ls = oracle.least_solution();
            assert_eq!(ls.get(end), &[src], "{base:?}");
        }
    }

    #[test]
    fn solve_limited_bails_out() {
        let mut s = Solver::new(SolverConfig::sf_plain());
        // A chain with many sources: work exceeds the tiny limit.
        let c = s.register_nullary("c");
        let vs: Vec<Var> = (0..20).map(|_| s.fresh_var()).collect();
        for i in 0..19 {
            s.add(vs[i], vs[i + 1]);
        }
        for i in 0..10 {
            let t = s.term(c, vec![]);
            let _ = t;
            s.add(t, vs[i % 3]);
        }
        assert!(!s.solve_limited(5));
        // Finishing afterwards is allowed.
        assert!(s.solve_limited(u64::MAX));
    }

    #[test]
    fn display_round_trips_structure() {
        let mut s = Solver::new(SolverConfig::if_online());
        let r = s.register_con(
            "ref",
            vec![Variance::Covariant, Variance::Covariant, Variance::Contravariant],
        );
        let x = s.fresh_var();
        let t = s.term(r, vec![SetExpr::One, x.into(), x.into()]);
        assert_eq!(s.display(t.into()), "ref(1, X0, X0)");
    }
}

#[cfg(test)]
mod periodic_tests {
    use super::*;

    fn chain_with_cycle(config: SolverConfig) -> Solver {
        let mut s = Solver::new(config);
        let c = s.register_nullary("c");
        let src = s.term(c, vec![]);
        let vs: Vec<Var> = (0..30).map(|_| s.fresh_var()).collect();
        for i in 0..29 {
            s.add(vs[i], vs[i + 1]);
        }
        s.add(vs[29], vs[0]); // one big cycle
        s.add(src, vs[0]);
        s.solve();
        s
    }

    #[test]
    fn periodic_collapses_full_sccs() {
        let config = SolverConfig {
            cycle_elim: CycleElim::Periodic { interval: 16 },
            ..SolverConfig::if_plain()
        };
        let mut s = chain_with_cycle(config);
        // Every periodic pass is exhaustive, so the 30-cycle fully collapses.
        assert_eq!(s.stats().vars_eliminated, 29);
        let rep = s.find(Var::new(0));
        for i in 1..30 {
            assert_eq!(s.find(Var::new(i)), rep);
        }
    }

    #[test]
    fn periodic_agrees_with_online_solutions() {
        let configs = [
            SolverConfig::if_online(),
            SolverConfig {
                cycle_elim: CycleElim::Periodic { interval: 8 },
                ..SolverConfig::if_plain()
            },
            SolverConfig {
                cycle_elim: CycleElim::Periodic { interval: 1000 },
                ..SolverConfig::sf_plain()
            },
        ];
        let mut results = Vec::new();
        for config in configs {
            let mut s = chain_with_cycle(config);
            let v = s.find(Var::new(15));
            let ls = s.least_solution();
            results.push(ls.get(v).to_vec());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn periodic_interval_zero_is_saturated_to_one() {
        let config = SolverConfig {
            cycle_elim: CycleElim::Periodic { interval: 0 },
            ..SolverConfig::if_plain()
        };
        let s = chain_with_cycle(config);
        assert_eq!(s.stats().vars_eliminated, 29);
    }

    #[test]
    fn atomize_skips_periodic_passes() {
        let config = SolverConfig {
            cycle_elim: CycleElim::Periodic { interval: 1 },
            ..SolverConfig::if_plain()
        };
        let mut s = Solver::new(config);
        let (x, y) = (s.fresh_var(), s.fresh_var());
        s.add(x, y);
        s.add(y, x);
        s.atomize();
        assert_eq!(s.stats().vars_eliminated, 0, "no elimination during atomize");
    }
}

#[cfg(test)]
mod incremental_tests {
    use super::*;
    use crate::cycle::ChainDir;

    /// Constraints may be added and solved incrementally; later solves see
    /// the closure of everything so far.
    #[test]
    fn incremental_adds_resolve_against_existing_closure() {
        for config in [SolverConfig::sf_plain(), SolverConfig::if_online()] {
            let mut s = Solver::new(config);
            let c = s.register_nullary("c");
            let src = s.term(c, vec![]);
            let (x, y) = (s.fresh_var(), s.fresh_var());
            s.add(src, x);
            s.add(x, y);
            s.solve();
            // Second batch: a new variable downstream of the closed graph.
            let z = s.fresh_var();
            s.add(y, z);
            s.solve();
            let zr = s.find(z);
            let ls = s.least_solution();
            assert_eq!(ls.get(zr), &[src], "{config:?}");
        }
    }

    /// A later batch can close a cycle with an earlier one; online
    /// elimination still catches it.
    #[test]
    fn incremental_cycle_across_batches_collapses() {
        let mut s = Solver::new(SolverConfig::if_online());
        let (x, y) = (s.fresh_var(), s.fresh_var());
        s.add(x, y);
        s.solve();
        s.add(y, x);
        s.solve();
        assert_eq!(s.find(x), s.find(y));
        assert_eq!(s.stats().vars_eliminated, 1);
    }

    /// `chain_reach` measures the decreasing-chain reachability directly.
    #[test]
    fn chain_reach_counts_decreasing_walks() {
        let mut s =
            Solver::new(SolverConfig::if_plain().with_order(OrderPolicy::Creation));
        let vs: Vec<Var> = (0..4).map(|_| s.fresh_var()).collect();
        // Pred edges 0⋯→1⋯→2⋯→3 (creation order): from v3 the decreasing
        // pred walk reaches 2, 1, 0; from v0 nothing.
        s.add(vs[0], vs[1]);
        s.add(vs[1], vs[2]);
        s.add(vs[2], vs[3]);
        s.solve();
        let (mean, max) = s.chain_reach(ChainDir::Pred);
        assert_eq!(max, 3);
        // 0 + 1 + 2 + 3 reachable over 4 nodes = 1.5 mean.
        assert!((mean - 1.5).abs() < 1e-9, "mean {mean}");
        let (succ_mean, _) = s.chain_reach(ChainDir::Succ);
        assert_eq!(succ_mean, 0.0, "no succ edges under creation order here");
    }

    /// Solving twice without new constraints is a no-op.
    #[test]
    fn solve_is_idempotent() {
        let mut s = Solver::new(SolverConfig::if_online());
        let (x, y) = (s.fresh_var(), s.fresh_var());
        s.add(x, y);
        s.solve();
        let work = s.stats().work;
        s.solve();
        assert_eq!(s.stats().work, work);
    }
}

#[cfg(test)]
mod prov_tests {
    use super::*;
    use bane_util::SplitMix64;

    const N: usize = 40;

    /// Feeds an identical random constraint stream (dense enough to collapse
    /// cycles mid-solve, plus a source to make the least solution
    /// non-trivial) to one solver, in several incremental waves.
    fn run_one(config: SolverConfig, seed: u64) -> (Solver, Vec<Var>) {
        let mut s = Solver::new(config);
        let c = s.register_nullary("c");
        let src = s.term(c, vec![]);
        let vs: Vec<Var> = (0..N).map(|_| s.fresh_var()).collect();
        let mut rng = SplitMix64::new(seed);
        for wave in 0..4 {
            if wave == 0 {
                s.add(src, vs[0]);
            }
            for _ in 0..60 {
                let a = vs[rng.next_below(N as u64) as usize];
                let b = vs[rng.next_below(N as u64) as usize];
                s.add(a, b);
            }
            s.solve();
        }
        (s, vs)
    }

    /// Provenance tracking must not change a single observable: the side
    /// table is pure bookkeeping, and the compaction it disables is
    /// observable-neutral by the graph module's contract.
    #[test]
    fn provenance_tracking_is_observable_neutral() {
        for config in [SolverConfig::sf_online(), SolverConfig::if_online()] {
            for seed in [0xBEEF, 7] {
                let (mut plain, vs) = run_one(config, seed);
                let mut tracked = Solver::new(config);
                tracked.enable_provenance();
                // Replay run_one's generation against the tracked solver,
                // tagging each wave as its own group.
                let c = tracked.register_nullary("c");
                let src = tracked.term(c, vec![]);
                let tvs: Vec<Var> = (0..N).map(|_| tracked.fresh_var()).collect();
                let mut rng = SplitMix64::new(seed);
                for wave in 0u32..4 {
                    tracked.set_current_group(Some(wave));
                    if wave == 0 {
                        tracked.add(src, tvs[0]);
                    }
                    for _ in 0..60 {
                        let a = tvs[rng.next_below(N as u64) as usize];
                        let b = tvs[rng.next_below(N as u64) as usize];
                        tracked.add(a, b);
                    }
                    tracked.solve();
                }
                assert_eq!(plain.stats(), tracked.stats(), "{config:?} seed {seed:#x}");
                assert_eq!(plain.census(), tracked.census(), "{config:?} seed {seed:#x}");
                let (lp, lt) = (plain.least_solution(), tracked.least_solution());
                for &v in &vs {
                    let (a, b) = (plain.find(v), tracked.find(v));
                    assert_eq!(a, b, "{config:?} seed {seed:#x}");
                    assert_eq!(lp.get(a), lt.get(b), "{config:?} seed {seed:#x}");
                }
            }
        }
    }

    /// Retract one group, re-inject the survivors under repair mode, and the
    /// least solution equals a from-scratch solve of the survivors.
    #[test]
    fn retract_and_repair_matches_scratch_sets() {
        for config in [SolverConfig::sf_online(), SolverConfig::if_online()] {
            let mut s = Solver::new(config);
            s.enable_provenance();
            let c = s.register_nullary("c");
            let d = s.register_nullary("d");
            let (csrc, dsrc) = (s.term(c, vec![]), s.term(d, vec![]));
            let vs: Vec<Var> = (0..6).map(|_| s.fresh_var()).collect();
            // Group 0: c ⊆ v0 ⊆ v1 ⊆ v2. Group 1: d ⊆ v3 ⊆ v4 ⊆ v5 plus a
            // bridge v2 ⊆ v3 (acyclic, so no collapse depends on group 1).
            let g0: Vec<(SetExpr, SetExpr)> = vec![(csrc.into(), vs[0].into()),
                          (vs[0].into(), vs[1].into()), (vs[1].into(), vs[2].into())];
            let g1: Vec<(SetExpr, SetExpr)> = vec![(dsrc.into(), vs[3].into()),
                          (vs[3].into(), vs[4].into()), (vs[4].into(), vs[5].into()),
                          (vs[2].into(), vs[3].into())];
            s.set_current_group(Some(0));
            for &(l, r) in &g0 {
                s.add(l, r);
            }
            s.set_current_group(Some(1));
            for &(l, r) in &g1 {
                s.add(l, r);
            }
            s.set_current_group(None);
            s.solve();
            let before = s.least_solution();
            assert_eq!(before.get(s.find(vs[5])), &[csrc, dsrc], "{config:?}");

            let removed = s.retract_groups(&[1]).expect("no collapse depends on group 1");
            assert!(removed >= g1.len() as u64, "{config:?}: at least the atoms go");
            s.set_current_group(Some(0));
            for &(l, r) in &g0 {
                s.add(l, r);
            }
            s.set_current_group(None);
            s.repair_refire();
            s.solve();

            let mut scratch = Solver::new(config);
            let c2 = scratch.register_nullary("c");
            let d2 = scratch.register_nullary("d");
            let (c2src, _) = (scratch.term(c2, vec![]), scratch.term(d2, vec![]));
            let svs: Vec<Var> = (0..6).map(|_| scratch.fresh_var()).collect();
            assert_eq!(c2src, csrc);
            for &(l, r) in &g0 {
                scratch.add(l, r);
            }
            scratch.solve();
            let (lr, ls) = (s.least_solution(), scratch.least_solution());
            for (i, &v) in vs.iter().enumerate() {
                assert_eq!(s.find(v), scratch.find(svs[i]), "{config:?} v{i}");
                let rep = s.find(v);
                assert_eq!(lr.get(rep), ls.get(rep), "{config:?} v{i}");
            }
        }
    }

    /// A collapse caused by a group's own edge must be flagged as
    /// invalidated when that group is retracted — the forwarding cannot be
    /// locally undone, so callers have to replay.
    #[test]
    fn collapse_justification_blocks_fast_retraction() {
        let mut s = Solver::new(SolverConfig::if_online());
        s.enable_provenance();
        let (x, y) = (s.fresh_var(), s.fresh_var());
        s.set_current_group(Some(0));
        s.add(x, y);
        s.set_current_group(Some(1));
        s.add(y, x); // closes the cycle: the collapse is justified by {0, 1}
        s.set_current_group(None);
        s.solve();
        assert_eq!(s.find(x), s.find(y), "cycle collapsed");
        assert_eq!(s.collapse_log_len(), 1);
        let census = s.census();
        assert_eq!(s.retract_groups(&[0]), None);
        assert_eq!(s.retract_groups(&[1]), None);
        assert_eq!(s.census(), census, "a refused retraction deletes nothing");
        assert_eq!(s.retract_groups(&[2]), Some(0), "uninvolved group");
    }

    /// Offline (periodic) collapses cannot attribute their cycles and must
    /// log the `TOP` justification: every retraction then falls back.
    #[test]
    fn periodic_collapse_logs_top_justification() {
        let mut config = SolverConfig::if_online();
        config.cycle_elim = CycleElim::Periodic { interval: 1 };
        let mut s = Solver::new(config);
        s.enable_provenance();
        let (x, y) = (s.fresh_var(), s.fresh_var());
        s.set_current_group(Some(0));
        s.add(x, y);
        s.add(y, x);
        s.set_current_group(None);
        s.solve();
        assert_eq!(s.find(x), s.find(y), "offline pass collapsed the cycle");
        assert!(
            s.retract_groups(&[99]).is_none(),
            "TOP justification intersects every retraction"
        );
    }
}

#[cfg(test)]
mod reset_tests {
    use super::*;

    /// Asserts that every piece of derived state is what
    /// [`Solver::from_problem`] builds, including the parts no solve can
    /// observe: the worklist's discharged tail, the collapse count, the term
    /// sets and the provenance table.
    fn assert_like_new(s: &Solver) {
        assert_eq!(s.stats, Stats::default());
        assert!(s.errors.is_empty());
        assert!(s.pending.queue.is_empty());
        assert_eq!(s.pending.tail, 0, "discharged tail");
        assert_eq!(s.fwd.collapsed_count(), 0, "collapse count");
        assert_eq!(s.fwd.len(), s.graph.len());
        for i in 0..s.graph.len() {
            let v = Var::new(i);
            assert!(s.fwd.is_rep(v), "{v:?} still forwarded");
            let node = s.graph.node(v);
            assert!(node.pred_vars().is_empty() && node.succ_vars().is_empty());
            assert!(node.pred_srcs().is_empty() && node.succ_snks().is_empty());
        }
        assert!(s.source_terms.is_empty() && s.sink_terms.is_empty(), "term sets");
        assert!(s.varvar_log.is_empty() && s.union_log.is_empty());
        let (var_rows, cols, src_rows, srcs) = s.csr.raw_parts();
        assert!(var_rows.is_empty() && cols.is_empty() && src_rows.is_empty() && srcs.is_empty());
        if let Some(p) = &s.prov {
            assert_eq!(p.table.len(), 2, "provenance table holds only the sentinels");
            assert!(p.pending_prov.is_empty());
            assert_eq!((p.current_group, p.current), (ProvTable::EMPTY, ProvTable::EMPTY));
            assert_eq!(p.nodes.len(), s.graph.len());
            for m in &p.nodes {
                assert!(m.pred_vars.is_empty() && m.succ_vars.is_empty());
                assert!(m.pred_srcs.is_empty() && m.succ_snks.is_empty());
            }
            assert!(p.collapse_log.is_empty() && p.error_prov.is_empty() && p.damaged.is_empty());
            assert!(p.next_justification.is_none());
        }
        #[cfg(feature = "obs")]
        {
            assert!(s.graph.promotions().is_empty());
            assert_eq!(s.promotions_reported, 0);
            let rec = s.obs.as_deref().expect("obs on");
            assert!(rec.counters().nonzero().is_empty());
            assert_eq!(rec.events_emitted(), 0);
        }
    }

    /// Registers `c`, `g(co, contra)` and four variables, and feeds, in
    /// this order: `g(v0, 0) ⊆ g(v1, 0)` (whose contravariant argument
    /// `0 ⊆ 0` is discharged) and `c ⊆ v3` as group 1, then
    /// `c ⊆ v0 ⊆ v1 ⊆ v0` (a cycle) as group 0.
    fn fed(config: SolverConfig, prov: bool) -> Solver {
        let mut s = Solver::new(config);
        if prov {
            s.enable_provenance();
        }
        #[cfg(feature = "obs")]
        s.enable_obs();
        let c = s.register_nullary("c");
        let g = s.register_con("g", vec![Variance::Covariant, Variance::Contravariant]);
        let csrc = s.term(c, vec![]);
        let vs: Vec<Var> = (0..4).map(|_| s.fresh_var()).collect();
        let gx = s.term(g, vec![vs[0].into(), SetExpr::Zero]);
        let gy = s.term(g, vec![vs[1].into(), SetExpr::Zero]);
        s.set_current_group(Some(1));
        s.add(gx, gy);
        s.add(csrc, vs[3]);
        s.set_current_group(Some(0));
        s.add(csrc, vs[0]);
        s.add(vs[0], vs[1]);
        s.add(vs[1], vs[0]);
        s.set_current_group(None);
        s
    }

    #[test]
    fn reset_returns_to_a_new_solvers_state() {
        for config in [SolverConfig::if_online(), SolverConfig::sf_online()] {
            for prov in [false, true] {
                // Converged, with the cycle collapsed.
                let mut s = fed(config, prov);
                s.solve();
                assert!(s.fwd.collapsed_count() > 0 && !s.source_terms.is_empty());
                s.reset();
                assert_like_new(&s);

                // A bail-out: `g(v0, 0) ⊆ g(v1, 0)` queued `v0 ⊆ v1` and
                // discharged `0 ⊆ 0`, then `c ⊆ v3` went over the limit.
                let mut s = fed(config, prov);
                assert!(!s.solve_limited(0));
                assert!(!s.pending.queue.is_empty() && s.pending.tail > 0, "{:?}", s.pending);
                s.reset();
                assert_like_new(&s);

                // A retraction and repair of the group the collapse does not
                // depend on (provenance only).
                if prov {
                    let mut s = fed(config, prov);
                    s.solve();
                    assert!(s.prov.as_ref().expect("on").table.len() > 2);
                    s.retract_groups(&[1]).expect("group 1 justifies no collapse");
                    s.repair_refire();
                    s.solve();
                    s.reset();
                    assert_like_new(&s);
                }

                // Registrations survive, and the reset solver solves again.
                let (vars, terms, cons) = (s.graph.len(), s.terms.len(), s.cons.len());
                s.reset();
                assert_eq!((s.graph.len(), s.terms.len(), s.cons.len()), (vars, terms, cons));
                assert_eq!(s.provenance_enabled(), prov);
            }
        }
    }

    #[test]
    #[should_panic(expected = "reset does not support oracle solvers")]
    fn reset_panics_on_an_oracle_solver() {
        Solver::with_oracle(SolverConfig::if_online(), Partition::identity(0)).reset();
    }
}
