//! SCC-level-parallel least-solution evaluation.
//!
//! The sequential pass in `bane-core` evaluates equation (1) by walking the
//! canonical variables in increasing order, each set the union of its own
//! sources and its canonical predecessors' already-computed sets. The
//! inductive-form invariant — predecessor edges always decrease the
//! variable order — means the canonical predecessor graph is a DAG, so its
//! **condensation levels** (`level(v) = 1 + max level of v's predecessors`)
//! are independent batches: every variable on a level reads only sets
//! committed on strictly lower levels. [`ParLeast`] evaluates each level's
//! variables in parallel and commits the results in a fixed order, producing
//! a [`LeastSolution`] **byte-identical** to the sequential pass at every
//! thread count (`PartialEq` on `LeastSolution` compares the raw buffers, so
//! the tests pin exactly that).
//!
//! # Why bytes match
//!
//! Each variable's set is canonical — sorted and deduplicated — so its
//! content is independent of the merge structure that produced it. The only
//! layout freedom is *arena order*, and the final relayout step writes sets
//! in the sequential pass's exact commit order (creation order for standard
//! form, increasing variable order for inductive form), including standard
//! form's empty `(k, k)` spans. Identical contents in identical order is
//! identical bytes. The same argument covers the solution-set backends and
//! difference propagation below: they change how a set is *computed*, never
//! what it contains, and the relayout order is untouched.
//!
//! # The CSR read path
//!
//! Before any evaluation, the run freezes the solved graph into a
//! [`CsrSnapshot`] — canonical, self-free, sorted predecessor rows and
//! sorted source rows, laid out in evaluation order. The snapshot is the
//! *same type the sequential pass traverses*, built once on the calling
//! thread: workers never read the live graph or chase a forwarding
//! pointer, they stream flat arrays. This is also what makes the scan
//! trivially safe to share read-only across threads.
//!
//! # Solution-set backends and difference propagation
//!
//! [`ParLeast::run_with`] extends the pass along the two axes of
//! `bane-core`'s [`solset`](bane_core::solset) module (DESIGN.md §4f):
//!
//! - **backend** ([`SolSetKind`]): wide unions (many or large input runs)
//!   can be built in a worker-local sparse bitmap over a hash-consed block
//!   arena instead of iterated pairwise merging — blocks interned while
//!   scanning one level are shared across that level's variables, which is
//!   exactly where near-identical sets cluster. Each worker owns its arena
//!   (inside its `Mutex`ed scratch), so the path needs no cross-thread
//!   synchronization beyond the existing level barriers.
//! - **difference propagation** (`diff`): the evaluator retains the stable
//!   arena, the previous run's rows, and the previous representative map.
//!   A repeated run feeds each still-canonical variable only its new
//!   sources, its new predecessor edges' full sets, and its old
//!   predecessors' *deltas* (fresh elements committed this run), falling
//!   back to a full merge for variables the previous run did not cover.
//!   Monotone growth makes the retained stable sets valid lower bounds, so
//!   the result is byte-identical to a cold run either way.
//!
//! # Scheduling
//!
//! One [`Pool::broadcast`] spans the whole pass; workers meet at a
//! [`Barrier`] twice per level (end of scan, end of commit). Worker results
//! travel through per-worker [`Mutex`] slots — uncontended by construction:
//! each worker locks only its own slot during the scan, and worker 0 drains
//! them during the commit while everyone else waits at the barrier. With
//! `threads == 1` the pass runs inline with no locks, no barriers, and —
//! once warm — no allocations (pinned by `bane-core`'s allocation test).

use bane_core::least::{merge_sorted_dedup, CsrSnapshot, LeastParts, LeastSolution};
use bane_core::solset::{SolSetKind, HYBRID_PROMOTE};
use bane_core::solver::{Form, Solver};
use bane_core::{TermId, Var};
use bane_obs::{Counter, Phase, Recorder};
use bane_util::idx::Idx;
use bane_util::solset::{BlockArena, SparseBitmap};
use std::sync::{Barrier, Mutex, RwLock};

use crate::pool::{chunk_range, Pool};

/// Converts a `TermId` to its bitmap bit.
fn bit(t: TermId) -> u32 {
    t.index() as u32
}

/// Converts a bitmap bit back to a `TermId`.
fn term(b: u32) -> TermId {
    TermId::new(b as usize)
}

/// `out = a \ b` for sorted distinct slices (cleared first).
fn diff_sorted(a: &[TermId], b: &[TermId], out: &mut Vec<TermId>) {
    out.clear();
    let mut j = 0usize;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            out.push(x);
        }
    }
}

/// How one scanned variable's `out` segment is to be committed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ScanKind {
    /// The segment is the variable's complete set.
    Full,
    /// The segment is only the fresh elements (delta) against the retained
    /// stable set.
    Incr,
}

/// The shared evaluation state: the arena sets are committed into, plus the
/// span of every canonical variable already evaluated.
///
/// Between runs it holds the last run's solution, compacted by the closing
/// relayout. A warm run (difference propagation or revalidation) keeps the
/// spans of variables it does not recompute and appends the rest;
/// difference propagation additionally accumulates per-variable *delta*
/// spans that same-run successors merge instead of the full sets.
#[derive(Clone, Debug, Default)]
struct WorkBufs {
    arena: Vec<TermId>,
    /// Indexed by raw variable index; empty until the variable's level
    /// commits (and forever, for collapsed variables and empty sets).
    spans: Vec<(u32, u32)>,
    /// This run's fresh elements per variable (sorted, distinct).
    delta_arena: Vec<TermId>,
    /// Indexed by raw variable index, into `delta_arena`.
    delta_spans: Vec<(u32, u32)>,
    /// Variables whose whole set is this run's delta (full merges): their
    /// successors read `spans` instead of `delta_spans`.
    delta_full: Vec<bool>,
    /// Commit-side merge buffer (old stable ∪ delta → new stable).
    merge_scratch: Vec<TermId>,
    /// Pass accounting, aggregated at commit time (`ls.delta.*` counters).
    stat_full: u64,
    stat_incr: u64,
    stat_in: u64,
    stat_fresh: u64,
}

/// Union-building scratch: the pairwise ping-pong buffers plus the
/// worker-local bitmap path (its block arena is cleared per level, so
/// blocks interned for one variable are shared by the level's others).
#[derive(Clone, Debug, Default)]
struct MergeScratch {
    acc: Vec<TermId>,
    buf_b: Vec<TermId>,
    bounds_a: Vec<(u32, u32)>,
    bounds_b: Vec<(u32, u32)>,
    map: SparseBitmap,
    map_arena: BlockArena,
}

/// One worker's private scratch: scan output plus merge buffers.
///
/// Everything is reused across levels and across runs, so a warmed
/// single-threaded pass allocates nothing.
#[derive(Clone, Debug, Default)]
struct WorkerState {
    /// Concatenated result segments of this worker's chunk, in chunk order.
    out: Vec<TermId>,
    /// Per-chunk-item range into `out` (empty when the segment is empty).
    bounds: Vec<(u32, u32)>,
    /// Per-chunk-item commit mode.
    kinds: Vec<ScanKind>,
    /// Full-set input runs (spans into the stable arena).
    runs: Vec<(u32, u32)>,
    /// Incremental input runs: `(start, end, is_delta)` — spans into the
    /// delta arena when `is_delta`, the stable arena otherwise.
    in_runs: Vec<(u32, u32, bool)>,
    /// New sources this run (`srcs \ prev_srcs`).
    src_delta: Vec<TermId>,
    /// The merged incremental contribution before subtracting the stable
    /// set.
    dset: Vec<TermId>,
    /// Elements fed into this chunk's merges (drained at commit).
    elems_scanned: u64,
    merge: MergeScratch,
}

/// Unions `total` sorted, distinct input runs into `out` (appended).
///
/// `use_bitmap` routes wide unions through the worker-local sparse bitmap —
/// same bytes, different engine: blocks are OR'd word-wise and interned, so
/// repeated payloads across a level's variables are built once.
fn union_runs<'a>(
    total: usize,
    input: impl Fn(usize) -> &'a [TermId],
    use_bitmap: bool,
    m: &mut MergeScratch,
    out: &mut Vec<TermId>,
) {
    match total {
        0 => {}
        1 => out.extend_from_slice(input(0)),
        2 if !use_bitmap => merge_sorted_dedup(input(0), input(1), out),
        _ if use_bitmap => {
            m.map.clear();
            for i in 0..total {
                m.map.insert_sorted(&mut m.map_arena, input(i).iter().map(|&t| bit(t)), None);
            }
            m.map.for_each(&m.map_arena, |b| out.push(term(b)));
        }
        _ => {
            // Iterated pairwise merging, same shape (and same shared
            // primitive) as the sequential pass.
            m.acc.clear();
            m.bounds_a.clear();
            let mut i = 0;
            while i < total {
                let run_start = m.acc.len() as u32;
                if i + 1 < total {
                    merge_sorted_dedup(input(i), input(i + 1), &mut m.acc);
                    i += 2;
                } else {
                    m.acc.extend_from_slice(input(i));
                    i += 1;
                }
                m.bounds_a.push((run_start, m.acc.len() as u32));
            }
            while m.bounds_a.len() > 1 {
                m.buf_b.clear();
                m.bounds_b.clear();
                let mut i = 0;
                while i < m.bounds_a.len() {
                    let run_start = m.buf_b.len() as u32;
                    if i + 1 < m.bounds_a.len() {
                        let (s1, e1) = m.bounds_a[i];
                        let (s2, e2) = m.bounds_a[i + 1];
                        merge_sorted_dedup(
                            &m.acc[s1 as usize..e1 as usize],
                            &m.acc[s2 as usize..e2 as usize],
                            &mut m.buf_b,
                        );
                        i += 2;
                    } else {
                        let (s, e) = m.bounds_a[i];
                        m.buf_b.extend_from_slice(&m.acc[s as usize..e as usize]);
                        i += 1;
                    }
                    m.bounds_b.push((run_start, m.buf_b.len() as u32));
                }
                std::mem::swap(&mut m.acc, &mut m.buf_b);
                std::mem::swap(&mut m.bounds_a, &mut m.bounds_b);
            }
            out.extend_from_slice(&m.acc);
        }
    }
}

/// Whether a union of `input_len` total elements should run on the bitmap
/// path under `kind`.
fn wants_bitmap(kind: SolSetKind, input_len: usize) -> bool {
    match kind {
        SolSetKind::SortedSpan => false,
        SolSetKind::Bitmap => true,
        SolSetKind::Hybrid => input_len > HYBRID_PROMOTE,
    }
}

/// A reusable SCC-level-parallel least-solution evaluator.
///
/// Feed it [`LeastParts`] (borrowed from a solved [`Solver`]) via
/// [`run`](ParLeast::run) — or
/// [`run_with`](ParLeast::run_with) to select a solution-set backend and
/// difference propagation — then read the result with
/// [`solution`](ParLeast::solution). The output is byte-identical to
/// [`Solver::least_solution`] at every thread count, backend, and diff
/// setting.
///
/// # Examples
///
/// ```
/// use bane_core::solver::{Solver, SolverConfig};
/// use bane_par::ParLeast;
///
/// let mut s = Solver::new(SolverConfig::if_online());
/// let c = s.register_nullary("c");
/// let src = s.term(c, vec![]);
/// let (x, y) = (s.fresh_var(), s.fresh_var());
/// s.add(src, x);
/// s.add(x, y);
/// s.solve();
///
/// let mut par = ParLeast::new();
/// par.run(&s.least_parts(), 4, None);
/// let ls = par.solution();
/// assert_eq!(ls, s.least_solution()); // byte-identical
/// assert_eq!(ls.get(s.find(y)), &[src]);
/// ```
#[derive(Debug, Default)]
pub struct ParLeast {
    rep: Vec<Var>,
    layout: Vec<Var>,
    levels: Vec<u32>,
    /// Per-level counters, reused as bucket-fill cursors.
    level_counts: Vec<u32>,
    /// Per-level `(start, end)` into `level_order`.
    level_ranges: Vec<(u32, u32)>,
    /// `layout` stably bucketed by level: within a level, variables keep
    /// their layout order, so concatenating worker chunks in worker order
    /// reproduces it exactly.
    level_order: Vec<Var>,
    /// The frozen, canonicalized CSR view every scan reads. Built once per
    /// run on the calling thread; workers never touch the graph or the
    /// forwarding pointers after that.
    csr: CsrSnapshot,
    work: WorkBufs,
    workers: Vec<Mutex<WorkerState>>,
    /// The relayout target, swapped with the working arena and spans after
    /// every run (see [`relayout`](ParLeast::relayout)).
    relayout_arena: Vec<TermId>,
    relayout_spans: Vec<(u32, u32)>,
    /// The previous run's rows, representative map, and validity — the
    /// difference-propagation baseline (see the module docs).
    prev_csr: CsrSnapshot,
    prev_rep: Vec<Var>,
    prev_valid: bool,
    /// Whether a variable may be evaluated incrementally this run (it was
    /// canonical — hence evaluated — in the previous run).
    incr_ok: Vec<bool>,
    /// Revalidation dirty flags, indexed by raw variable index.
    dirty: Vec<bool>,
    /// The dirty subset of `level_order`, same bucketing.
    dirty_order: Vec<Var>,
    /// Per-level `(start, end)` into `dirty_order`.
    dirty_ranges: Vec<(u32, u32)>,
}

/// What a [`ParLeast::run_revalidate`] pass actually did: how much of the
/// retained least solution survived the change and how localized the
/// recomputation was. `bane-serve` feeds these figures into the
/// `serve.dirty.*` / `serve.reuse.hit` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RevalidateOutcome {
    /// Condensation levels in the current schedule.
    pub total_levels: usize,
    /// Levels containing at least one dirty (re-evaluated) variable.
    pub dirty_levels: usize,
    /// Canonical variables whose set was recomputed.
    pub dirty_vars: usize,
    /// Canonical variables whose retained span was reused verbatim.
    pub reused_vars: usize,
    /// Whether a fast-apply session abandoned in-place repair and replayed
    /// the canonical sequence instead. Always `false` from
    /// [`ParLeast::run_revalidate`] itself — `bane-serve` sets it when its
    /// two-tier apply falls back (see `docs/INCREMENTAL.md`).
    pub fell_back: bool,
}

impl ParLeast {
    /// A fresh evaluator with no buffers warmed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluates the least solution of `parts` on `threads` workers
    /// (clamped to at least 1), reusing all internal buffers.
    ///
    /// Equivalent to [`run_with`](ParLeast::run_with) under the default
    /// sorted-span backend with difference propagation off — the legacy
    /// reference path.
    ///
    /// With a recorder, the whole pass is timed under
    /// [`Phase::ParLeast`] and the `ls.*` counters are set to match the
    /// sequential pass's accounting.
    pub fn run(&mut self, parts: &LeastParts<'_>, threads: usize, rec: Option<&Recorder>) {
        self.run_with(parts, threads, SolSetKind::SortedSpan, false, rec);
    }

    /// [`run`](ParLeast::run) with an explicit solution-set backend and
    /// difference propagation.
    ///
    /// `kind` selects the union engine for wide merges (see
    /// [`SolSetKind`]); `diff` enables cross-run difference propagation —
    /// the first run (or a run after `diff == false`) evaluates everything,
    /// subsequent `diff` runs over a *grown* version of the same system
    /// re-merge only deltas. Output bytes are identical in every
    /// combination.
    pub fn run_with(
        &mut self,
        parts: &LeastParts<'_>,
        threads: usize,
        kind: SolSetKind,
        diff: bool,
        rec: Option<&Recorder>,
    ) {
        let t0 = rec.map(|_| std::time::Instant::now());
        let threads = threads.max(1);
        let parts = *parts;
        self.build_schedule(&parts, rec);

        while self.workers.len() < threads {
            self.workers.push(Mutex::new(WorkerState::default()));
        }

        let n = self.rep.len();
        let diff_active = diff && self.prev_valid;
        self.incr_ok.clear();
        if diff_active {
            // Keep the stable arena and spans: unchanged variables stay on
            // their old spans, changed ones get fresh appends. A variable
            // may go incremental iff it was canonical (hence evaluated) in
            // the baseline run. Canonicality only decreases, so a stale
            // `true` for a since-collapsed variable is harmless — it left
            // the layout.
            self.incr_ok.resize(n, false);
            for i in 0..n.min(self.prev_rep.len()) {
                if self.prev_rep[i] == Var::new(i) {
                    self.incr_ok[i] = true;
                }
            }
            self.work.spans.resize(n, (0, 0));
        } else {
            self.work.arena.clear();
            self.work.spans.clear();
            self.work.spans.resize(n, (0, 0));
        }
        self.work.delta_arena.clear();
        self.work.delta_spans.clear();
        self.work.delta_spans.resize(n, (0, 0));
        self.work.delta_full.clear();
        self.work.delta_full.resize(n, false);
        self.work.stat_full = 0;
        self.work.stat_incr = 0;
        self.work.stat_in = 0;
        self.work.stat_fresh = 0;

        if threads == 1 {
            // Inline fast path: no locks, no barriers, no allocation once
            // the buffers are warm.
            let prev = if diff_active { Some(&self.prev_csr) } else { None };
            let st = self.workers[0].get_mut().expect("worker mutex poisoned");
            for &(ls, le) in &self.level_ranges {
                let level = &self.level_order[ls as usize..le as usize];
                scan_chunk(parts.form, kind, &self.csr, prev, &self.incr_ok, &self.work, level, st);
                if diff_active {
                    commit_chunk_diff(&mut self.work, level, st);
                } else {
                    commit_chunk(&mut self.work, level, st);
                }
            }
        } else {
            let work = RwLock::new(std::mem::take(&mut self.work));
            let barrier = Barrier::new(threads);
            let level_ranges = &self.level_ranges;
            let level_order = &self.level_order;
            let workers = &self.workers;
            let csr = &self.csr;
            let prev = if diff_active { Some(&self.prev_csr) } else { None };
            let incr_ok = &self.incr_ok;
            let form = parts.form;
            Pool::new(threads).broadcast(|w| {
                for &(ls, le) in level_ranges {
                    let level = &level_order[ls as usize..le as usize];
                    {
                        // Scan: every worker reads the frozen lower-level
                        // spans and writes only its own slot.
                        let frozen = work.read().expect("work lock poisoned");
                        let mut st = workers[w].lock().expect("worker mutex poisoned");
                        let (cs, ce) = chunk_range(level.len(), threads, w);
                        scan_chunk(form, kind, csr, prev, incr_ok, &frozen, &level[cs..ce], &mut st);
                    }
                    barrier.wait();
                    if w == 0 {
                        // Commit: worker 0 appends every chunk in worker
                        // order, reproducing the level's layout order.
                        let mut open = work.write().expect("work lock poisoned");
                        for (ww, worker) in workers.iter().enumerate().take(threads) {
                            let st = worker.lock().expect("worker mutex poisoned");
                            let (cs, ce) = chunk_range(level.len(), threads, ww);
                            if diff_active {
                                commit_chunk_diff(&mut open, &level[cs..ce], &st);
                            } else {
                                commit_chunk(&mut open, &level[cs..ce], &st);
                            }
                        }
                    }
                    barrier.wait();
                }
            });
            self.work = work.into_inner().expect("work lock poisoned");
        }

        self.relayout(parts.form);

        // Record this run as the next diff baseline: the stable arena plus
        // these rows and representatives are exactly what an incremental
        // follow-up needs.
        self.prev_csr.copy_from(&self.csr);
        self.prev_rep.clone_from(&self.rep);
        self.prev_valid = true;

        if let Some(rec) = rec {
            let set_vars = self.work.spans.iter().filter(|(s, e)| e > s).count();
            rec.set(Counter::LsSetVars, set_vars as u64);
            rec.set(Counter::LsEntries, self.work.arena.len() as u64);
            if diff_active {
                rec.add(Counter::LsDeltaFull, self.work.stat_full);
                rec.add(Counter::LsDeltaIncr, self.work.stat_incr);
                rec.add(Counter::LsDeltaIn, self.work.stat_in);
                rec.add(Counter::LsDeltaFresh, self.work.stat_fresh);
            }
            if let Some(t0) = t0 {
                rec.record_ns(Phase::ParLeast, t0.elapsed().as_nanos() as u64);
            }
        }
    }

    /// Relayouts the working sets into the sequential pass's exact arena
    /// order, then makes that compact copy the working state. Standard form
    /// commits a span for every canonical variable (empty sets get the
    /// degenerate `(k, k)`); inductive form leaves empty sets at `(0, 0)`.
    ///
    /// The relayout is the arena's compaction: the old working buffers
    /// (retained spans plus any dead appends) become the next relayout's
    /// target, so after every run the working arena holds exactly the live
    /// solution, at no copy beyond the relayout itself.
    fn relayout(&mut self, form: Form) {
        self.relayout_arena.clear();
        self.relayout_spans.clear();
        self.relayout_spans.resize(self.rep.len(), (0, 0));
        for &v in &self.layout {
            let (s, e) = self.work.spans[v.index()];
            if e > s || matches!(form, Form::Standard) {
                let start = u32::try_from(self.relayout_arena.len())
                    .expect("least-solution arena overflow");
                self.relayout_arena.extend_from_slice(&self.work.arena[s as usize..e as usize]);
                self.relayout_spans[v.index()] = (start, start + (e - s));
            }
        }
        std::mem::swap(&mut self.work.arena, &mut self.relayout_arena);
        std::mem::swap(&mut self.work.spans, &mut self.relayout_spans);
    }

    /// Builds the evaluation schedule for `parts`: representative map,
    /// layout order, frozen CSR rows, condensation levels, and the stable
    /// per-level buckets. Shared by [`run_with`](ParLeast::run_with) and
    /// [`run_revalidate`](ParLeast::run_revalidate).
    fn build_schedule(&mut self, parts: &LeastParts<'_>, rec: Option<&Recorder>) {
        parts.rep_map_into(&mut self.rep);
        parts.layout_order_into(&self.rep, &mut self.layout);
        // Freeze the canonicalized read path once, on the calling thread:
        // after this, neither the levels sweep nor any worker's scan reads
        // the graph or chases a forwarding pointer.
        let csr_t0 = rec.map(|_| std::time::Instant::now());
        self.csr.build(parts, &self.layout);
        if let (Some(rec), Some(t0)) = (rec, csr_t0) {
            rec.record_ns(Phase::CsrBuild, t0.elapsed().as_nanos() as u64);
            rec.add(Counter::CsrBuilds, 1);
        }
        let max_level = parts.levels_into(&self.csr, &self.layout, &mut self.levels);
        let nlevels = if self.layout.is_empty() { 0 } else { max_level as usize + 1 };

        // Stable counting sort of `layout` into per-level buckets.
        self.level_ranges.clear();
        self.level_counts.clear();
        self.level_counts.resize(nlevels, 0);
        for &v in &self.layout {
            self.level_counts[self.levels[v.index()] as usize] += 1;
        }
        let mut start = 0u32;
        for l in 0..nlevels {
            let count = self.level_counts[l];
            self.level_ranges.push((start, start + count));
            self.level_counts[l] = start;
            start += count;
        }
        self.level_order.clear();
        self.level_order.resize(self.layout.len(), Var::new(0));
        for &v in &self.layout {
            let cursor = &mut self.level_counts[self.levels[v.index()] as usize];
            self.level_order[*cursor as usize] = v;
            *cursor += 1;
        }
    }

    /// Re-evaluates the least solution of `parts` against the **retained
    /// baseline** of the previous run, recomputing only variables whose
    /// result can actually have changed — the `bane-serve` re-solve kernel
    /// (docs/INCREMENTAL.md).
    ///
    /// A variable is **dirty** when the baseline cannot vouch for it: no
    /// baseline at all, not canonical in the baseline run, a source or
    /// canonical-predecessor row that differs from the baseline's, or any
    /// dirty predecessor (propagated along the condensation order). Every
    /// other variable's retained arena span is provably byte-identical to
    /// what a full pass would produce — same row, and (inductively)
    /// identical predecessor sets — so it is reused untouched. Dirty
    /// variables get a full per-level recompute (never incremental), which
    /// is what keeps this path sound under **non-monotone** change: unlike
    /// difference propagation, nothing assumes the old set is a lower bound,
    /// so constraint *removal* (a replayed fresh solver) is handled by the
    /// same code path as growth.
    ///
    /// The output (via [`solution`](ParLeast::solution)) is byte-identical
    /// to a cold [`Solver::least_solution`] of the same solved system at
    /// every thread count and backend. The returned [`RevalidateOutcome`]
    /// reports how localized the pass was; an unchanged system reports zero
    /// dirty variables and zero dirty levels.
    ///
    /// Retained arena note: a warm pass starts from the previous pass's
    /// relayout output, so reused spans point into a compact copy of the
    /// last solution. Dirty sets append after it, and the closing relayout
    /// compacts again ([`arena_entries`]), so a long-lived session's memory
    /// tracks its live solution, not the number of passes it has run.
    ///
    /// [`arena_entries`]: ParLeast::arena_entries
    pub fn run_revalidate(
        &mut self,
        parts: &LeastParts<'_>,
        threads: usize,
        kind: SolSetKind,
        rec: Option<&Recorder>,
    ) -> RevalidateOutcome {
        let t0 = rec.map(|_| std::time::Instant::now());
        let threads = threads.max(1);
        let parts = *parts;
        self.build_schedule(&parts, rec);

        while self.workers.len() < threads {
            self.workers.push(Mutex::new(WorkerState::default()));
        }

        let n = self.rep.len();
        let cold = !self.prev_valid;
        if cold {
            // No baseline to preserve: start from a compact arena.
            self.work.arena.clear();
            self.work.spans.clear();
        }
        self.work.spans.resize(n, (0, 0));
        // The incremental (diff) machinery is inert on this path: every
        // dirty variable is a full recompute.
        self.incr_ok.clear();
        self.work.delta_spans.clear();
        self.work.delta_spans.resize(n, (0, 0));
        self.work.delta_full.clear();
        self.work.delta_full.resize(n, false);

        // Dirty sweep, in layout order so predecessor flags are final
        // before their successors test them (predecessors always precede
        // their successors in the layout).
        self.dirty.clear();
        self.dirty.resize(n, false);
        let prev_rows = self.prev_csr.rows();
        let mut dirty_vars = 0usize;
        for &v in &self.layout {
            let i = v.index();
            // Standard form degenerates gracefully: its pred rows are empty
            // in both snapshots, so only the source-row compare can fire.
            let d = cold
                || i >= prev_rows
                || self.prev_rep.get(i).copied() != Some(v)
                || self.csr.srcs(v) != self.prev_csr.srcs(v)
                || self.csr.preds(v) != self.prev_csr.preds(v)
                || self.csr.preds(v).iter().any(|&u| self.dirty[u.index()]);
            if d {
                self.dirty[i] = true;
                // The old span (if any) is stale; an empty recompute must
                // not leave it behind.
                self.work.spans[i] = (0, 0);
                dirty_vars += 1;
            }
        }

        // Bucket the dirty variables by level, preserving layout order
        // within each level exactly as `level_order` does.
        self.dirty_order.clear();
        self.dirty_ranges.clear();
        let mut dirty_levels = 0usize;
        for &(ls, le) in &self.level_ranges {
            let start = self.dirty_order.len() as u32;
            for &v in &self.level_order[ls as usize..le as usize] {
                if self.dirty[v.index()] {
                    self.dirty_order.push(v);
                }
            }
            let end = self.dirty_order.len() as u32;
            self.dirty_ranges.push((start, end));
            if end > start {
                dirty_levels += 1;
            }
        }

        if dirty_vars > 0 {
            if threads == 1 {
                let st = self.workers[0].get_mut().expect("worker mutex poisoned");
                for &(ds, de) in &self.dirty_ranges {
                    let level = &self.dirty_order[ds as usize..de as usize];
                    if level.is_empty() {
                        continue;
                    }
                    scan_chunk(parts.form, kind, &self.csr, None, &self.incr_ok, &self.work, level, st);
                    commit_chunk(&mut self.work, level, st);
                }
            } else {
                let work = RwLock::new(std::mem::take(&mut self.work));
                let barrier = Barrier::new(threads);
                let dirty_ranges = &self.dirty_ranges;
                let dirty_order = &self.dirty_order;
                let workers = &self.workers;
                let csr = &self.csr;
                let incr_ok = &self.incr_ok;
                let form = parts.form;
                Pool::new(threads).broadcast(|w| {
                    for &(ds, de) in dirty_ranges {
                        let level = &dirty_order[ds as usize..de as usize];
                        if level.is_empty() {
                            continue;
                        }
                        {
                            let frozen = work.read().expect("work lock poisoned");
                            let mut st = workers[w].lock().expect("worker mutex poisoned");
                            let (cs, ce) = chunk_range(level.len(), threads, w);
                            scan_chunk(form, kind, csr, None, incr_ok, &frozen, &level[cs..ce], &mut st);
                        }
                        barrier.wait();
                        if w == 0 {
                            let mut open = work.write().expect("work lock poisoned");
                            for (ww, worker) in workers.iter().enumerate().take(threads) {
                                let st = worker.lock().expect("worker mutex poisoned");
                                let (cs, ce) = chunk_range(level.len(), threads, ww);
                                commit_chunk(&mut open, &level[cs..ce], &st);
                            }
                        }
                        barrier.wait();
                    }
                });
                self.work = work.into_inner().expect("work lock poisoned");
            }
        }

        // Reused and recomputed spans alike.
        self.relayout(parts.form);

        self.prev_csr.copy_from(&self.csr);
        self.prev_rep.clone_from(&self.rep);
        self.prev_valid = true;

        if let Some(rec) = rec {
            let set_vars = self.work.spans.iter().filter(|(s, e)| e > s).count();
            rec.set(Counter::LsSetVars, set_vars as u64);
            rec.set(Counter::LsEntries, self.work.arena.len() as u64);
            if let Some(t0) = t0 {
                rec.record_ns(Phase::ParLeast, t0.elapsed().as_nanos() as u64);
            }
        }

        RevalidateOutcome {
            total_levels: self.level_ranges.len(),
            dirty_levels,
            dirty_vars,
            reused_vars: self.layout.len() - dirty_vars,
            fell_back: false,
        }
    }

    /// The solution computed by the last [`run`](ParLeast::run), as an owned
    /// [`LeastSolution`] (byte-identical to the sequential pass's).
    ///
    /// # Panics
    ///
    /// Panics (via the constructor's debug assertions) if called before any
    /// `run`.
    pub fn solution(&self) -> LeastSolution {
        LeastSolution::from_parts(
            self.rep.clone(),
            self.work.arena.clone(),
            self.work.spans.clone(),
        )
    }

    /// The CSR the last run froze and evaluated: the graph half of what
    /// `bane-snap` serializes next to [`solution`](ParLeast::solution),
    /// identical to the one [`Solver::least_solution`] builds for the same
    /// solved system.
    pub fn csr(&self) -> &CsrSnapshot {
        &self.csr
    }

    /// Entries in the working arena sets are committed into. Every run ends
    /// by compacting it to exactly [`solution`](ParLeast::solution)'s
    /// entries; during a [`run_revalidate`](ParLeast::run_revalidate) it
    /// holds the previous solution plus the recomputed sets. Either way it
    /// stays proportional to the live solution however many runs a session
    /// makes.
    pub fn arena_entries(&self) -> usize {
        self.work.arena.len()
    }

    /// Number of condensation levels the last run evaluated.
    pub fn level_count(&self) -> usize {
        self.level_ranges.len()
    }
}

/// Evaluates `vars` (a slice of one level, in layout order) against the
/// frozen lower-level `work` state, appending each result segment to
/// `st.out`.
///
/// Reads only the frozen [`CsrSnapshot`] (canonical, sorted, distinct rows)
/// and the committed spans — never the live graph — so the whole scan is
/// pointer-chase-free streaming over flat arrays. With `prev` (difference
/// propagation), a variable covered by the baseline run emits only its
/// delta; everything else emits its full set.
#[allow(clippy::too_many_arguments)]
fn scan_chunk(
    form: Form,
    kind: SolSetKind,
    csr: &CsrSnapshot,
    prev: Option<&CsrSnapshot>,
    incr_ok: &[bool],
    work: &WorkBufs,
    vars: &[Var],
    st: &mut WorkerState,
) {
    let WorkerState {
        out,
        bounds,
        kinds,
        runs,
        in_runs,
        src_delta,
        dset,
        elems_scanned,
        merge,
    } = st;
    out.clear();
    bounds.clear();
    kinds.clear();
    *elems_scanned = 0;
    // Per-level arena reset: blocks interned for one variable are shared by
    // the rest of the level (the block-sharing locality the backends bank
    // on), without unbounded growth across levels.
    merge.map_arena.clear();
    for &v in vars {
        let srcs = csr.srcs(v);
        let start = out.len() as u32;
        let incremental = match prev {
            Some(_) => incr_ok.get(v.index()).copied().unwrap_or(false),
            None => false,
        };
        if !incremental {
            match form {
                Form::Standard => {
                    // Standard form's sets are exactly the frozen source
                    // rows.
                    out.extend_from_slice(srcs);
                    *elems_scanned += srcs.len() as u64;
                }
                Form::Inductive => {
                    runs.clear();
                    for &u in csr.preds(v) {
                        let span = work.spans[u.index()];
                        if span.1 > span.0 {
                            runs.push(span);
                        }
                    }
                    let runs: &[(u32, u32)] = runs;
                    match (srcs.is_empty(), runs) {
                        (true, []) => {}
                        (false, []) => {
                            out.extend_from_slice(srcs);
                            *elems_scanned += srcs.len() as u64;
                        }
                        (true, &[(s, e)]) => {
                            out.extend_from_slice(&work.arena[s as usize..e as usize]);
                            *elems_scanned += (e - s) as u64;
                        }
                        _ => {
                            let extra = usize::from(!srcs.is_empty());
                            let total = runs.len() + extra;
                            let input_len = srcs.len()
                                + runs.iter().map(|&(s, e)| (e - s) as usize).sum::<usize>();
                            *elems_scanned += input_len as u64;
                            let input = |i: usize| -> &[TermId] {
                                if i < extra {
                                    srcs
                                } else {
                                    let (s, e) = runs[i - extra];
                                    &work.arena[s as usize..e as usize]
                                }
                            };
                            union_runs(total, input, wants_bitmap(kind, input_len), merge, out);
                        }
                    }
                }
            }
            kinds.push(ScanKind::Full);
        } else {
            let prev = prev.expect("incremental scan without a baseline");
            // New sources: anything the baseline's row lacked. Unchanged
            // rows — the overwhelmingly common case — are detected by a
            // vectorized slice compare instead of the element-wise diff
            // walk.
            let prev_srcs = prev.srcs(v);
            if srcs == prev_srcs {
                src_delta.clear();
            } else {
                diff_sorted(srcs, prev_srcs, src_delta);
            }
            // Predecessor contributions: old predecessors feed their delta
            // (or their full set, if they themselves were fully
            // re-evaluated); predecessors that joined the row feed
            // everything.
            in_runs.clear();
            let old_preds = prev.preds(v);
            let mut op = 0usize;
            for &u in csr.preds(v) {
                while op < old_preds.len() && old_preds[op] < u {
                    op += 1;
                }
                let is_old = op < old_preds.len() && old_preds[op] == u;
                if !is_old || work.delta_full[u.index()] {
                    let (s, e) = work.spans[u.index()];
                    if e > s {
                        in_runs.push((s, e, false));
                    }
                } else {
                    let (s, e) = work.delta_spans[u.index()];
                    if e > s {
                        in_runs.push((s, e, true));
                    }
                }
            }
            let extra = usize::from(!src_delta.is_empty());
            let total = in_runs.len() + extra;
            let input_len = src_delta.len()
                + in_runs.iter().map(|&(s, e, _)| (e - s) as usize).sum::<usize>();
            *elems_scanned += input_len as u64;
            let src_delta: &[TermId] = src_delta;
            let in_runs: &[(u32, u32, bool)] = in_runs;
            let input = |i: usize| -> &[TermId] {
                if i < extra {
                    src_delta
                } else {
                    let (s, e, is_delta) = in_runs[i - extra];
                    if is_delta {
                        &work.delta_arena[s as usize..e as usize]
                    } else {
                        &work.arena[s as usize..e as usize]
                    }
                }
            };
            dset.clear();
            union_runs(total, input, wants_bitmap(kind, input_len), merge, dset);
            // fresh = contribution \ stable: the delta this variable hands
            // its own successors, and all the commit has to merge.
            let (ss, se) = work.spans[v.index()];
            let stable = &work.arena[ss as usize..se as usize];
            for &x in dset.iter() {
                if stable.binary_search(&x).is_err() {
                    out.push(x);
                }
            }
            kinds.push(ScanKind::Incr);
        }
        bounds.push((start, out.len() as u32));
    }
}

/// Appends a worker's scanned full sets for `vars` to the shared arena, in
/// chunk order. Deterministic: pure concatenation, no reordering. The
/// non-diff commit path — every segment is a complete set.
fn commit_chunk(work: &mut WorkBufs, vars: &[Var], st: &WorkerState) {
    debug_assert_eq!(st.bounds.len(), vars.len());
    for (i, &v) in vars.iter().enumerate() {
        debug_assert_eq!(st.kinds[i], ScanKind::Full);
        let (s, e) = st.bounds[i];
        if e > s {
            let start =
                u32::try_from(work.arena.len()).expect("least-solution arena overflow");
            work.arena.extend_from_slice(&st.out[s as usize..e as usize]);
            work.spans[v.index()] = (start, start + (e - s));
        }
    }
}

/// The difference-propagation commit: full segments replace the variable's
/// span; incremental segments append their delta and merge it into the
/// retained stable set (skipping untouched variables entirely).
fn commit_chunk_diff(work: &mut WorkBufs, vars: &[Var], st: &WorkerState) {
    debug_assert_eq!(st.bounds.len(), vars.len());
    let WorkBufs {
        arena,
        spans,
        delta_arena,
        delta_spans,
        delta_full,
        merge_scratch,
        stat_full,
        stat_incr,
        stat_in,
        stat_fresh,
    } = work;
    *stat_in += st.elems_scanned;
    for (i, &v) in vars.iter().enumerate() {
        let (s, e) = st.bounds[i];
        match st.kinds[i] {
            ScanKind::Full => {
                *stat_full += 1;
                if e > s {
                    let start =
                        u32::try_from(arena.len()).expect("least-solution arena overflow");
                    arena.extend_from_slice(&st.out[s as usize..e as usize]);
                    spans[v.index()] = (start, start + (e - s));
                } else {
                    spans[v.index()] = (0, 0);
                }
                // The whole set is this run's delta: successors read the
                // span directly instead of a copied delta.
                delta_full[v.index()] = true;
            }
            ScanKind::Incr => {
                *stat_incr += 1;
                if e > s {
                    let fresh = &st.out[s as usize..e as usize];
                    *stat_fresh += fresh.len() as u64;
                    let ds = u32::try_from(delta_arena.len())
                        .expect("least-solution delta overflow");
                    delta_arena.extend_from_slice(fresh);
                    delta_spans[v.index()] = (ds, ds + (e - s));
                    // New stable = old stable ∪ fresh, appended (the old
                    // span is abandoned; a non-diff run compacts the
                    // arena).
                    let (os, oe) = spans[v.index()];
                    merge_scratch.clear();
                    merge_sorted_dedup(
                        &arena[os as usize..oe as usize],
                        fresh,
                        merge_scratch,
                    );
                    let start =
                        u32::try_from(arena.len()).expect("least-solution arena overflow");
                    arena.extend_from_slice(merge_scratch);
                    spans[v.index()] =
                        (start, start + u32::try_from(merge_scratch.len()).unwrap());
                }
                // Empty delta: the stable span (and everything downstream)
                // is untouched.
            }
        }
    }
}

/// One-shot convenience: the least solution of a solved `solver` computed on
/// `threads` workers. Byte-identical to [`Solver::least_solution`].
pub fn least_solution(solver: &Solver, threads: usize) -> LeastSolution {
    let mut par = ParLeast::new();
    par.run(&solver.least_parts(), threads, None);
    par.solution()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bane_core::solver::SolverConfig;
    use bane_util::SplitMix64;

    fn configs() -> [SolverConfig; 4] {
        [
            SolverConfig::sf_plain(),
            SolverConfig::if_plain(),
            SolverConfig::sf_online(),
            SolverConfig::if_online(),
        ]
    }

    /// Random layered constraint systems with cycles and sources; the last
    /// `hold_back` variable-variable edges are returned unfed for
    /// incremental-growth tests.
    fn random_system(config: SolverConfig, seed: u64, hold_back: usize) -> (Solver, Vec<(Var, Var)>) {
        let mut rng = SplitMix64::new(seed);
        let mut s = Solver::new(config);
        let n = 60;
        let vs: Vec<Var> = (0..n).map(|_| s.fresh_var()).collect();
        let mut ts = Vec::new();
        for k in 0..8 {
            let c = s.register_nullary(format!("c{k}"));
            ts.push(s.term(c, vec![]));
        }
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.next_bool(0.05) {
                    edges.push((vs[i], vs[j]));
                }
            }
        }
        // A few back edges to form cycles.
        for _ in 0..6 {
            let a = rng.next_below(n as u64) as usize;
            let b = rng.next_below(n as u64) as usize;
            edges.push((vs[a], vs[b]));
        }
        let held = edges.split_off(edges.len().saturating_sub(hold_back));
        for &(a, b) in &edges {
            s.add(a, b);
        }
        for (k, &t) in ts.iter().enumerate() {
            s.add(t, vs[(k * 7) % n]);
        }
        s.solve();
        (s, held)
    }

    fn random_solver(config: SolverConfig, seed: u64) -> Solver {
        random_system(config, seed, 0).0
    }

    #[test]
    fn byte_identical_to_sequential_on_random_systems() {
        for config in configs() {
            for seed in 0..6u64 {
                let mut s = random_solver(config, seed);
                let seq = s.least_solution();
                for threads in [1, 2, 4, 8] {
                    let par = least_solution(&s, threads);
                    assert_eq!(par, seq, "{config:?} seed {seed} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn evaluator_is_reusable_across_runs_and_thread_counts() {
        let mut par = ParLeast::new();
        for seed in [3u64, 4] {
            let mut s = random_solver(SolverConfig::if_online(), seed);
            let seq = s.least_solution();
            for threads in [2, 1, 4] {
                par.run(&s.least_parts(), threads, None);
                assert_eq!(par.solution(), seq, "seed {seed} threads {threads}");
            }
            assert!(par.level_count() >= 1);
        }
    }

    /// Every backend × thread count × diff setting is byte-identical to the
    /// sequential reference, including warm re-runs.
    #[test]
    fn run_with_is_byte_identical_across_backends() {
        for config in configs() {
            for seed in 0..4u64 {
                let mut s = random_solver(config, 0xB0B + seed);
                let seq = s.least_solution();
                for kind in SolSetKind::ALL {
                    for threads in [1, 4] {
                        let mut par = ParLeast::new();
                        for diff in [false, true, true] {
                            par.run_with(&s.least_parts(), threads, kind, diff, None);
                            assert_eq!(
                                par.solution(),
                                seq,
                                "{config:?} seed {seed} {kind:?} threads {threads} diff {diff}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Difference propagation across system growth: feed held-back edges,
    /// re-solve, and the diff run must match a cold sequential reference.
    #[test]
    fn diff_runs_track_system_growth() {
        for config in [SolverConfig::if_online(), SolverConfig::sf_online()] {
            for seed in 0..4u64 {
                for kind in SolSetKind::ALL {
                    for threads in [1, 4] {
                        let (mut s, held) = random_system(config, 0xD1FF + seed, 5);
                        let mut par = ParLeast::new();
                        par.run_with(&s.least_parts(), threads, kind, true, None);
                        assert_eq!(par.solution(), s.least_solution(), "baseline");
                        for &(a, b) in &held {
                            s.add(a, b);
                        }
                        s.solve();
                        par.run_with(&s.least_parts(), threads, kind, true, None);
                        assert_eq!(
                            par.solution(),
                            s.least_solution(),
                            "{config:?} seed {seed} {kind:?} threads {threads} grown"
                        );
                    }
                }
            }
        }
    }

    /// A warm diff run over an unchanged system re-merges nothing.
    #[test]
    fn unchanged_diff_run_is_all_incremental() {
        let mut s = random_solver(SolverConfig::if_online(), 11);
        let seq = s.least_solution();
        let rec = Recorder::new();
        let mut par = ParLeast::new();
        par.run_with(&s.least_parts(), 1, SolSetKind::Bitmap, true, Some(&rec));
        assert_eq!(par.solution(), seq);
        assert_eq!(rec.get(Counter::LsDeltaIncr), 0, "cold run is all full merges");
        par.run_with(&s.least_parts(), 1, SolSetKind::Bitmap, true, Some(&rec));
        assert_eq!(par.solution(), seq);
        assert_eq!(rec.get(Counter::LsDeltaFull), 0, "warm run has no full merges");
        assert_eq!(rec.get(Counter::LsDeltaFresh), 0, "unchanged system yields no fresh elements");
    }

    /// Revalidation from cold, after monotone growth, and over an unchanged
    /// system — byte-identical to the sequential pass in every case, with
    /// the unchanged pass reporting zero dirty work.
    #[test]
    fn revalidate_matches_sequential_across_growth() {
        for config in configs() {
            for seed in 0..3u64 {
                for kind in SolSetKind::ALL {
                    for threads in [1, 2, 4, 8] {
                        let (mut s, held) = random_system(config, 0x5E5E + seed, 4);
                        let mut par = ParLeast::new();
                        let out = par.run_revalidate(&s.least_parts(), threads, kind, None);
                        assert_eq!(par.solution(), s.least_solution(), "cold");
                        assert_eq!(out.reused_vars, 0, "cold pass reuses nothing");

                        // Unchanged system: everything reuses.
                        let out = par.run_revalidate(&s.least_parts(), threads, kind, None);
                        assert_eq!(par.solution(), s.least_solution(), "unchanged");
                        assert_eq!(out.dirty_vars, 0, "{config:?} unchanged is all-clean");
                        assert_eq!(out.dirty_levels, 0);
                        assert_eq!(out.reused_vars, par.layout.len());

                        // Monotone growth through the same live solver.
                        for &(a, b) in &held {
                            s.add(a, b);
                        }
                        s.solve();
                        let out = par.run_revalidate(&s.least_parts(), threads, kind, None);
                        assert_eq!(
                            par.solution(),
                            s.least_solution(),
                            "{config:?} seed {seed} {kind:?} threads {threads} grown"
                        );
                        assert_eq!(out.dirty_vars + out.reused_vars, par.layout.len());
                    }
                }
            }
        }
    }

    /// Non-monotone change: the baseline comes from a *larger* system and
    /// the next pass evaluates a fresh solver missing some of its edges —
    /// exactly the shape of `bane-serve`'s replay path after a removal.
    /// Reused spans must still be byte-correct.
    #[test]
    fn revalidate_survives_constraint_removal_via_fresh_solver() {
        for config in [SolverConfig::if_online(), SolverConfig::sf_online()] {
            for seed in 0..3u64 {
                for kind in SolSetKind::ALL {
                    for threads in [1, 4] {
                        let mut par = ParLeast::new();
                        // Baseline: the full system.
                        let (mut full, _) = random_system(config, 0xDEAD + seed, 0);
                        par.run_revalidate(&full.least_parts(), threads, kind, None);
                        assert_eq!(par.solution(), full.least_solution(), "baseline");

                        // "Removal": rebuild from scratch, holding edges back.
                        let (mut shrunk, _held) = random_system(config, 0xDEAD + seed, 5);
                        let out =
                            par.run_revalidate(&shrunk.least_parts(), threads, kind, None);
                        assert_eq!(
                            par.solution(),
                            shrunk.least_solution(),
                            "{config:?} seed {seed} {kind:?} threads {threads} shrunk"
                        );
                        assert!(out.total_levels >= out.dirty_levels);
                    }
                }
            }
        }
    }

    /// A localized edit must not dirty the whole schedule: grow one held-back
    /// edge deep in a long chain and check that clean levels survive.
    #[test]
    fn revalidate_localizes_dirty_levels_on_chain_edit() {
        let mut s = Solver::new(SolverConfig::if_online());
        let c = s.register_nullary("c");
        let t = s.term(c, vec![]);
        let d = s.register_nullary("d");
        let td = s.term(d, vec![]);
        // Two independent chains; the edit touches only the second.
        let chain_a: Vec<Var> = (0..20).map(|_| s.fresh_var()).collect();
        let chain_b: Vec<Var> = (0..20).map(|_| s.fresh_var()).collect();
        for w in chain_a.windows(2) {
            s.add(w[0], w[1]);
        }
        for w in chain_b.windows(2) {
            s.add(w[0], w[1]);
        }
        s.add(t, chain_a[0]);
        s.add(t, chain_b[0]);
        s.solve();
        let mut par = ParLeast::new();
        par.run_revalidate(&s.least_parts(), 2, SolSetKind::SortedSpan, None);
        assert_eq!(par.solution(), s.least_solution());

        // Edit: a new source lands mid-way down chain B.
        s.add(td, chain_b[10]);
        s.solve();
        let out = par.run_revalidate(&s.least_parts(), 2, SolSetKind::SortedSpan, None);
        assert_eq!(par.solution(), s.least_solution(), "post-edit bytes");
        assert!(
            out.dirty_levels < out.total_levels,
            "edit at level 10 must leave lower levels clean: {out:?}"
        );
        assert!(out.reused_vars > out.dirty_vars, "most of the system is clean: {out:?}");
    }

    /// Interleaving diff runs and revalidation runs on one evaluator keeps
    /// the shared baseline coherent.
    #[test]
    fn revalidate_interoperates_with_diff_runs() {
        let (mut s, held) = random_system(SolverConfig::if_online(), 0x1A7E, 6);
        let mut par = ParLeast::new();
        par.run_with(&s.least_parts(), 2, SolSetKind::Hybrid, true, None);
        assert_eq!(par.solution(), s.least_solution());
        for &(a, b) in &held[..3] {
            s.add(a, b);
        }
        s.solve();
        let out = par.run_revalidate(&s.least_parts(), 2, SolSetKind::Hybrid, None);
        assert_eq!(par.solution(), s.least_solution(), "revalidate after diff baseline");
        assert_eq!(out.dirty_vars + out.reused_vars, par.layout.len());
        for &(a, b) in &held[3..] {
            s.add(a, b);
        }
        s.solve();
        par.run_with(&s.least_parts(), 2, SolSetKind::Hybrid, true, None);
        assert_eq!(par.solution(), s.least_solution(), "diff after revalidate baseline");
    }

    #[test]
    fn empty_system_yields_empty_solution() {
        let mut s = Solver::new(SolverConfig::if_online());
        s.solve();
        let par = least_solution(&s, 4);
        assert_eq!(par, s.least_solution());
        assert!(par.is_empty());
    }

    #[test]
    fn records_observability_counters() {
        let mut s = random_solver(SolverConfig::if_online(), 1);
        let seq = s.least_solution();
        let rec = Recorder::new();
        let mut par = ParLeast::new();
        par.run(&s.least_parts(), 2, Some(&rec));
        assert_eq!(par.solution(), seq);
        assert_eq!(rec.get(Counter::LsEntries), seq.total_entries() as u64);
        let report = rec.report("par-least");
        assert!(report.phases.iter().any(|p| p.phase == Phase::ParLeast.name()));
    }
}
