//! Least-solution computation (Section 2.4, equation (1)).
//!
//! Standard form makes the least solution explicit: after closure, every
//! source reaching a variable sits in its predecessor list. Inductive form
//! does not — but because every variable-variable predecessor edge points
//! from a smaller-ordered variable to a larger one, the least solution can be
//! computed in a single pass over the variables in increasing order:
//!
//! ```text
//! LS(Y) = { c(…) | c(…) ⋯→ Y }  ∪  ⋃ { LS(X) | X ⋯→ Y }
//! ```
//!
//! As in the paper, every reported inductive-form timing *includes* this
//! pass (the harness times `solve()` + `least_solution()` together).
//!
//! # One pass, two callers
//!
//! [`LeastPass`] is that pass, and the only one in the workspace.
//! [`Solver::least_solution`] runs it cold. A long-lived caller (a
//! `bane-serve` session) runs it through a [`Revalidator`], which keeps the
//! previous pass's solution and [`CsrSnapshot`] as a *baseline* and reuses
//! every span the change cannot have touched.
//!
//! The pass first freezes the solved graph into a [`CsrSnapshot`]
//! (canonical, sorted rows in layout order), then walks the canonical
//! variables in **layout order** — creation order for standard form,
//! increasing variable order for inductive form — and appends each set to a
//! fresh arena in that order:
//!
//! - a **clean** variable copies its span from the baseline. Clean means: it
//!   was canonical in the baseline, its source and predecessor rows equal
//!   the baseline CSR's, and none of its predecessors is dirty;
//! - every other variable is **dirty** and is merged from its own sources
//!   and its predecessors' sets, which sit earlier in the new arena, through
//!   the one pairwise [`merge_sorted_dedup`] kernel.
//!
//! With no baseline every variable is dirty, which is the cold pass. The
//! same sweep computes each variable's condensation level (`0` with no
//! canonical predecessor, else `1 + max` over its predecessors) for the
//! [`RevalidateOutcome`] figures.
//!
//! # Why a baseline pass is byte-identical to the cold pass
//!
//! Each set is canonical — sorted and deduplicated — so its content does not
//! depend on how it was produced. A clean variable's baseline span holds
//! exactly what a cold pass would compute: its rows are unchanged and,
//! inductively along the layout, so are its predecessors' sets. The arena
//! layout is fixed by the layout order, which does not depend on the
//! baseline, and the span rule is the same on both paths (standard form
//! appends a span for every canonical variable, including the degenerate
//! empty `(k, k)`; inductive form leaves an empty set at `(0, 0)`).
//! Identical contents in identical order is identical bytes, which is what
//! `LeastSolution`'s `PartialEq` (a raw-buffer comparison) pins in the
//! tests. Nothing assumes the baseline is a lower bound, so constraint
//! removal (a replayed fresh solver) takes the same path as growth.

use bane_util::idx::Idx;
use crate::expr::{TermId, Var};
use crate::forward::Forwarding;
use crate::graph::Graph;
use crate::order::VarOrder;
use crate::solver::{Form, Solver};

/// Borrowed view of exactly the solver state the least-solution pass reads.
///
/// Obtained from [`Solver::least_parts`], so a caller that owns its own
/// [`Revalidator`] can run the pass while the solver stays borrowed
/// read-only.
#[derive(Clone, Copy)]
pub struct LeastParts<'a> {
    /// The solved constraint graph.
    pub graph: &'a Graph,
    /// Forwarding pointers for collapsed variables.
    pub fwd: &'a Forwarding,
    /// The variable order (drives the inductive-form evaluation order).
    pub order: &'a VarOrder,
    /// Which graph form the solver ran under.
    pub form: Form,
}

impl LeastParts<'_> {
    /// Fills `out` with the canonical representative of every variable
    /// (`out[i] = find(i)`), reusing `out`'s capacity.
    pub fn rep_map_into(&self, out: &mut Vec<Var>) {
        let n = self.graph.len();
        out.clear();
        out.reserve(n);
        for i in 0..n {
            out.push(self.fwd.find_const(Var::new(i)));
        }
    }

    /// Fills `out` with the canonical representatives in **layout order** —
    /// the exact order the sequential pass commits spans to the arena:
    /// creation order for standard form, increasing variable order for
    /// inductive form. `rep` must come from
    /// [`rep_map_into`](LeastParts::rep_map_into).
    ///
    /// Reuses `out`'s capacity and sorts in place, so a warmed caller
    /// performs no allocation.
    pub fn layout_order_into(&self, rep: &[Var], out: &mut Vec<Var>) {
        out.clear();
        out.extend((0..rep.len()).map(Var::new).filter(|&v| rep[v.index()] == v));
        if let Form::Inductive = self.form {
            // Keys are unique per variable, so the unstable sort is
            // deterministic and matches the sequential pass's stable sort.
            out.sort_unstable_by_key(|&v| self.order.key(v));
        }
    }
}

/// A frozen, canonicalized compressed-sparse-row view of the post-closure
/// graph — the read path of the least-solution kernel.
///
/// The adjacency lists the solver closes over are built for *mutation*:
/// entries are raw (possibly stale under collapsed representatives), may
/// alias after canonicalization, and sources are unsorted. The least pass
/// is pure *traversal*, and would otherwise pay the canonicalization tax per
/// read: one `find` per predecessor entry plus a sort of every source list,
/// per variable, per pass. `CsrSnapshot` pays it exactly once: a single `build`
/// freezes, for every canonical variable,
///
/// - its canonical variable predecessors (forwarded through `find`,
///   self-edges from collapses dropped, sorted, deduplicated), and
/// - its source terms (sorted, deduplicated),
///
/// into two flat column arrays indexed by per-variable rows. Rows are laid
/// out in **evaluation order** — the exact order the pass visits variables
/// — so the kernel sweep reads `cols`/`srcs` strictly front to back
/// (prefetch-friendly), and within a row columns are sorted ascending.
///
/// The rows are also what a [`Revalidator`] compares against its baseline
/// to decide which variables are clean.
///
/// All buffers are reused across builds; a warmed snapshot re-freezes a
/// same-shaped graph without allocating (pinned by the workspace
/// allocation test through a warmed [`Revalidator`]).
#[derive(Clone, Debug, Default)]
pub struct CsrSnapshot {
    /// `(start, end)` into `cols` per raw variable index (`(0, 0)` for
    /// collapsed variables and for standard form, which never reads
    /// predecessor variables).
    var_rows: Vec<(u32, u32)>,
    /// Canonical, self-free, sorted, deduplicated predecessor variables.
    cols: Vec<Var>,
    /// `(start, end)` into `srcs` per raw variable index.
    src_rows: Vec<(u32, u32)>,
    /// Sorted, deduplicated source terms.
    srcs: Vec<TermId>,
}

/// Sorts `v[start..]` and removes adjacent duplicates in place, truncating
/// `v` to the deduplicated length. The scratch-free primitive `CsrSnapshot`
/// canonicalizes each freshly appended row with.
fn sort_dedup_tail<T: Ord + Copy>(v: &mut Vec<T>, start: usize) {
    v[start..].sort_unstable();
    let mut w = start;
    for r in start..v.len() {
        if w == start || v[w - 1] != v[r] {
            v[w] = v[r];
            w += 1;
        }
    }
    v.truncate(w);
}

impl CsrSnapshot {
    /// An empty snapshot with no buffers warmed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Freezes `parts` into CSR form. `layout` must be the evaluation order
    /// from [`LeastParts::layout_order_into`]; rows are written in that
    /// order so the evaluating sweep streams the column arrays.
    ///
    /// Reuses all internal buffers (no allocation once warm).
    pub fn build(&mut self, parts: &LeastParts<'_>, layout: &[Var]) {
        let n = parts.graph.len();
        self.var_rows.clear();
        self.var_rows.resize(n, (0, 0));
        self.src_rows.clear();
        self.src_rows.resize(n, (0, 0));
        self.cols.clear();
        self.srcs.clear();
        for &v in layout {
            let node = parts.graph.node(v);
            let start = self.srcs.len();
            self.srcs.extend_from_slice(node.pred_srcs());
            sort_dedup_tail(&mut self.srcs, start);
            let end = u32::try_from(self.srcs.len()).expect("csr source column overflow");
            self.src_rows[v.index()] = (start as u32, end);
            if let Form::Standard = parts.form {
                // Standard form reads sets straight off the source rows;
                // predecessor variables never feed equation (1) there.
                continue;
            }
            let start = self.cols.len();
            for &raw in node.pred_vars() {
                let u = parts.fwd.find_const(raw);
                if u == v {
                    continue; // stale self edge from a collapse
                }
                debug_assert!(
                    parts.order.lt(u, v),
                    "inductive invariant: pred edges decrease the order"
                );
                self.cols.push(u);
            }
            sort_dedup_tail(&mut self.cols, start);
            let end = u32::try_from(self.cols.len()).expect("csr column overflow");
            self.var_rows[v.index()] = (start as u32, end);
        }
    }

    /// The canonical predecessor variables of `v`: sorted, distinct, never
    /// containing `v` itself. Empty for standard form.
    pub fn preds(&self, v: Var) -> &[Var] {
        let (s, e) = self.var_rows[v.index()];
        &self.cols[s as usize..e as usize]
    }

    /// The source terms reaching `v` directly: sorted and distinct.
    pub fn srcs(&self, v: Var) -> &[TermId] {
        let (s, e) = self.src_rows[v.index()];
        &self.srcs[s as usize..e as usize]
    }

    /// Exposes the raw CSR buffers as
    /// `(var_rows, cols, src_rows, srcs)` — the serialization surface used
    /// by `bane-snap`'s on-disk writer. Row `(start, end)` pairs index into
    /// the matching column array exactly as [`preds`](CsrSnapshot::preds)
    /// and [`srcs`](CsrSnapshot::srcs) read them.
    #[allow(clippy::type_complexity)]
    pub fn raw_parts(&self) -> (&[(u32, u32)], &[Var], &[(u32, u32)], &[TermId]) {
        (&self.var_rows, &self.cols, &self.src_rows, &self.srcs)
    }

    /// Total canonical predecessor entries across all rows.
    pub fn pred_entries(&self) -> usize {
        self.cols.len()
    }

    /// Total source entries across all rows.
    pub fn src_entries(&self) -> usize {
        self.srcs.len()
    }
}

/// Size ratio past which [`merge_sorted_dedup`] gallops through the larger
/// input instead of walking it element by element.
const GALLOP_RATIO: usize = 16;

/// Merges two sorted, internally distinct slices onto the end of `out`,
/// dropping duplicates across the two.
///
/// This is the primitive [`LeastPass`] builds every set union from.
///
/// The common least-solution merge is heavily skewed — a handful of fresh
/// sources against a large accumulated set — so disjoint ranges are
/// detected up front (one bulk copy each) and a size ratio past
/// `GALLOP_RATIO` switches to exponential search over the larger side:
/// `O(small · log large)` comparisons plus bulk copies, instead of walking
/// every element of the large side. Every path produces the same bytes as
/// the naive two-pointer walk (debug-asserted on the galloping path).
pub fn merge_sorted_dedup(a: &[TermId], b: &[TermId], out: &mut Vec<TermId>) {
    out.reserve(a.len() + b.len());
    if a.is_empty() {
        out.extend_from_slice(b);
        return;
    }
    if b.is_empty() {
        out.extend_from_slice(a);
        return;
    }
    // Disjoint ranges: pure concatenation (strict `<` keeps an equal
    // boundary element on the dedup path below).
    if a[a.len() - 1] < b[0] {
        out.extend_from_slice(a);
        out.extend_from_slice(b);
        return;
    }
    if b[b.len() - 1] < a[0] {
        out.extend_from_slice(b);
        out.extend_from_slice(a);
        return;
    }
    if a.len() >= b.len().saturating_mul(GALLOP_RATIO) {
        gallop_merge(b, a, out);
    } else if b.len() >= a.len().saturating_mul(GALLOP_RATIO) {
        gallop_merge(a, b, out);
    } else {
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
    }
}

/// Skewed-size merge: for each element of `small`, exponential search
/// locates its insertion point in the unconsumed tail of `big`, and the run
/// of smaller `big` elements is bulk-copied.
fn gallop_merge(small: &[TermId], big: &[TermId], out: &mut Vec<TermId>) {
    #[cfg(debug_assertions)]
    let checked_from = out.len();
    let mut cur = 0usize;
    for &s in small {
        let pos = cur + gallop_lower_bound(&big[cur..], s);
        out.extend_from_slice(&big[cur..pos]);
        out.push(s);
        cur = pos;
        if cur < big.len() && big[cur] == s {
            cur += 1; // shared element: emitted once
        }
    }
    out.extend_from_slice(&big[cur..]);
    #[cfg(debug_assertions)]
    {
        // The fast path must be indistinguishable from the naive walk.
        // Replayed in lockstep (no scratch buffer) so the check itself
        // stays allocation-free — this primitive runs inside the
        // zero-steady-state-allocation envelope even in debug builds.
        let produced = &out[checked_from..];
        let mut k = 0;
        let mut check = |t: TermId| {
            debug_assert!(produced.get(k) == Some(&t), "gallop merge diverged at {k}");
            k += 1;
        };
        let (mut i, mut j) = (0, 0);
        while i < small.len() && j < big.len() {
            match small[i].cmp(&big[j]) {
                std::cmp::Ordering::Less => {
                    check(small[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    check(big[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    check(small[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        small[i..].iter().chain(&big[j..]).for_each(|&t| check(t));
        debug_assert_eq!(k, produced.len(), "gallop merge length diverged");
    }
}

/// First index of `slice` whose element is `>= target`, found by an
/// exponential probe followed by a binary search of the bracketed window.
fn gallop_lower_bound(slice: &[TermId], target: TermId) -> usize {
    if slice.first().is_none_or(|&head| head >= target) {
        return 0;
    }
    // Invariant: slice[lo] < target; the answer lies in (lo, hi].
    let mut hi = 1usize;
    while hi < slice.len() && slice[hi] < target {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(slice.len());
    lo + slice[lo..hi].partition_point(|&x| x < target)
}

/// The least solution of a solved constraint system: for every variable, the
/// sorted set of source terms it contains.
///
/// Sets are stored back to back in one arena with per-variable spans rather
/// than as a `Vec` per variable: building the solution then costs one
/// amortized allocation total instead of one per variable, and reading
/// consecutive sets walks contiguous memory.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LeastSolution {
    rep: Vec<Var>,
    arena: Vec<TermId>,
    /// `spans[i]` is the arena range of canonical variable `i`'s set
    /// (`0..0` for collapsed variables, which resolve through `rep`).
    spans: Vec<(u32, u32)>,
}

impl LeastSolution {
    /// The least solution of `v` as a sorted, deduplicated slice of sources.
    ///
    /// Collapsed variables transparently resolve to their witness.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the solver that produced this value.
    pub fn get(&self, v: Var) -> &[TermId] {
        let (start, end) = self.spans[self.rep[v.index()].index()];
        &self.arena[start as usize..end as usize]
    }

    /// `|LS(v)|`.
    pub fn size(&self, v: Var) -> usize {
        self.get(v).len()
    }

    /// Whether `t ∈ LS(v)`.
    pub fn contains(&self, v: Var, t: TermId) -> bool {
        self.get(v).binary_search(&t).is_ok()
    }

    /// Number of variables covered (including collapsed ones).
    pub fn len(&self) -> usize {
        self.rep.len()
    }

    /// Whether no variables are covered.
    pub fn is_empty(&self) -> bool {
        self.rep.is_empty()
    }

    /// Sum of set sizes over canonical variables.
    pub fn total_entries(&self) -> usize {
        self.arena.len()
    }

    /// The raw storage: `(rep, arena, spans)`. `rep[i]` is variable `i`'s
    /// canonical representative, and `spans[i]` indexes `arena` with
    /// representative `i`'s sorted set (`(0, 0)` or an empty range when the
    /// set is empty or `i` is collapsed).
    pub fn raw_parts(&self) -> (&[Var], &[TermId], &[(u32, u32)]) {
        (&self.rep, &self.arena, &self.spans)
    }
}

/// What one [`LeastPass`] run did: how much of the baseline survived the
/// change and how localized the recomputation was. `bane-serve` feeds these
/// figures into its `serve.dirty.*` / `serve.reuse.hit` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RevalidateOutcome {
    /// Condensation levels of the canonical predecessor DAG (0 for an
    /// empty system; standard form has one level).
    pub total_levels: usize,
    /// Levels containing at least one dirty (re-evaluated) variable.
    pub dirty_levels: usize,
    /// Canonical variables whose set was recomputed.
    pub dirty_vars: usize,
    /// Canonical variables whose baseline span was copied verbatim.
    pub reused_vars: usize,
    /// Whether a fast-apply session abandoned in-place repair and replayed
    /// the canonical sequence instead. Always `false` from the pass itself —
    /// `bane-serve` sets it when its two-tier apply falls back (see
    /// `docs/INCREMENTAL.md`).
    pub fell_back: bool,
}

/// The least-solution pass of equation (1) and its reusable working buffers
/// (see the [module docs](self)).
///
/// A run is two steps, so a caller can time the CSR freeze on its own:
/// [`freeze`](LeastPass::freeze) canonicalizes the solved graph into a
/// [`CsrSnapshot`], then [`evaluate`](LeastPass::evaluate) computes every
/// set over it, optionally reusing a baseline. Every buffer is reused
/// across runs, so a warmed pass over a same-shaped system allocates
/// nothing.
#[derive(Clone, Debug, Default)]
pub struct LeastPass {
    /// Canonical variables in layout order (the order sets are appended).
    layout: Vec<Var>,
    /// Condensation level per raw variable index.
    levels: Vec<u32>,
    /// Whether each raw variable index was recomputed this run.
    dirty: Vec<bool>,
    /// Whether each level holds a dirty variable.
    level_dirty: Vec<bool>,
    /// The non-empty predecessor spans feeding the current variable.
    runs: Vec<(u32, u32)>,
    /// Ping-pong state of the pairwise merge.
    acc: Vec<TermId>,
    buf_b: Vec<TermId>,
    bounds_a: Vec<(u32, u32)>,
    bounds_b: Vec<(u32, u32)>,
}

impl LeastPass {
    /// A pass with no buffers warmed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Step one: writes the representative map of `parts` into `out`, sizes
    /// its span table, and freezes the solved graph into `csr`, rows in
    /// layout order.
    ///
    /// The span table is sized here, before the CSR build, rather than in
    /// [`evaluate`](LeastPass::evaluate): a cold pass that allocates it
    /// after the CSR's buffers left glibc holding about 3 MB more freed
    /// heap over the 27-program suite (`perfbench` `analyze` `rss_mb`,
    /// x86-64 Linux), though live memory was the same.
    pub fn freeze(&mut self, parts: &LeastParts<'_>, csr: &mut CsrSnapshot, out: &mut LeastSolution) {
        parts.rep_map_into(&mut out.rep);
        out.spans.clear();
        out.spans.resize(out.rep.len(), (0, 0));
        parts.layout_order_into(&out.rep, &mut self.layout);
        csr.build(parts, &self.layout);
    }

    /// Step two: computes the sets of `out` over `csr`, which the matching
    /// [`freeze`](LeastPass::freeze) just built.
    ///
    /// With a `baseline` — the solution and CSR of an earlier pass — every
    /// clean variable copies its baseline span instead of merging. The
    /// result is byte-identical to a cold pass either way (see the
    /// [module docs](self)).
    pub fn evaluate(
        &mut self,
        form: Form,
        csr: &CsrSnapshot,
        baseline: Option<(&LeastSolution, &CsrSnapshot)>,
        out: &mut LeastSolution,
    ) -> RevalidateOutcome {
        let LeastPass { layout, levels, dirty, level_dirty, runs, acc, buf_b, bounds_a, bounds_b } =
            self;
        let LeastSolution { rep, arena, spans } = out;
        let n = rep.len();
        debug_assert!(spans.len() == n && spans.iter().all(|&s| s == (0, 0)), "evaluate follows freeze");
        arena.clear();
        levels.clear();
        levels.resize(n, 0);
        dirty.clear();
        dirty.resize(n, false);
        level_dirty.clear();
        let mut dirty_vars = 0usize;
        let mut max_level = 0u32;

        /// Appends already-sorted, already-distinct `set` as `v`'s span.
        fn append(set: &[TermId], arena: &mut Vec<TermId>, spans: &mut [(u32, u32)], v: Var) {
            let start = u32::try_from(arena.len()).expect("least-solution arena overflow");
            arena.extend_from_slice(set);
            let end = u32::try_from(arena.len()).expect("least-solution arena overflow");
            spans[v.index()] = (start, end);
        }

        for &v in layout.iter() {
            let i = v.index();
            let (srcs, preds) = (csr.srcs(v), csr.preds(v));
            // Predecessors precede `v` in the layout, so their levels and
            // dirty flags are final.
            let mut level = 0u32;
            let mut pred_dirty = false;
            for &u in preds {
                level = level.max(levels[u.index()] + 1);
                pred_dirty |= dirty[u.index()];
            }
            levels[i] = level;
            max_level = max_level.max(level);

            let reuse = baseline.filter(|&(base, base_csr)| {
                !pred_dirty
                    && base.rep.get(i) == Some(&v)
                    && base_csr.srcs(v) == srcs
                    && base_csr.preds(v) == preds
            });
            if let Some((base, _)) = reuse {
                let (s, e) = base.spans[i];
                let set = &base.arena[s as usize..e as usize];
                // Same span rule as the merge below: inductive form leaves
                // an empty set at `(0, 0)`.
                if !set.is_empty() || form == Form::Standard {
                    append(set, arena, spans, v);
                }
                continue;
            }

            dirty[i] = true;
            dirty_vars += 1;
            if level_dirty.len() <= level as usize {
                level_dirty.resize(level as usize + 1, false);
            }
            level_dirty[level as usize] = true;
            if form == Form::Standard {
                // Standard form's sets are exactly the frozen source rows
                // (already sorted and distinct); its pred rows are empty.
                append(srcs, arena, spans, v);
                continue;
            }
            runs.clear();
            for &u in preds {
                let span = spans[u.index()];
                if span.1 > span.0 {
                    runs.push(span);
                }
            }
            // The inputs are sorted runs (each span is sorted and distinct,
            // as is the frozen `srcs` row), so small arities merge linearly
            // instead of re-sorting. The common cases by far are zero or one
            // predecessor run.
            match (srcs.is_empty(), runs.as_slice()) {
                (true, []) => {}
                (false, []) => append(srcs, arena, spans, v),
                (true, &[(s, e)]) => {
                    let start = u32::try_from(arena.len()).expect("least-solution arena overflow");
                    arena.extend_from_within(s as usize..e as usize);
                    spans[i] = (start, start + (e - s));
                }
                _ => {
                    // Two or more input runs: iterated pairwise merging,
                    // O(total · log runs) with no sort. The first round
                    // reads straight out of the arena (and `srcs`); later
                    // rounds ping-pong between two scratch buffers.
                    let extra = usize::from(!srcs.is_empty());
                    let total = runs.len() + extra;
                    let input = |k: usize| -> &[TermId] {
                        if k < extra {
                            srcs
                        } else {
                            let (s, e) = runs[k - extra];
                            &arena[s as usize..e as usize]
                        }
                    };
                    acc.clear();
                    bounds_a.clear();
                    let mut k = 0;
                    while k < total {
                        let start = acc.len() as u32;
                        if k + 1 < total {
                            merge_sorted_dedup(input(k), input(k + 1), acc);
                            k += 2;
                        } else {
                            acc.extend_from_slice(input(k));
                            k += 1;
                        }
                        bounds_a.push((start, acc.len() as u32));
                    }
                    while bounds_a.len() > 1 {
                        buf_b.clear();
                        bounds_b.clear();
                        for pair in bounds_a.chunks(2) {
                            let start = buf_b.len() as u32;
                            let (s1, e1) = pair[0];
                            match pair.get(1) {
                                Some(&(s2, e2)) => merge_sorted_dedup(
                                    &acc[s1 as usize..e1 as usize],
                                    &acc[s2 as usize..e2 as usize],
                                    buf_b,
                                ),
                                None => buf_b.extend_from_slice(&acc[s1 as usize..e1 as usize]),
                            }
                            bounds_b.push((start, buf_b.len() as u32));
                        }
                        std::mem::swap(acc, buf_b);
                        std::mem::swap(bounds_a, bounds_b);
                    }
                    append(acc, arena, spans, v);
                }
            }
        }

        RevalidateOutcome {
            total_levels: if layout.is_empty() { 0 } else { max_level as usize + 1 },
            dirty_levels: level_dirty.iter().filter(|&&d| d).count(),
            dirty_vars,
            reused_vars: layout.len() - dirty_vars,
            fell_back: false,
        }
    }
}

/// A [`LeastPass`] that keeps its last solution and CSR as the baseline of
/// the next run: the least-solution state of a long-lived `bane-serve`
/// session.
///
/// The solution and CSR are double-buffered. Each run swaps the current
/// pair into the baseline slot and writes the new pair into the other
/// buffers, so between runs the revalidator holds one live solution, one
/// live CSR, and the spare buffers' capacity (the spare solution is
/// emptied after every run). A warmed revalidator over a same-shaped system
/// allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct Revalidator {
    pass: LeastPass,
    ls: LeastSolution,
    csr: CsrSnapshot,
    spare_ls: LeastSolution,
    spare_csr: CsrSnapshot,
    /// Whether `ls`/`csr` hold a completed run.
    valid: bool,
}

impl Revalidator {
    /// A revalidator with no baseline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Step one of a run ([`LeastPass::freeze`]): retires the current
    /// solution and CSR to the baseline slot and freezes `parts` into the
    /// spare CSR. Must be followed by [`evaluate`](Revalidator::evaluate).
    pub fn freeze(&mut self, parts: &LeastParts<'_>) {
        std::mem::swap(&mut self.ls, &mut self.spare_ls);
        std::mem::swap(&mut self.csr, &mut self.spare_csr);
        self.pass.freeze(parts, &mut self.csr, &mut self.ls);
    }

    /// Step two of a run ([`LeastPass::evaluate`]): computes the new
    /// solution, copying every clean span from the previous run's.
    pub fn evaluate(&mut self, form: Form) -> RevalidateOutcome {
        let baseline = self.valid.then_some((&self.spare_ls, &self.spare_csr));
        let outcome = self.pass.evaluate(form, &self.csr, baseline, &mut self.ls);
        let LeastSolution { rep, arena, spans } = &mut self.spare_ls;
        rep.clear();
        arena.clear();
        spans.clear();
        self.valid = true;
        outcome
    }

    /// Both steps: revalidates against the previous run's solution (a cold
    /// pass on the first run).
    pub fn run(&mut self, parts: &LeastParts<'_>) -> RevalidateOutcome {
        self.freeze(parts);
        self.evaluate(parts.form)
    }

    /// The solution of the last run, or `None` before the first.
    pub fn solution(&self) -> Option<&LeastSolution> {
        self.valid.then_some(&self.ls)
    }

    /// The CSR the last run froze and evaluated: the graph half of what
    /// `bane-snap` serializes next to [`solution`](Revalidator::solution),
    /// identical to the one [`Solver::least_solution`] builds for the same
    /// solved system.
    pub fn csr(&self) -> &CsrSnapshot {
        &self.csr
    }

    /// Solution entries the revalidator holds between runs. The spare
    /// solution is emptied after every run, so this equals the live
    /// solution's [`total_entries`](LeastSolution::total_entries) however
    /// many runs it has made.
    pub fn arena_entries(&self) -> usize {
        self.ls.arena.len() + self.spare_ls.arena.len()
    }
}

impl Solver {
    /// Computes the least solution of the solved system: one cold
    /// [`LeastPass`].
    ///
    /// For standard form the sets are the explicit source lists; for
    /// inductive form it runs the increasing-order pass of equation (1).
    /// Either way the pass traverses a [`CsrSnapshot`] frozen from the
    /// solved graph (canonicalized once, not per read), kept on the solver
    /// as [`least_csr`](Solver::least_csr). Call after
    /// [`solve`](Solver::solve).
    pub fn least_solution(&mut self) -> LeastSolution {
        #[cfg(feature = "obs")]
        if let Some(rec) = self.obs() {
            rec.start(bane_obs::Phase::LeastSolution);
        }
        // The snapshot lives on the solver so repeated passes reuse its
        // buffers; taken out for the duration of the borrow of the parts.
        let mut csr = std::mem::take(self.csr_snapshot_mut());
        let mut pass = LeastPass::new();
        let mut result = LeastSolution::default();
        let parts = self.least_parts();
        #[cfg(feature = "obs")]
        if let Some(rec) = self.obs() {
            rec.start(bane_obs::Phase::CsrBuild);
        }
        pass.freeze(&parts, &mut csr, &mut result);
        #[cfg(feature = "obs")]
        if let Some(rec) = self.obs() {
            rec.stop(bane_obs::Phase::CsrBuild);
            rec.add(bane_obs::Counter::CsrBuilds, 1);
        }
        pass.evaluate(parts.form, &csr, None, &mut result);
        // Hand the warmed snapshot back to the solver for the next pass.
        *self.csr_snapshot_mut() = csr;
        #[cfg(feature = "obs")]
        if let Some(rec) = self.obs() {
            let set_vars = result.spans.iter().filter(|(s, e)| e > s).count();
            rec.set(bane_obs::Counter::LsSetVars, set_vars as u64);
            rec.set(bane_obs::Counter::LsEntries, result.total_entries() as u64);
            rec.stop(bane_obs::Phase::LeastSolution);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolverConfig;

    /// Builds a diamond: c1 ⊆ a; a ⊆ b; a ⊆ c; b ⊆ d; c ⊆ d; c2 ⊆ c.
    fn diamond(config: SolverConfig) -> (Solver, [Var; 4], [TermId; 2]) {
        let mut s = Solver::new(config);
        let c1 = s.register_nullary("c1");
        let c2 = s.register_nullary("c2");
        let t1 = s.term(c1, vec![]);
        let t2 = s.term(c2, vec![]);
        let vs = [s.fresh_var(), s.fresh_var(), s.fresh_var(), s.fresh_var()];
        s.add(t1, vs[0]);
        s.add(vs[0], vs[1]);
        s.add(vs[0], vs[2]);
        s.add(vs[1], vs[3]);
        s.add(vs[2], vs[3]);
        s.add(t2, vs[2]);
        (s, vs, [t1, t2])
    }

    #[test]
    fn diamond_least_solutions_agree_across_configs() {
        let expected: [Vec<usize>; 4] = [vec![0], vec![0], vec![0, 1], vec![0, 1]];
        for config in [
            SolverConfig::sf_plain(),
            SolverConfig::if_plain(),
            SolverConfig::sf_online(),
            SolverConfig::if_online(),
        ] {
            let (mut s, vs, ts) = diamond(config);
            s.solve();
            let resolved: Vec<Var> = vs.iter().map(|&v| s.find(v)).collect();
            let ls = s.least_solution();
            for (i, &v) in resolved.iter().enumerate() {
                let want: Vec<TermId> = expected[i].iter().map(|&j| ts[j]).collect();
                assert_eq!(ls.get(v), want.as_slice(), "{config:?} var {i}");
                assert_eq!(ls.size(v), want.len());
                for &t in &want {
                    assert!(ls.contains(v, t));
                }
            }
        }
    }

    #[test]
    fn collapsed_cycle_members_share_solutions() {
        let mut s = Solver::new(SolverConfig::if_online());
        let c = s.register_nullary("c");
        let t = s.term(c, vec![]);
        let (x, y, z) = (s.fresh_var(), s.fresh_var(), s.fresh_var());
        s.add(x, y);
        s.add(y, x);
        s.add(t, x);
        s.add(y, z);
        s.solve();
        let (x, y, z) = (s.find(x), s.find(y), s.find(z));
        let ls = s.least_solution();
        assert_eq!(x, y);
        assert_eq!(ls.get(x), &[t]);
        assert_eq!(ls.get(y), &[t]);
        assert_eq!(ls.get(z), &[t]);
        assert!(ls.total_entries() >= 2);
        assert_eq!(ls.len(), 3);
        assert!(!ls.is_empty());
    }

    #[test]
    fn empty_solver_has_empty_solution() {
        let mut s = Solver::new(SolverConfig::if_online());
        s.solve();
        let ls = s.least_solution();
        assert!(ls.is_empty());
        assert_eq!(ls.total_entries(), 0);
    }

    /// The frozen CSR rows must agree entry-for-entry with a canonicalizing
    /// walk of the raw adjacency lists — including after collapses have
    /// left stale self edges and aliased entries behind, which is exactly
    /// what the snapshot exists to clean up once instead of per read.
    #[test]
    fn csr_snapshot_matches_adjacency_on_random_cyclic_systems() {
        use bane_util::SplitMix64;
        let mut csr = CsrSnapshot::new();
        let (mut rep, mut layout) = (Vec::new(), Vec::new());
        for config in [SolverConfig::sf_online(), SolverConfig::if_online()] {
            let mut collapses = 0;
            for seed in 0..4u64 {
                let mut rng = SplitMix64::new(0xC5A0 + seed);
                let mut s = Solver::new(config);
                let n = 40;
                let vs: Vec<Var> = (0..n).map(|_| s.fresh_var()).collect();
                let mut ts = Vec::new();
                for k in 0..6 {
                    let c = s.register_nullary(format!("c{k}"));
                    ts.push(s.term(c, vec![]));
                }
                for i in 0..n {
                    for j in (i + 1)..n {
                        if rng.next_bool(0.08) {
                            s.add(vs[i], vs[j]);
                        }
                    }
                }
                // Back edges so collapses leave stale entries behind.
                for _ in 0..10 {
                    let a = rng.next_below(n as u64) as usize;
                    let b = rng.next_below(n as u64) as usize;
                    s.add(vs[a], vs[b]);
                }
                for (k, &t) in ts.iter().enumerate() {
                    s.add(t, vs[(k * 5) % n]);
                }
                s.solve();
                collapses += s.stats().cycles_collapsed;

                let parts = s.least_parts();
                parts.rep_map_into(&mut rep);
                parts.layout_order_into(&rep, &mut layout);
                csr.build(&parts, &layout);
                let mut pred_total = 0;
                for &v in &layout {
                    let node = parts.graph.node(v);
                    let mut srcs: Vec<TermId> = node.pred_srcs().to_vec();
                    srcs.sort_unstable();
                    srcs.dedup();
                    assert_eq!(csr.srcs(v), srcs.as_slice(), "{config:?} src row");
                    match parts.form {
                        Form::Standard => {
                            assert!(csr.preds(v).is_empty(), "SF builds no pred rows");
                        }
                        Form::Inductive => {
                            let mut preds: Vec<Var> = node
                                .pred_vars()
                                .iter()
                                .map(|&raw| parts.fwd.find_const(raw))
                                .filter(|&u| u != v)
                                .collect();
                            preds.sort_unstable();
                            preds.dedup();
                            assert_eq!(
                                csr.preds(v),
                                preds.as_slice(),
                                "{config:?} pred row"
                            );
                            pred_total += preds.len();
                        }
                    }
                }
                assert_eq!(csr.pred_entries(), pred_total, "{config:?} totals");
            }
            assert!(collapses > 0, "{config:?}: workload should collapse cycles");
        }
    }

    /// Reference two-pointer merge the fast-path tests compare against.
    fn naive_merge(a: &[TermId], b: &[TermId]) -> Vec<TermId> {
        let mut all: Vec<TermId> = a.iter().chain(b).copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    fn terms(ids: &[usize]) -> Vec<TermId> {
        ids.iter().map(|&i| TermId::new(i)).collect()
    }

    #[test]
    fn merge_handles_empty_subset_interleaved_and_duplicate_heavy_inputs() {
        let cases: [(&[usize], &[usize]); 10] = [
            (&[], &[]),
            (&[], &[1, 2, 3]),
            (&[5], &[]),
            // Subset relations (both directions, shared elements dropped).
            (&[2, 4], &[1, 2, 3, 4, 5]),
            (&[0, 1, 2, 3, 4, 5, 6, 7], &[3, 5]),
            // Fully interleaved.
            (&[0, 2, 4, 6], &[1, 3, 5, 7]),
            // Duplicate-heavy: every element shared.
            (&[1, 2, 3], &[1, 2, 3]),
            // Disjoint ranges (the concatenation fast paths).
            (&[1, 2, 3], &[10, 11]),
            (&[10, 11], &[1, 2, 3]),
            // Equal boundary element must still dedup.
            (&[1, 2, 5], &[5, 6, 7]),
        ];
        for (a, b) in cases {
            let (a, b) = (terms(a), terms(b));
            let mut out = Vec::new();
            merge_sorted_dedup(&a, &b, &mut out);
            assert_eq!(out, naive_merge(&a, &b), "a={a:?} b={b:?}");
        }
    }

    /// Skewed sizes drive the galloping path; output must match the naive
    /// walk exactly (also re-checked by the internal debug assertion).
    #[test]
    fn merge_gallops_on_skewed_sizes() {
        use bane_util::SplitMix64;
        let big: Vec<TermId> = (0..2000).map(|i| TermId::new(i * 3)).collect();
        // Small side: mixes of shared, interleaved, and out-of-range values.
        let smalls: [&[usize]; 5] = [
            &[0],                       // first element, shared
            &[5997],                    // last element, shared
            &[1, 2, 3000, 9000],        // interleaved + past the end
            &[0, 3, 6, 9],              // prefix, all shared
            &[7000, 7001, 7002],        // entirely past the end
        ];
        for ids in smalls {
            let small = terms(ids);
            let mut out = Vec::new();
            merge_sorted_dedup(&small, &big, &mut out);
            assert_eq!(out, naive_merge(&small, &big), "small={ids:?}");
            out.clear();
            merge_sorted_dedup(&big, &small, &mut out);
            assert_eq!(out, naive_merge(&small, &big), "swapped small={ids:?}");
        }
        // Randomized sweep across skews, seeds, and duplicates.
        let mut rng = SplitMix64::new(0x6A110);
        for round in 0..200 {
            let nb = 1 + rng.next_below(400) as usize;
            let na = 1 + rng.next_below(8) as usize;
            let mut a: Vec<TermId> =
                (0..na).map(|_| TermId::new(rng.next_below(1200) as usize)).collect();
            let mut b: Vec<TermId> =
                (0..nb).map(|_| TermId::new(rng.next_below(1200) as usize)).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let mut out = Vec::new();
            merge_sorted_dedup(&a, &b, &mut out);
            assert_eq!(out, naive_merge(&a, &b), "round {round}");
        }
    }

    /// Random chains: IF least solution equals SF's explicit one.
    #[test]
    fn inductive_matches_standard_on_random_dags() {
        use bane_util::SplitMix64;
        let mut rng = SplitMix64::new(99);
        for round in 0..20 {
            let n = 30;
            let mut edges = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.next_bool(0.08) {
                        edges.push((i, j));
                    }
                }
            }
            let n_srcs = 5;
            let mut src_at = Vec::new();
            for k in 0..n_srcs {
                src_at.push((k, rng.next_below(n as u64) as usize));
            }

            let build = |config: SolverConfig| {
                let mut s = Solver::new(config);
                let vs: Vec<Var> = (0..n).map(|_| s.fresh_var()).collect();
                let mut ts = Vec::new();
                for k in 0..n_srcs {
                    let c = s.register_nullary(format!("c{k}"));
                    ts.push(s.term(c, vec![]));
                }
                for &(a, b) in &edges {
                    s.add(vs[a], vs[b]);
                }
                for &(k, at) in &src_at {
                    s.add(ts[k], vs[at]);
                }
                s.solve();
                let resolved: Vec<Var> = vs.iter().map(|&v| s.find(v)).collect();
                let ls = s.least_solution();
                resolved.iter().map(|&v| ls.get(v).to_vec()).collect::<Vec<_>>()
            };

            let sf = build(SolverConfig::sf_plain());
            let ifo = build(SolverConfig::if_online());
            assert_eq!(sf, ifo, "round {round}");
        }
    }

    fn configs() -> [SolverConfig; 4] {
        [
            SolverConfig::sf_plain(),
            SolverConfig::if_plain(),
            SolverConfig::sf_online(),
            SolverConfig::if_online(),
        ]
    }

    /// Random layered constraint systems with cycles and sources; the last
    /// `hold_back` variable-variable edges are returned unfed for growth
    /// tests.
    fn random_system(config: SolverConfig, seed: u64, hold_back: usize) -> (Solver, Vec<(Var, Var)>) {
        use bane_util::SplitMix64;
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

    /// The revalidator's solution after a run (it always has one).
    fn solution(rv: &Revalidator) -> &LeastSolution {
        rv.solution().expect("the revalidator has run")
    }

    /// A baseline run over an unchanged system is byte-identical to the
    /// sequential cold pass, and so is its CSR.
    #[test]
    fn byte_identical_to_sequential_on_random_systems() {
        for config in configs() {
            for seed in 0..6u64 {
                let mut s = random_system(config, seed, 0).0;
                let seq = s.least_solution();
                let mut rv = Revalidator::new();
                for _ in 0..2 {
                    rv.run(&s.least_parts());
                    assert_eq!(solution(&rv), &seq, "{config:?} seed {seed}");
                    assert_eq!(rv.csr().raw_parts(), s.least_csr().raw_parts());
                }
            }
        }
    }

    /// One revalidator carried across unrelated systems: a baseline from a
    /// different system is only ever a source of clean spans, never of
    /// wrong ones.
    #[test]
    fn revalidator_is_reusable_across_systems() {
        let mut rv = Revalidator::new();
        for seed in [3u64, 4, 3] {
            let mut s = random_system(SolverConfig::if_online(), seed, 0).0;
            let seq = s.least_solution();
            rv.run(&s.least_parts());
            assert_eq!(solution(&rv), &seq, "seed {seed}");
            assert!(rv.run(&s.least_parts()).total_levels >= 1);
        }
    }

    /// Revalidation from cold, after monotone growth, and over an unchanged
    /// system — byte-identical to the sequential pass in every case, with
    /// the unchanged pass reporting zero dirty work.
    #[test]
    fn revalidate_matches_sequential_across_growth() {
        for config in configs() {
            for seed in 0..3u64 {
                let (mut s, held) = random_system(config, 0x5E5E + seed, 4);
                let mut rv = Revalidator::new();
                let out = rv.run(&s.least_parts());
                assert_eq!(solution(&rv), &s.least_solution(), "cold");
                assert_eq!(out.reused_vars, 0, "cold pass reuses nothing");
                let canonical = out.dirty_vars;

                // Unchanged system: everything reuses.
                let out = rv.run(&s.least_parts());
                assert_eq!(solution(&rv), &s.least_solution(), "unchanged");
                assert_eq!(out.dirty_vars, 0, "{config:?} unchanged is all-clean");
                assert_eq!(out.dirty_levels, 0);
                assert_eq!(out.reused_vars, canonical);

                // Monotone growth through the same live solver.
                for &(a, b) in &held {
                    s.add(a, b);
                }
                s.solve();
                let out = rv.run(&s.least_parts());
                assert_eq!(solution(&rv), &s.least_solution(), "{config:?} seed {seed} grown");
                let live = (0..s.graph_len()).filter(|&i| s.find(Var::new(i)) == Var::new(i)).count();
                assert_eq!(out.dirty_vars + out.reused_vars, live);
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
                let mut rv = Revalidator::new();
                // Baseline: the full system.
                let (mut full, _) = random_system(config, 0xDEAD + seed, 0);
                rv.run(&full.least_parts());
                assert_eq!(solution(&rv), &full.least_solution(), "baseline");

                // "Removal": rebuild from scratch, holding edges back.
                let (mut shrunk, _held) = random_system(config, 0xDEAD + seed, 5);
                let out = rv.run(&shrunk.least_parts());
                assert_eq!(solution(&rv), &shrunk.least_solution(), "{config:?} seed {seed} shrunk");
                assert!(out.total_levels >= out.dirty_levels);
            }
        }
    }

    /// A localized edit must not dirty the whole schedule: grow one source
    /// deep in a long chain and check that clean levels survive.
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
        let mut rv = Revalidator::new();
        rv.run(&s.least_parts());
        assert_eq!(solution(&rv), &s.least_solution());

        // Edit: a new source lands mid-way down chain B.
        s.add(td, chain_b[10]);
        s.solve();
        let out = rv.run(&s.least_parts());
        assert_eq!(solution(&rv), &s.least_solution(), "post-edit bytes");
        assert!(
            out.dirty_levels < out.total_levels,
            "edit at level 10 must leave lower levels clean: {out:?}"
        );
        assert!(out.reused_vars > out.dirty_vars, "most of the system is clean: {out:?}");
    }

    #[test]
    fn empty_system_yields_empty_solution() {
        let mut s = Solver::new(SolverConfig::if_online());
        s.solve();
        let mut rv = Revalidator::new();
        assert!(rv.solution().is_none(), "no solution before the first run");
        let out = rv.run(&s.least_parts());
        assert_eq!(out, RevalidateOutcome::default());
        assert_eq!(solution(&rv), &s.least_solution());
        assert!(solution(&rv).is_empty());
    }

    /// Between runs the revalidator holds the live solution's entries and
    /// no more.
    #[test]
    fn revalidator_retains_only_the_live_solution() {
        let (mut s, held) = random_system(SolverConfig::if_online(), 0xA4E, 6);
        let mut rv = Revalidator::new();
        rv.run(&s.least_parts());
        for &(a, b) in &held {
            s.add(a, b);
            s.solve();
            rv.run(&s.least_parts());
            assert_eq!(rv.arena_entries(), solution(&rv).total_entries());
        }
    }

    #[cfg(feature = "obs")]
    #[test]
    fn records_observability_counters() {
        let mut s = random_system(SolverConfig::if_online(), 1, 0).0;
        s.enable_obs();
        let ls = s.least_solution();
        let rec = s.obs().expect("obs enabled");
        assert_eq!(rec.get(bane_obs::Counter::LsEntries), ls.total_entries() as u64);
        assert_eq!(rec.get(bane_obs::Counter::CsrBuilds), 1);
        let report = rec.report("least");
        assert!(report.phases.iter().any(|p| p.phase == bane_obs::Phase::LeastSolution.name()));
        assert!(report.phases.iter().any(|p| p.phase == bane_obs::Phase::CsrBuild.name()));
    }
}
