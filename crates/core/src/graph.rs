//! Constraint-graph adjacency storage.
//!
//! Following Section 2.2, the solved form of a constraint system is a
//! directed graph whose vertices are variables, sources (constructed terms
//! left of `⊆`) and sinks (constructed terms right of `⊆`). Every edge is
//! represented *exclusively* either as a predecessor edge or as a successor
//! edge in the adjacency lists of its variable endpoint(s):
//!
//! - `c(…) ⊆ X` is always a predecessor edge (`c ∈ pred(X)`),
//! - `X ⊆ c(…)` is always a successor edge (`c ∈ succ(X)`),
//! - `X ⊆ Y` is a successor edge in standard form; in inductive form the
//!   representation is chosen by the variable order (see
//!   [`solver`](crate::solver)).
//!
//! # Hybrid adjacency representation
//!
//! Each adjacency list is an [`AdjList`]: an insertion-ordered `Vec` of
//! entries plus a membership structure that adapts to the degree. Up to
//! [`SMALL_DEGREE_MAX`] entries, membership is a linear scan of the `Vec`
//! itself — no hash set is allocated at all, which covers the vast majority
//! of nodes in the paper's sparse graphs (final density ≈ 2 edges per
//! variable). Past the threshold the list *promotes*: a hash set over the
//! inserted ids is built once and maintained from then on. A promoted list
//! reverts to small mode only when its node collapses and
//! [`take_edges`](Graph::take_edges) empties it.
//!
//! The distinction a caller can observe is `Insert::New` vs
//! `Insert::Redundant` — the paper's "Work" metric counts both — and the
//! hybrid keeps that classification *exactly* as a plain always-hashed
//! implementation would: membership is decided on the **raw inserted ids**
//! in both modes (the small list holds exactly the distinct raw ids, in
//! insertion order, so a scan of it is the same predicate as a set lookup).
//!
//! # Stale entries and eager compaction
//!
//! After cycles collapse, list entries can become stale: they name a
//! variable that has been forwarded into a witness. Traversals canonicalize
//! entries through [`Forwarding`] on the fly, which is correct but makes
//! every later traversal re-walk forwarding chains. [`Graph::compact_node`]
//! eagerly rewrites stale entries *in place* to their current
//! representative, once per node per collapse epoch (stamped with
//! the forwarding table's collapse count).
//!
//! Compaction deliberately preserves two things, keeping the Work and census
//! counters byte-identical to an uncompacted run:
//!
//! 1. **The traversal multiset.** Entries are rewritten, never removed or
//!    deduplicated — a stale duplicate still produces the same (redundant)
//!    re-assertion work it always did, entry for entry, in the same order.
//! 2. **The dedup domain.** Membership stays keyed by the raw ids the edges
//!    were inserted with. Only *promoted* lists are compacted: their
//!    membership lives in the hash set, which compaction leaves untouched.
//!    Small lists double as their own membership structure, so rewriting
//!    them would change which future insertions count as redundant — they
//!    are left as-is (they are at most [`SMALL_DEGREE_MAX`] entries long, so
//!    the canonicalize-on-traversal cost is bounded anyway).
//!
//! [`Graph::take_edges`] resets the compaction stamp along with the lists:
//! the stamp certifies only entries that existed when `compact_node` last
//! ran, and a node emptied and re-populated within one collapse epoch must
//! not inherit a certificate for entries compaction never saw.

use crate::expr::{TermId, Var};
use crate::forward::Forwarding;
use bane_util::idx::IdxVec;
use bane_util::FxHashSet;
use std::hash::Hash;

/// Maximum number of entries an adjacency list holds before promoting from
/// linear-scan membership to a hash set.
///
/// 16 entries of a 4-byte id span a single cache line; a scan of them is
/// consistently cheaper than hashing, and the paper's final graphs average
/// about two variable-variable edges per node, so almost every list stays in
/// small mode for its whole life.
pub const SMALL_DEGREE_MAX: usize = 16;

/// One adjacency list: insertion-ordered entries with degree-adaptive
/// membership (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct AdjList<T> {
    /// Distinct inserted ids, in insertion order. After promotion, entries
    /// may be rewritten to their canonical representative by compaction; the
    /// length and order never change outside [`AdjList::take`].
    items: Vec<T>,
    /// Raw inserted ids; empty exactly while the list is in small mode.
    set: FxHashSet<T>,
}

// Manual impl: the derive would needlessly require `T: Default`.
impl<T> Default for AdjList<T> {
    fn default() -> Self {
        AdjList { items: Vec::new(), set: FxHashSet::default() }
    }
}

impl<T: Copy + Eq + Hash> AdjList<T> {
    /// The entries, in insertion order.
    #[inline]
    fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Whether the list has promoted to hash-set membership.
    #[inline]
    fn is_promoted(&self) -> bool {
        !self.set.is_empty()
    }

    /// Whether `item` (a raw id) was inserted before.
    #[inline]
    fn contains(&self, item: T) -> bool {
        if self.is_promoted() {
            self.set.contains(&item)
        } else {
            self.items.contains(&item)
        }
    }

    /// Records `item`, reporting whether it is new. Promotes to a hash set
    /// when the small list outgrows [`SMALL_DEGREE_MAX`].
    #[inline]
    fn insert(&mut self, item: T) -> Insert {
        if self.is_promoted() {
            if self.set.insert(item) {
                self.items.push(item);
                Insert::New
            } else {
                Insert::Redundant
            }
        } else {
            if self.items.contains(&item) {
                return Insert::Redundant;
            }
            self.items.push(item);
            if self.items.len() > SMALL_DEGREE_MAX {
                self.set.extend(self.items.iter().copied());
            }
            Insert::New
        }
    }

    /// Empties the list and reverts it to small mode, keeping the `Vec`'s
    /// and the hash set's capacity.
    fn clear(&mut self) {
        self.items.clear();
        self.set.clear();
    }

    /// Empties the list, returning the entries and reverting to small mode.
    fn take(&mut self) -> Vec<T> {
        self.set.clear();
        std::mem::take(&mut self.items)
    }

    /// Removes the entries whose *position* fails `keep`, preserving the
    /// order of the survivors; returns how many were removed.
    ///
    /// Only valid while entries are raw inserted ids (the provenance-tracking
    /// solver disables compaction for exactly this reason): membership is
    /// rebuilt from the surviving items, so a compaction-rewritten entry
    /// would corrupt the dedup domain.
    fn retain_positions(&mut self, mut keep: impl FnMut(usize, T) -> bool) -> usize {
        let before = self.items.len();
        let mut pos = 0usize;
        self.items.retain(|&item| {
            let k = keep(pos, item);
            pos += 1;
            k
        });
        let removed = before - self.items.len();
        if removed > 0 && self.is_promoted() {
            self.set.clear();
            if self.items.len() > SMALL_DEGREE_MAX {
                self.set.extend(self.items.iter().copied());
            }
        }
        removed
    }

    /// Whether the immediately preceding [`insert`](AdjList::insert) was the
    /// one that promoted this list: promotion happens exactly when a `New`
    /// insert pushes the length past [`SMALL_DEGREE_MAX`], so the list is
    /// promoted with `SMALL_DEGREE_MAX + 1` entries for precisely one insert.
    #[cfg(feature = "obs")]
    #[inline]
    fn just_promoted(&self) -> bool {
        self.is_promoted() && self.items.len() == SMALL_DEGREE_MAX + 1
    }
}

impl AdjList<Var> {
    /// Rewrites stale entries to their representative (promoted lists only;
    /// see the module docs for why small lists must keep raw ids).
    fn canonicalize(&mut self, fwd: &Forwarding) {
        if !self.is_promoted() {
            return;
        }
        for entry in &mut self.items {
            *entry = fwd.find_const(*entry);
        }
    }
}

/// Adjacency lists of one variable node.
#[derive(Clone, Debug, Default)]
pub struct VarNode {
    pred_vars: AdjList<Var>,
    succ_vars: AdjList<Var>,
    pred_srcs: AdjList<TermId>,
    succ_snks: AdjList<TermId>,
    /// [`Forwarding::collapsed_count`] as of the last
    /// [`Graph::compact_node`] call; entries may be stale beyond it.
    compacted_at: usize,
}

impl VarNode {
    /// Variables with a predecessor edge into this node (`v ⋯→ self`).
    pub fn pred_vars(&self) -> &[Var] {
        self.pred_vars.as_slice()
    }

    /// Variables this node has a successor edge to (`self → v`).
    pub fn succ_vars(&self) -> &[Var] {
        self.succ_vars.as_slice()
    }

    /// Source terms flowing into this node (`c(…) ⋯→ self`).
    pub fn pred_srcs(&self) -> &[TermId] {
        self.pred_srcs.as_slice()
    }

    /// Sink terms this node flows into (`self → c(…)`).
    pub(crate) fn succ_snks(&self) -> &[TermId] {
        self.succ_snks.as_slice()
    }

    /// Empties the four lists in place (see [`Graph::reset`]).
    fn clear(&mut self) {
        self.pred_vars.clear();
        self.succ_vars.clear();
        self.pred_srcs.clear();
        self.succ_snks.clear();
        self.compacted_at = 0;
    }

    fn take(&mut self) -> TakenEdges {
        // The compaction stamp certifies entries that are being taken away;
        // it must not outlive them. If the node is re-populated within the
        // same collapse epoch, a surviving stamp would make `compact_node`
        // skip entries it never canonicalized. Resetting forces the next
        // compaction to look (at epoch 0 nothing can be stale, so 0 is safe).
        self.compacted_at = 0;
        TakenEdges {
            pred_vars: self.pred_vars.take(),
            succ_vars: self.succ_vars.take(),
            pred_srcs: self.pred_srcs.take(),
            succ_snks: self.succ_snks.take(),
        }
    }
}

/// Edges removed from a collapsed node, to be re-asserted against the witness.
#[derive(Clone, Debug, Default)]
pub struct TakenEdges {
    /// `v ⋯→ collapsed`.
    pub pred_vars: Vec<Var>,
    /// `collapsed → v`.
    pub succ_vars: Vec<Var>,
    /// `c(…) ⋯→ collapsed`.
    pub pred_srcs: Vec<TermId>,
    /// `collapsed → c(…)`.
    pub succ_snks: Vec<TermId>,
}

/// Which of a node's four adjacency lists an event refers to.
#[cfg(feature = "obs")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdjKind {
    /// `pred_vars`: variables with a predecessor edge into the node.
    PredVars,
    /// `succ_vars`: variables the node has a successor edge to.
    SuccVars,
    /// `pred_srcs`: source terms flowing into the node.
    PredSrcs,
    /// `succ_snks`: sink terms the node flows into.
    SuccSnks,
}

#[cfg(feature = "obs")]
impl AdjKind {
    /// The stable name used in `list-promoted` events
    /// (see `docs/OBSERVABILITY.md`).
    pub fn name(self) -> &'static str {
        match self {
            AdjKind::PredVars => "pred-vars",
            AdjKind::SuccVars => "succ-vars",
            AdjKind::PredSrcs => "pred-srcs",
            AdjKind::SuccSnks => "succ-snks",
        }
    }
}

/// One adjacency list crossing the [`SMALL_DEGREE_MAX`] promotion threshold
/// (recorded only under the `obs` feature; see DESIGN.md §4b).
#[cfg(feature = "obs")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PromotionRecord {
    /// The variable whose list promoted.
    pub node: Var,
    /// Which of its four lists promoted.
    pub kind: AdjKind,
}

/// The outcome of an edge-insertion attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Insert {
    /// The edge was not present and has been added.
    New,
    /// The edge was already present (a redundant addition).
    Redundant,
}

/// Summary counts of the (canonicalized) graph, used for the paper's tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphCensus {
    /// Representatives (live variable nodes).
    pub live_vars: usize,
    /// Distinct canonical variable-variable edges.
    pub var_var_edges: usize,
    /// Distinct canonical source→variable edges.
    pub src_edges: usize,
    /// Distinct canonical variable→sink edges.
    pub snk_edges: usize,
}

impl GraphCensus {
    /// Total distinct edges.
    pub fn total_edges(&self) -> usize {
        self.var_var_edges + self.src_edges + self.snk_edges
    }
}

/// The variable-node store.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    nodes: IdxVec<Var, VarNode>,
    /// Promotion log (obs builds only). Promotions are rare — a handful per
    /// run even on the paper's largest benchmark — so an unbounded log is
    /// safe, and pushes only happen on the promoting insert itself, never in
    /// the redundant-insert steady state.
    #[cfg(feature = "obs")]
    promotions: Vec<PromotionRecord>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node for the next variable.
    pub fn push_node(&mut self) -> Var {
        self.nodes.push(VarNode::default())
    }

    /// Removes every edge and the promotion log, keeping the nodes and the
    /// capacity of their lists: each list is back in small mode with a zero
    /// compaction stamp, as [`push_node`](Graph::push_node) makes it.
    pub(crate) fn reset(&mut self) {
        for node in self.nodes.iter_mut() {
            node.clear();
        }
        #[cfg(feature = "obs")]
        self.promotions.clear();
    }

    /// Number of variable nodes ever created (including collapsed ones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no variable nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns the node of `v`.
    pub fn node(&self, v: Var) -> &VarNode {
        &self.nodes[v]
    }

    /// Whether the predecessor edge `x ⋯→ y` is present (under the ids the
    /// edge was inserted with; stale entries are the solver's concern).
    pub(crate) fn has_pred_var(&self, y: Var, x: Var) -> bool {
        self.nodes[y].pred_vars.contains(x)
    }

    /// Whether the successor edge `x → y` is present.
    pub(crate) fn has_succ_var(&self, x: Var, y: Var) -> bool {
        self.nodes[x].succ_vars.contains(y)
    }

    /// Whether the source edge `src ⋯→ y` is present.
    pub fn has_src(&self, y: Var, src: TermId) -> bool {
        self.nodes[y].pred_srcs.contains(src)
    }

    /// Whether the sink edge `x → snk` is present.
    pub fn has_snk(&self, x: Var, snk: TermId) -> bool {
        self.nodes[x].succ_snks.contains(snk)
    }

    /// Inserts the predecessor edge `x ⋯→ y` (a variable-variable constraint
    /// represented on the predecessor side; inductive form only).
    pub fn insert_pred_var(&mut self, y: Var, x: Var) -> Insert {
        let outcome = self.nodes[y].pred_vars.insert(x);
        #[cfg(feature = "obs")]
        if outcome == Insert::New && self.nodes[y].pred_vars.just_promoted() {
            self.promotions.push(PromotionRecord { node: y, kind: AdjKind::PredVars });
        }
        outcome
    }

    /// Inserts the successor edge `x → y`.
    pub fn insert_succ_var(&mut self, x: Var, y: Var) -> Insert {
        let outcome = self.nodes[x].succ_vars.insert(y);
        #[cfg(feature = "obs")]
        if outcome == Insert::New && self.nodes[x].succ_vars.just_promoted() {
            self.promotions.push(PromotionRecord { node: x, kind: AdjKind::SuccVars });
        }
        outcome
    }

    /// Inserts the source edge `src ⋯→ y`.
    pub fn insert_src(&mut self, y: Var, src: TermId) -> Insert {
        let outcome = self.nodes[y].pred_srcs.insert(src);
        #[cfg(feature = "obs")]
        if outcome == Insert::New && self.nodes[y].pred_srcs.just_promoted() {
            self.promotions.push(PromotionRecord { node: y, kind: AdjKind::PredSrcs });
        }
        outcome
    }

    /// Inserts the sink edge `x → snk`.
    pub fn insert_snk(&mut self, x: Var, snk: TermId) -> Insert {
        let outcome = self.nodes[x].succ_snks.insert(snk);
        #[cfg(feature = "obs")]
        if outcome == Insert::New && self.nodes[x].succ_snks.just_promoted() {
            self.promotions.push(PromotionRecord { node: x, kind: AdjKind::SuccSnks });
        }
        outcome
    }

    /// The promotion log: every adjacency list that crossed the
    /// [`SMALL_DEGREE_MAX`] threshold, in occurrence order (obs builds only).
    #[cfg(feature = "obs")]
    pub fn promotions(&self) -> &[PromotionRecord] {
        &self.promotions
    }

    /// Strips all edges off `v` (used when `v` collapses into a witness).
    ///
    /// Promoted lists revert to small mode, membership starts fresh (raw
    /// re-inserts classify as `New` again), and the compaction stamp is
    /// reset so a re-populated node is re-canonicalized by the next
    /// [`compact_node`](Graph::compact_node) call even within the same
    /// collapse epoch.
    pub fn take_edges(&mut self, v: Var) -> TakenEdges {
        self.nodes[v].take()
    }

    /// Removes predecessor-variable entries of `v` whose position fails
    /// `keep`, preserving survivor order; returns the removed count.
    ///
    /// Requires raw (never-compacted) entries — see the provenance-tracking
    /// solver, which disables [`compact_node`](Graph::compact_node) while
    /// retraction is possible.
    pub fn retain_pred_vars(&mut self, v: Var, keep: impl FnMut(usize, Var) -> bool) -> usize {
        self.nodes[v].pred_vars.retain_positions(keep)
    }

    /// Successor-variable analogue of [`retain_pred_vars`](Graph::retain_pred_vars).
    pub fn retain_succ_vars(&mut self, v: Var, keep: impl FnMut(usize, Var) -> bool) -> usize {
        self.nodes[v].succ_vars.retain_positions(keep)
    }

    /// Source-edge analogue of [`retain_pred_vars`](Graph::retain_pred_vars).
    pub fn retain_pred_srcs(&mut self, v: Var, keep: impl FnMut(usize, TermId) -> bool) -> usize {
        self.nodes[v].pred_srcs.retain_positions(keep)
    }

    /// Sink-edge analogue of [`retain_pred_vars`](Graph::retain_pred_vars).
    pub fn retain_succ_snks(&mut self, v: Var, keep: impl FnMut(usize, TermId) -> bool) -> usize {
        self.nodes[v].succ_snks.retain_positions(keep)
    }

    /// Eagerly rewrites stale variable entries of `v`'s promoted lists to
    /// their current representative, at most once per collapse epoch.
    ///
    /// Call before traversing `v`'s lists; a no-op when nothing collapsed
    /// since the last call. See the [module docs](self) for the exact
    /// compaction contract (entries are rewritten, never removed, and
    /// membership stays keyed by raw ids).
    #[inline]
    pub fn compact_node(&mut self, v: Var, fwd: &Forwarding) {
        let node = &mut self.nodes[v];
        let epoch = fwd.collapsed_count();
        if node.compacted_at == epoch {
            return;
        }
        node.compacted_at = epoch;
        node.pred_vars.canonicalize(fwd);
        node.succ_vars.canonicalize(fwd);
    }

    /// Counts distinct canonical edges and live nodes.
    ///
    /// Stale entries produced by collapsing are resolved through `fwd` and
    /// deduplicated, so the census matches the graph a freshly-built solver
    /// would have (the paper's "Edges" columns).
    pub fn census(&self, fwd: &Forwarding) -> GraphCensus {
        let mut census = GraphCensus::default();
        let mut var_seen: FxHashSet<(Var, Var)> = FxHashSet::default();
        let mut src_seen: FxHashSet<(Var, TermId)> = FxHashSet::default();
        let mut snk_seen: FxHashSet<(Var, TermId)> = FxHashSet::default();
        for (v, node) in self.nodes.iter_enumerated() {
            if fwd.find_const(v) != v {
                continue; // collapsed away
            }
            census.live_vars += 1;
            for &u in node.pred_vars.as_slice() {
                let u = fwd.find_const(u);
                if u != v && var_seen.insert((u, v)) {
                    census.var_var_edges += 1;
                }
            }
            for &u in node.succ_vars.as_slice() {
                let u = fwd.find_const(u);
                if u != v && var_seen.insert((v, u)) {
                    census.var_var_edges += 1;
                }
            }
            for &s in node.pred_srcs.as_slice() {
                if src_seen.insert((v, s)) {
                    census.src_edges += 1;
                }
            }
            for &s in node.succ_snks.as_slice() {
                if snk_seen.insert((v, s)) {
                    census.snk_edges += 1;
                }
            }
        }
        census
    }

    /// Collects the canonical variable-variable edges `(from, to)` meaning
    /// `from ⊆ to`, resolving stale entries through `fwd`.
    pub fn var_var_edges(&self, fwd: &Forwarding) -> Vec<(Var, Var)> {
        let mut edges = Vec::new();
        let mut seen: FxHashSet<(Var, Var)> = FxHashSet::default();
        for (v, node) in self.nodes.iter_enumerated() {
            if fwd.find_const(v) != v {
                continue;
            }
            for &u in node.pred_vars.as_slice() {
                let u = fwd.find_const(u);
                if u != v && seen.insert((u, v)) {
                    edges.push((u, v));
                }
            }
            for &u in node.succ_vars.as_slice() {
                let u = fwd.find_const(u);
                if u != v && seen.insert((v, u)) {
                    edges.push((v, u));
                }
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_with(n: usize) -> (Graph, Forwarding) {
        let mut g = Graph::new();
        let mut f = Forwarding::new();
        for _ in 0..n {
            g.push_node();
            f.push();
        }
        (g, f)
    }

    #[test]
    fn inserts_dedup() {
        let (mut g, _) = graph_with(3);
        let (a, b) = (Var::new(0), Var::new(1));
        assert_eq!(g.insert_succ_var(a, b), Insert::New);
        assert_eq!(g.insert_succ_var(a, b), Insert::Redundant);
        assert_eq!(g.insert_pred_var(b, a), Insert::New, "pred side is a separate store");
        assert_eq!(g.node(a).succ_vars(), &[b]);
        assert_eq!(g.node(b).pred_vars(), &[a]);

        let t = TermId::new(0);
        assert_eq!(g.insert_src(a, t), Insert::New);
        assert_eq!(g.insert_src(a, t), Insert::Redundant);
        assert_eq!(g.insert_snk(a, t), Insert::New);
        assert_eq!(g.insert_snk(a, t), Insert::Redundant);
    }

    #[test]
    fn take_edges_empties_node() {
        let (mut g, _) = graph_with(2);
        let (a, b) = (Var::new(0), Var::new(1));
        g.insert_succ_var(a, b);
        g.insert_src(a, TermId::new(4));
        let taken = g.take_edges(a);
        assert_eq!(taken.succ_vars, vec![b]);
        assert_eq!(taken.pred_srcs, vec![TermId::new(4)]);
        assert!(g.node(a).succ_vars().is_empty());
        // Re-inserting after take is New again (sets were cleared).
        assert_eq!(g.insert_succ_var(a, b), Insert::New);
    }

    #[test]
    fn census_skips_collapsed_and_dedups_stale() {
        let (mut g, mut f) = graph_with(3);
        let (a, b, c) = (Var::new(0), Var::new(1), Var::new(2));
        g.insert_succ_var(a, b);
        g.insert_succ_var(a, c);
        // Collapse c into b: the edge a→c becomes a stale duplicate of a→b.
        f.union_into(c, b);
        let census = g.census(&f);
        assert_eq!(census.live_vars, 2);
        assert_eq!(census.var_var_edges, 1);
        assert_eq!(census.total_edges(), 1);
    }

    #[test]
    fn census_drops_self_edges_created_by_collapse() {
        let (mut g, mut f) = graph_with(2);
        let (a, b) = (Var::new(0), Var::new(1));
        g.insert_succ_var(a, b);
        f.union_into(b, a);
        let census = g.census(&f);
        assert_eq!(census.var_var_edges, 0, "a→b became a self edge");
        assert_eq!(census.live_vars, 1);
    }

    #[test]
    fn var_var_edges_are_canonical_and_directed() {
        let (mut g, mut f) = graph_with(4);
        let vs: Vec<Var> = (0..4).map(Var::new).collect();
        g.insert_succ_var(vs[0], vs[1]);
        g.insert_pred_var(vs[2], vs[1]); // v1 ⊆ v2 on the pred side
        g.insert_succ_var(vs[3], vs[0]);
        f.union_into(vs[3], vs[0]); // v3 → v0 becomes self edge
        let mut edges = g.var_var_edges(&f);
        edges.sort();
        assert_eq!(edges, vec![(vs[0], vs[1]), (vs[1], vs[2])]);
    }

    #[test]
    fn promotion_preserves_classification_and_order() {
        let n = 3 * SMALL_DEGREE_MAX;
        let (mut g, _) = graph_with(n + 1);
        let hub = Var::new(n);
        // Insert straddling the promotion boundary, with every insert
        // repeated: the Redundant classification must not notice the switch.
        for i in 0..n {
            assert_eq!(g.insert_succ_var(hub, Var::new(i)), Insert::New, "i={i}");
            assert_eq!(g.insert_succ_var(hub, Var::new(i)), Insert::Redundant, "i={i}");
            assert!(g.has_succ_var(hub, Var::new(i)));
        }
        // Insertion order is preserved across the promotion.
        let expect: Vec<Var> = (0..n).map(Var::new).collect();
        assert_eq!(g.node(hub).succ_vars(), expect.as_slice());
    }

    #[test]
    fn take_reverts_promoted_list_to_small_mode() {
        let n = SMALL_DEGREE_MAX + 5;
        let (mut g, _) = graph_with(n + 1);
        let hub = Var::new(n);
        for i in 0..n {
            g.insert_pred_var(hub, Var::new(i));
        }
        let taken = g.take_edges(hub);
        assert_eq!(taken.pred_vars.len(), n);
        // After take, inserts classify as New again (fresh membership).
        assert_eq!(g.insert_pred_var(hub, Var::new(0)), Insert::New);
        assert_eq!(g.insert_pred_var(hub, Var::new(0)), Insert::Redundant);
    }

    #[test]
    fn retain_removes_positionally_and_rebuilds_membership() {
        let n = SMALL_DEGREE_MAX + 6;
        let (mut g, _) = graph_with(n + 1);
        let hub = Var::new(n);
        for i in 0..n {
            g.insert_succ_var(hub, Var::new(i));
        }
        // Drop the even positions.
        let removed = g.retain_succ_vars(hub, |pos, _| pos % 2 == 1);
        assert_eq!(removed, n.div_ceil(2));
        let expect: Vec<Var> = (0..n).filter(|i| i % 2 == 1).map(Var::new).collect();
        assert_eq!(g.node(hub).succ_vars(), expect.as_slice());
        // Membership reflects the survivors: removed ids insert as New.
        assert_eq!(g.insert_succ_var(hub, Var::new(0)), Insert::New);
        assert_eq!(g.insert_succ_var(hub, Var::new(1)), Insert::Redundant);
        // A no-op retain removes nothing.
        assert_eq!(g.retain_succ_vars(hub, |_, _| true), 0);
    }

    #[test]
    fn reset_empties_every_list_back_to_small_mode() {
        let n = SMALL_DEGREE_MAX + 3;
        let (mut g, mut f) = graph_with(n + 2);
        let hub = Var::new(n);
        for i in 0..n {
            g.insert_succ_var(hub, Var::new(i));
            g.insert_src(hub, TermId::new(i));
        }
        f.union_into(Var::new(0), Var::new(n + 1));
        g.compact_node(hub, &f);
        g.reset();
        assert_eq!(g.len(), n + 2, "nodes are kept");
        assert!(g.node(hub).succ_vars().is_empty() && g.node(hub).pred_srcs().is_empty());
        assert!(!g.nodes[hub].succ_vars.is_promoted() && !g.nodes[hub].pred_srcs.is_promoted());
        assert_eq!(g.nodes[hub].compacted_at, 0, "compaction stamp");
        // Membership starts over: a re-insert is new, a repeat redundant.
        assert_eq!(g.insert_succ_var(hub, Var::new(0)), Insert::New);
        assert_eq!(g.insert_succ_var(hub, Var::new(0)), Insert::Redundant);
    }

    #[test]
    fn compaction_rewrites_promoted_entries_in_place() {
        let n = SMALL_DEGREE_MAX + 4;
        let (mut g, mut f) = graph_with(n + 2);
        let hub = Var::new(n);
        let witness = Var::new(n + 1);
        for i in 0..n {
            g.insert_succ_var(hub, Var::new(i));
        }
        // Collapse v0 into the witness; the hub's entry for v0 goes stale.
        f.union_into(Var::new(0), witness);
        g.compact_node(hub, &f);
        assert_eq!(g.node(hub).succ_vars()[0], witness, "entry rewritten");
        assert_eq!(g.node(hub).succ_vars().len(), n, "nothing removed");
        // Membership stays keyed by the raw inserted ids: the stale id is
        // still redundant, the witness it now points to is still new.
        assert_eq!(g.insert_succ_var(hub, Var::new(0)), Insert::Redundant);
        assert_eq!(g.insert_succ_var(hub, witness), Insert::New);
    }

    #[test]
    fn compaction_leaves_small_lists_untouched() {
        let (mut g, mut f) = graph_with(3);
        let (a, b, c) = (Var::new(0), Var::new(1), Var::new(2));
        g.insert_succ_var(a, b);
        f.union_into(b, c);
        g.compact_node(a, &f);
        // The raw id is preserved: membership would change otherwise.
        assert_eq!(g.node(a).succ_vars(), &[b]);
        assert_eq!(g.insert_succ_var(a, b), Insert::Redundant);
        assert_eq!(g.insert_succ_var(a, c), Insert::New);
    }

    #[test]
    fn take_resets_compaction_stamp_for_refilled_nodes() {
        let n = SMALL_DEGREE_MAX + 2;
        let (mut g, mut f) = graph_with(n + 2);
        let hub = Var::new(n);
        let witness = Var::new(n + 1);
        for i in 0..n {
            g.insert_succ_var(hub, Var::new(i));
        }
        // Stamp the hub at epoch 1, then empty it within the same epoch.
        f.union_into(Var::new(0), witness);
        g.compact_node(hub, &f);
        assert_eq!(g.node(hub).succ_vars()[0], witness);
        let taken = g.take_edges(hub);
        assert_eq!(taken.succ_vars.len(), n);
        // Re-populate past the promotion threshold, including a raw id that
        // is already stale at the current epoch. The stamp from before the
        // take must not suppress this compaction.
        for i in 0..n {
            assert_eq!(g.insert_succ_var(hub, Var::new(i)), Insert::New);
        }
        g.compact_node(hub, &f);
        for &u in g.node(hub).succ_vars() {
            assert_eq!(f.find_const(u), u, "compaction skipped a stale entry");
        }
        assert_eq!(g.node(hub).succ_vars()[0], witness);
    }

    #[test]
    fn chained_collapses_across_promotion_threshold_stay_canonical() {
        let n = SMALL_DEGREE_MAX + 8;
        // Layout: hub, then n targets, then a chain of three witnesses.
        let (mut g, mut f) = graph_with(1 + n + 3);
        let hub = Var::new(0);
        let targets: Vec<Var> = (1..=n).map(Var::new).collect();
        let (w1, w2) = (Var::new(n + 1), Var::new(n + 2));
        for &t in &targets {
            g.insert_succ_var(hub, t); // promotes past SMALL_DEGREE_MAX
        }
        // Epoch 1: first target collapses; epoch 2–3: its witness collapses
        // on, and a second target lands on the same final representative.
        f.union_into(targets[0], w1);
        g.compact_node(hub, &f);
        assert_eq!(g.node(hub).succ_vars()[0], w1);
        f.union_into(w1, w2);
        f.union_into(targets[1], w2);
        g.compact_node(hub, &f);
        assert_eq!(g.node(hub).succ_vars()[0], w2, "chained forward resolved");
        assert_eq!(g.node(hub).succ_vars()[1], w2, "second member resolved");
        // Empty the hub mid-epoch and refill it across the promotion
        // threshold with the raw (stale) target ids; the fresh membership
        // dedups nothing, so the list re-promotes with all n entries.
        let taken = g.take_edges(hub);
        assert_eq!(taken.succ_vars.len(), n);
        for &t in &targets {
            assert_eq!(g.insert_succ_var(hub, t), Insert::New);
        }
        g.compact_node(hub, &f);
        for &u in g.node(hub).succ_vars() {
            assert_eq!(f.find_const(u), u, "refilled list left a stale entry");
        }
        // The canonical view matches a freshly built graph holding the same
        // edges: hub → w2 (absorbing both collapsed targets) plus the
        // surviving targets.
        let census = g.census(&f);
        assert_eq!(census.live_vars, 1 + n + 3 - 3, "three vars collapsed away");
        assert_eq!(census.var_var_edges, n - 1, "two targets merged into w2");
        let mut edges = g.var_var_edges(&f);
        edges.sort();
        let mut expect: Vec<(Var, Var)> = targets[2..].iter().map(|&t| (hub, t)).collect();
        expect.push((hub, w2));
        expect.sort();
        assert_eq!(edges, expect);
    }

    #[test]
    fn compaction_is_stamped_per_collapse_epoch() {
        let n = SMALL_DEGREE_MAX + 1;
        let (mut g, mut f) = graph_with(n + 3);
        let hub = Var::new(n);
        for i in 0..n {
            g.insert_succ_var(hub, Var::new(i));
        }
        f.union_into(Var::new(0), Var::new(n + 1));
        g.compact_node(hub, &f);
        assert_eq!(g.node(hub).succ_vars()[0], Var::new(n + 1));
        // A second collapse re-stales the same entry; a fresh compact call
        // (new epoch) must pick it up.
        f.union_into(Var::new(n + 1), Var::new(n + 2));
        g.compact_node(hub, &f);
        assert_eq!(g.node(hub).succ_vars()[0], Var::new(n + 2));
    }
}
