//! Partial online cycle detection (Section 2.5, Figure 3).
//!
//! When a variable-variable edge is about to be inserted, the solver searches
//! for a chain closing a cycle:
//!
//! - inserting a successor edge `X → Y` searches along *predecessor* edges
//!   from `X` for a predecessor chain `Y ⋯→ … ⋯→ X` (`pred_chain`),
//! - inserting a predecessor edge `X ⋯→ Y` searches along *successor* edges
//!   from `Y` for a successor chain `Y → … → X` (`succ_chain`).
//!
//! The search differs from depth-first search only in that every step must
//! *decrease* the variable order `o(·)` — that restriction is what makes the
//! search cheap (Theorem 5.2: ~2.2 reachable nodes in expectation) at the
//! price of finding only *some* cycles. For inductive form the restriction is
//! already implied by the edge representation; for standard form it must be
//! enforced explicitly, and the paper also mentions the more expensive
//! *increasing*-chain variant for SF (57% detection), which we implement as
//! an ablation ([`StepOrder::Increasing`]).
//!
//! # Counting invariant
//!
//! [`SearchStats`] counters are defined *identically* for every combination
//! of form, [`ChainDir`], and [`StepOrder`], so SF and IF runs are directly
//! comparable:
//!
//! - `searches` — one per chain search (SF's
//!   [`SfSearchPolicy::AlsoIncreasing`] policy therefore counts two searches
//!   per insertion, one per step order, as the paper's cost discussion
//!   implies);
//! - `edges_scanned` — one per adjacency entry dequeued from a visited
//!   node's list, counted **before** the stale/self/order filters. Stale
//!   entries and order-rejected steps cost a scan in either form, and the
//!   count is independent of which side (pred/succ) represents the edge — a
//!   succ-chain search of a graph counts exactly what a pred-chain search of
//!   the transposed graph counts;
//! - `nodes_visited` — one per node *marked* (entered), including the start
//!   node, excluding the target (the search returns before marking it);
//! - `cycles_found` — one per search that returned a chain;
//! - `max_visits` — the largest per-search node-visit count seen so far, the
//!   worst case behind Theorem 5.2's *mean* (surfaced as the
//!   `search.max-visits` counter by the observability layer). Defined by the
//!   same per-search `nodes_visited` delta in every configuration, so it
//!   shares the mirror-symmetry guarantee of the other counters.

use bane_util::idx::Idx;
use crate::expr::Var;
use crate::forward::Forwarding;
use crate::graph::Graph;
use crate::order::VarOrder;
use bane_util::{EpochSetImpl, EpochStamp};

/// Which adjacency lists the chain search follows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChainDir {
    /// Follow predecessor edges (`pred_chain` in the paper).
    Pred,
    /// Follow successor edges (`succ_chain` in the paper).
    Succ,
}

/// The order restriction applied at every search step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StepOrder {
    /// Only step to variables *smaller* in the order (the paper's scheme).
    Decreasing,
    /// Only step to variables *larger* in the order (the SF ablation the
    /// paper reports at 57% detection but higher cost).
    Increasing,
    /// No restriction: a full depth-first search (\[Shm83\]'s impractical
    /// baseline, exposed for experiments on tiny inputs).
    Unrestricted,
}

/// Which chain searches standard form runs on each successor-edge insertion.
///
/// Inductive form always uses the paper's decreasing searches (its edge
/// representation implies them); these policies only affect `SF-Online`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SfSearchPolicy {
    /// The paper's scheme: follow successor edges to lower-ordered variables
    /// only (≈40% detection on the paper's suite).
    Decreasing,
    /// Additionally search *increasing* chains — the costlier ablation the
    /// paper reports at 57% detection ("the much higher cost outweighs any
    /// benefits").
    AlsoIncreasing,
    /// A full unrestricted depth-first search on every insertion — the
    /// impractical \[Shm83\] baseline, for tiny inputs only.
    FullDfs,
}

impl SfSearchPolicy {
    /// The step orders to try, in sequence.
    pub(crate) fn steps(self) -> &'static [StepOrder] {
        match self {
            SfSearchPolicy::Decreasing => &[StepOrder::Decreasing],
            SfSearchPolicy::AlsoIncreasing => {
                &[StepOrder::Decreasing, StepOrder::Increasing]
            }
            SfSearchPolicy::FullDfs => &[StepOrder::Unrestricted],
        }
    }
}

/// Counters accumulated across chain searches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of searches started.
    pub searches: u64,
    /// Nodes entered (marked) across all searches.
    pub nodes_visited: u64,
    /// Adjacency entries scanned across all searches.
    pub edges_scanned: u64,
    /// Searches that found a cycle.
    pub cycles_found: u64,
    /// Largest node-visit count of any single search.
    pub max_visits: u64,
}

/// Reusable state for chain searches (visited marks + DFS stack), generic
/// over the epoch stamp width (use the [`ChainSearch`] alias unless testing
/// wraparound).
#[derive(Clone, Debug, Default)]
pub(crate) struct ChainSearchImpl<E: EpochStamp = u32> {
    visited: EpochSetImpl<E>,
    stack: Vec<Frame>,
}

/// The production chain-search scratch: `u32` epoch stamps.
pub(crate) type ChainSearch = ChainSearchImpl<u32>;

#[derive(Clone, Copy, Debug)]
struct Frame {
    node: Var,
    next_child: usize,
}

impl<E: EpochStamp> ChainSearchImpl<E> {
    /// Creates search state for graphs of about `capacity` variables.
    pub(crate) fn new(capacity: usize) -> Self {
        Self { visited: EpochSetImpl::new(capacity), stack: Vec::new() }
    }

    /// Number of physical wraparound resets of the visited set (feeds the
    /// `epoch.resets` observability counter).
    #[cfg(any(feature = "obs", test))]
    pub(crate) fn epoch_resets(&self) -> u64 {
        self.visited.resets()
    }

    /// Searches for a chain from `start` to `target` along `dir` edges,
    /// every step obeying `step` with respect to `order`.
    ///
    /// On success, fills `path` with the node sequence `start, …, target` —
    /// exactly the variables on the cycle the pending edge would close — and
    /// returns `true`; `path` is cleared either way. The caller owns the
    /// buffer so the hot path allocates nothing (a found path reuses the
    /// buffer's capacity). Neighbor entries are canonicalized through `fwd`;
    /// self loops and already-visited nodes are skipped.
    ///
    /// Statistics accrue per the module-level counting invariant.
    #[allow(clippy::too_many_arguments)] // the search is parameterized by the paper's five knobs
    pub(crate) fn search(
        &mut self,
        graph: &Graph,
        fwd: &Forwarding,
        order: &VarOrder,
        start: Var,
        target: Var,
        dir: ChainDir,
        step: StepOrder,
        stats: &mut SearchStats,
        path: &mut Vec<Var>,
    ) -> bool {
        path.clear();
        stats.searches += 1;
        let visits_before = stats.nodes_visited;
        self.visited.begin();
        self.visited.mark(start.index());
        stats.nodes_visited += 1;
        self.stack.clear();
        self.stack.push(Frame { node: start, next_child: 0 });

        while let Some(frame) = self.stack.last().copied() {
            let list = match dir {
                ChainDir::Pred => graph.node(frame.node).pred_vars(),
                ChainDir::Succ => graph.node(frame.node).succ_vars(),
            };
            if frame.next_child >= list.len() {
                self.stack.pop();
                continue;
            }
            let raw = list[frame.next_child];
            self.stack.last_mut().expect("frame exists").next_child += 1;
            // The single counting site for `edges_scanned`: every dequeued
            // entry, before any filtering (see the module docs).
            stats.edges_scanned += 1;

            let v = fwd.find_const(raw);
            if v == frame.node {
                continue; // stale self edge
            }
            let ok = match step {
                StepOrder::Decreasing => order.lt(v, frame.node),
                StepOrder::Increasing => order.lt(frame.node, v),
                StepOrder::Unrestricted => true,
            };
            if !ok {
                continue;
            }
            if v == target {
                stats.cycles_found += 1;
                path.extend(self.stack.iter().map(|f| f.node));
                path.push(target);
                stats.max_visits = stats.max_visits.max(stats.nodes_visited - visits_before);
                return true;
            }
            if self.visited.mark(v.index()) {
                stats.nodes_visited += 1;
                self.stack.push(Frame { node: v, next_child: 0 });
            }
        }
        stats.max_visits = stats.max_visits.max(stats.nodes_visited - visits_before);
        false
    }

    /// Grows the visited set to cover `capacity` variables.
    pub(crate) fn grow(&mut self, capacity: usize) {
        self.visited.grow(capacity);
    }
}

/// Reusable scratch for one *offline* cycle-elimination sweep: Tarjan over
/// the current canonical variable-variable edges, exposing the non-trivial
/// SCCs for the solver to collapse.
///
/// This is the read-only half of
/// [`CycleElim::Periodic`](crate::solver::CycleElim): the solver computes
/// the sweep, then collapses each component through its own collapse
/// routine. The component order is Tarjan emission order (reverse
/// topological) and the member order within a component is Tarjan
/// stack-pop order, both fully determined by the canonical edge list.
///
/// The two-phase shape (compute into owned storage, collapse afterwards) is
/// deliberate: collapsing mutates the graph, so the sweep result must not
/// borrow it. All storage is reused across sweeps; a periodic run allocates
/// only when the graph outgrows every previous sweep.
#[derive(Clone, Debug, Default)]
pub(crate) struct CycleSweep {
    adj: Vec<Vec<u32>>,
    scratch: crate::scc::TarjanScratch,
    /// Members of all non-trivial components, flattened in component order.
    members: Vec<Var>,
    /// `members` span per non-trivial component.
    spans: Vec<(u32, u32)>,
}

impl CycleSweep {
    /// Runs Tarjan over `graph`'s canonical variable-variable edges and
    /// records every non-trivial SCC. Returns the number of components
    /// found; read them back with [`component`](CycleSweep::component).
    pub(crate) fn compute(&mut self, graph: &Graph, fwd: &Forwarding) -> usize {
        let n = graph.len();
        for list in &mut self.adj {
            list.clear();
        }
        self.adj.resize_with(n, Vec::new);
        for (a, b) in graph.var_var_edges(fwd) {
            self.adj[a.index()].push(b.raw());
        }
        let scc = crate::scc::tarjan_with(&mut self.scratch, n, &self.adj[..n]);
        self.members.clear();
        self.spans.clear();
        for comp in scc.nontrivial() {
            let start = self.members.len() as u32;
            self.members.extend(comp.iter().map(|&i| Var::new(i as usize)));
            self.spans.push((start, self.members.len() as u32));
        }
        self.spans.len()
    }

    /// The members of non-trivial component `i` of the last
    /// [`compute`](CycleSweep::compute), in collapse order.
    pub(crate) fn component(&self, i: usize) -> &[Var] {
        let (start, end) = self.spans[i];
        &self.members[start as usize..end as usize]
    }

    /// Physical wraparound resets of the Tarjan scratch's visited set (feeds
    /// the `epoch.resets` observability counter).
    #[cfg(feature = "obs")]
    pub(crate) fn epoch_resets(&self) -> u64 {
        self.scratch.epoch_resets()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::OrderPolicy;

    /// Builds a graph with `n` nodes under creation order.
    fn setup(n: usize) -> (Graph, Forwarding, VarOrder, ChainSearch) {
        let mut g = Graph::new();
        let mut f = Forwarding::new();
        let mut o = VarOrder::new(OrderPolicy::Creation);
        for _ in 0..n {
            let v = g.push_node();
            f.push();
            o.assign(v);
        }
        (g, f, o, ChainSearch::new(n))
    }

    fn v(i: usize) -> Var {
        Var::new(i)
    }

    /// Test convenience over the out-param API: returns the found path.
    #[allow(clippy::too_many_arguments)]
    fn run(
        s: &mut ChainSearch,
        g: &Graph,
        f: &Forwarding,
        o: &VarOrder,
        start: Var,
        target: Var,
        dir: ChainDir,
        step: StepOrder,
        st: &mut SearchStats,
    ) -> Option<Vec<Var>> {
        let mut path = Vec::new();
        s.search(g, f, o, start, target, dir, step, st, &mut path).then_some(path)
    }

    #[test]
    fn finds_direct_pred_chain() {
        let (mut g, f, o, mut s) = setup(3);
        // pred chain: 0 ⋯→ 1 ⋯→ 2 (decreasing walk from 2 reaches 0).
        g.insert_pred_var(v(1), v(0));
        g.insert_pred_var(v(2), v(1));
        let mut st = SearchStats::default();
        let path = run(&mut s, &g, &f, &o, v(2), v(0), ChainDir::Pred, StepOrder::Decreasing, &mut st)
            .expect("chain exists");
        assert_eq!(path, vec![v(2), v(1), v(0)]);
        assert_eq!(st.cycles_found, 1);
        assert!(st.nodes_visited >= 2);
    }

    #[test]
    fn respects_decreasing_order_restriction() {
        let (mut g, f, o, mut s) = setup(3);
        // succ chain 0 → 2 → 1: the step 0 → 2 increases the order, so a
        // decreasing search from 0 must fail even though 1 is reachable.
        g.insert_succ_var(v(0), v(2));
        g.insert_succ_var(v(2), v(1));
        let mut st = SearchStats::default();
        let found =
            run(&mut s, &g, &f, &o, v(0), v(1), ChainDir::Succ, StepOrder::Decreasing, &mut st);
        assert!(found.is_none());
        // An unrestricted (full DFS) search finds it.
        let found =
            run(&mut s, &g, &f, &o, v(0), v(1), ChainDir::Succ, StepOrder::Unrestricted, &mut st);
        assert_eq!(found.unwrap(), vec![v(0), v(2), v(1)]);
    }

    #[test]
    fn increasing_restriction_mirrors_decreasing() {
        let (mut g, f, o, mut s) = setup(3);
        g.insert_succ_var(v(0), v(1));
        g.insert_succ_var(v(1), v(2));
        let mut st = SearchStats::default();
        let up =
            run(&mut s, &g, &f, &o, v(0), v(2), ChainDir::Succ, StepOrder::Increasing, &mut st);
        assert_eq!(up.unwrap(), vec![v(0), v(1), v(2)]);
        let down =
            run(&mut s, &g, &f, &o, v(0), v(2), ChainDir::Succ, StepOrder::Decreasing, &mut st);
        assert!(down.is_none());
    }

    #[test]
    fn final_step_to_target_also_obeys_order() {
        let (mut g, f, o, mut s) = setup(2);
        // Direct pred edge 1 ⋯→ 0 exists, but a decreasing walk from 0 cannot
        // step "up" to 1 — mirroring the paper's pseudocode where the order
        // check guards recursion into the target.
        g.insert_pred_var(v(0), v(1));
        let mut st = SearchStats::default();
        let found =
            run(&mut s, &g, &f, &o, v(0), v(1), ChainDir::Pred, StepOrder::Decreasing, &mut st);
        assert!(found.is_none());
    }

    #[test]
    fn skips_stale_and_self_entries() {
        let (mut g, mut f, o, mut s) = setup(4);
        // 3 ⋯→ 2 ⋯→ ... with 3 collapsed into 2: entry becomes self edge.
        g.insert_pred_var(v(2), v(3));
        f.union_into(v(3), v(2));
        g.insert_pred_var(v(2), v(1));
        g.insert_pred_var(v(1), v(0));
        let mut st = SearchStats::default();
        let path = run(&mut s, &g, &f, &o, v(2), v(0), ChainDir::Pred, StepOrder::Decreasing, &mut st)
            .expect("chain through live edges");
        assert_eq!(path, vec![v(2), v(1), v(0)]);
    }

    #[test]
    fn no_chain_returns_false_without_cycles_found() {
        let (g, f, o, mut s) = setup(3);
        let mut st = SearchStats::default();
        let found =
            run(&mut s, &g, &f, &o, v(2), v(0), ChainDir::Pred, StepOrder::Decreasing, &mut st);
        assert!(found.is_none());
        assert_eq!(st.cycles_found, 0);
        assert_eq!(st.searches, 1);
    }

    #[test]
    fn found_path_reuses_the_callers_buffer() {
        let (mut g, f, o, mut s) = setup(3);
        g.insert_pred_var(v(1), v(0));
        g.insert_pred_var(v(2), v(1));
        let mut st = SearchStats::default();
        let mut path = vec![v(2); 64]; // stale content + capacity
        let cap = path.capacity();
        assert!(s.search(&g, &f, &o, v(2), v(0), ChainDir::Pred, StepOrder::Decreasing, &mut st, &mut path));
        assert_eq!(path, vec![v(2), v(1), v(0)], "buffer was cleared first");
        assert_eq!(path.capacity(), cap, "no reallocation for short paths");
        // A failed search leaves the buffer cleared.
        assert!(!s.search(&g, &f, &o, v(0), v(2), ChainDir::Pred, StepOrder::Decreasing, &mut st, &mut path));
        assert!(path.is_empty());
    }

    #[test]
    fn visited_marks_prevent_exponential_rescans() {
        // Dense diamond layers: each layer fully connected to the next lower
        // one. With memoized marks the visit count is linear in nodes.
        let n = 40;
        let (mut g, f, o, mut s) = setup(n);
        for i in (1..n).rev() {
            for j in 0..i {
                g.insert_pred_var(v(i), v(j));
            }
        }
        let mut st = SearchStats::default();
        // Search for an absent target: forces full exploration.
        let found = run(
            &mut s,
            &g,
            &f,
            &o,
            v(n - 1),
            v(n), // no node ever steps to this id, so the search is exhaustive
            ChainDir::Pred,
            StepOrder::Decreasing,
            &mut st,
        );
        assert!(found.is_none());
        assert!(st.nodes_visited <= n as u64 + 1, "marks keep the walk linear");
    }

    /// 300 searches over `u8` epoch stamps force the visited set's
    /// wraparound reset (at search 256); results and stats must keep
    /// matching a fresh searcher, and the reset must be counted.
    #[test]
    fn tiny_epoch_search_survives_wraparound() {
        let (mut g, f, o, _) = setup(4);
        g.insert_pred_var(v(1), v(0));
        g.insert_pred_var(v(2), v(1));
        g.insert_pred_var(v(3), v(2));
        let mut tiny: ChainSearchImpl<u8> = ChainSearchImpl::new(4);
        let mut tiny_path = Vec::new();
        for round in 0..300usize {
            let (start, target) = if round % 2 == 0 { (v(3), v(0)) } else { (v(0), v(3)) };
            let mut st_tiny = SearchStats::default();
            let found = tiny.search(
                &g, &f, &o, start, target, ChainDir::Pred, StepOrder::Decreasing,
                &mut st_tiny, &mut tiny_path,
            );
            let mut fresh = ChainSearch::new(4);
            let mut st_fresh = SearchStats::default();
            let mut fresh_path = Vec::new();
            let found_fresh = fresh.search(
                &g, &f, &o, start, target, ChainDir::Pred, StepOrder::Decreasing,
                &mut st_fresh, &mut fresh_path,
            );
            assert_eq!(found, found_fresh, "round {round} diverged after epoch wrap");
            assert_eq!(tiny_path, fresh_path, "round {round}");
            assert_eq!(st_tiny, st_fresh, "round {round}");
        }
        assert_eq!(tiny.epoch_resets(), 1, "u8 epochs wrap once in 300 searches");
    }

    /// The module-doc counting invariant, checked directly: a succ-chain
    /// search (SF's direction) over a random graph produces *identical*
    /// [`SearchStats`] to a pred-chain search (IF's direction) over the
    /// transposed graph with mirrored entry order.
    #[test]
    fn stats_are_mirror_symmetric_between_sf_and_if_directions() {
        use bane_util::SplitMix64;
        let mut rng = SplitMix64::new(0xC0FFEE);
        for round in 0..50 {
            let n = 24;
            let (mut g_succ, mut f, o, mut s) = setup(n);
            let mut g_pred = Graph::new();
            for _ in 0..n {
                g_pred.push_node();
            }
            // Random edges inserted into both graphs in the same order, once
            // as succ edges and once (transposed) as pred edges, so list
            // entry order mirrors exactly. A few collapses make stale and
            // self entries appear on both sides identically.
            for _ in 0..60 {
                let a = v(rng.next_below(n as u64) as usize);
                let b = v(rng.next_below(n as u64) as usize);
                g_succ.insert_succ_var(a, b);
                g_pred.insert_pred_var(a, b);
            }
            for _ in 0..3 {
                let a = v(rng.next_below(n as u64) as usize);
                let b = v(rng.next_below(n as u64) as usize);
                f.union_into(a, b);
            }
            for _ in 0..8 {
                let start = f.find_const(v(rng.next_below(n as u64) as usize));
                let target = v(rng.next_below(n as u64 + 1) as usize); // may be absent
                for step in [StepOrder::Decreasing, StepOrder::Increasing, StepOrder::Unrestricted]
                {
                    let mut st_succ = SearchStats::default();
                    let mut st_pred = SearchStats::default();
                    let p1 = run(
                        &mut s, &g_succ, &f, &o, start, target, ChainDir::Succ, step,
                        &mut st_succ,
                    );
                    let p2 = run(
                        &mut s, &g_pred, &f, &o, start, target, ChainDir::Pred, step,
                        &mut st_pred,
                    );
                    assert_eq!(st_succ, st_pred, "round {round} {step:?}");
                    assert_eq!(p1, p2, "round {round} {step:?}");
                }
            }
        }
    }
}
