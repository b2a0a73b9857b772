//! Strongly connected components (iterative Tarjan).
//!
//! Used in two places: computing the initial/final SCC statistics of Table 1,
//! and building the *oracle* partition (Section 4) — the SCCs of the final
//! constraint graph, which the oracle experiments use to pre-alias every
//! variable to its component's witness.

use bane_util::{EpochSetImpl, EpochStamp};

/// The SCC decomposition of a directed graph over nodes `0..n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SccResult {
    comp_of: Vec<u32>,
    components: Vec<Vec<u32>>,
}

impl SccResult {
    /// The component id of `node`.
    pub fn comp_of(&self, node: u32) -> u32 {
        self.comp_of[node as usize]
    }

    /// All components, each a list of member nodes. Components are emitted
    /// in reverse topological order of the condensation (Tarjan order).
    pub fn components(&self) -> &[Vec<u32>] {
        &self.components
    }

    /// Components with at least two members (the paper's "non-trivial" SCCs).
    pub fn nontrivial(&self) -> impl Iterator<Item = &Vec<u32>> {
        self.components.iter().filter(|c| c.len() > 1)
    }

    /// Number of nodes that belong to a non-trivial SCC.
    pub fn vars_in_cycles(&self) -> usize {
        self.nontrivial().map(|c| c.len()).sum()
    }

    /// Size of the largest SCC (0 for an empty graph).
    pub fn max_component(&self) -> usize {
        self.components.iter().map(|c| c.len()).max().unwrap_or(0)
    }

    /// Whether `a` and `b` are in the same component.
    pub fn same(&self, a: u32, b: u32) -> bool {
        self.comp_of(a) == self.comp_of(b)
    }
}

/// Reusable working storage for [`tarjan_with`], generic over the epoch
/// stamp width (use the [`TarjanScratch`] alias unless testing wraparound).
///
/// A periodic-elimination solver runs many SCC passes over the life of one
/// resolution; keeping the DFS bookkeeping in one long-lived scratch avoids
/// re-allocating five `O(n)` vectors per pass. Starting a pass is also O(1),
/// not O(n): the "already discovered" test is an epoch-stamped visited set
/// cleared by bumping its generation, the `index`/`lowlink` arrays are only
/// ever read for nodes marked in the current generation (stale values from
/// earlier passes are unreachable), and `on_stack` self-clears — every node
/// pushed during a pass is popped with its flag reset before the pass ends.
/// The scratch grows to the largest graph it has seen and stays there.
#[derive(Clone, Debug, Default)]
pub struct TarjanScratchImpl<E: EpochStamp = u32> {
    visited: EpochSetImpl<E>,
    index: Vec<u32>,
    lowlink: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<u32>,
    /// Explicit DFS frames: (node, next child position).
    frames: Vec<(u32, usize)>,
}

/// The production Tarjan scratch: `u32` epoch stamps.
pub type TarjanScratch = TarjanScratchImpl<u32>;

impl<E: EpochStamp> TarjanScratchImpl<E> {
    /// Number of physical wraparound resets of the visited set (feeds the
    /// `epoch.resets` observability counter).
    #[cfg(any(feature = "obs", test))]
    pub(crate) fn epoch_resets(&self) -> u64 {
        self.visited.resets()
    }
}

/// Computes SCCs of the graph with nodes `0..n` and adjacency `adj`
/// (`adj[u]` lists the successors of `u`; ids ≥ `n` are ignored).
///
/// Runs Tarjan's algorithm iteratively, so deep graphs cannot overflow the
/// call stack. Allocates fresh working storage; callers running repeated
/// passes should prefer [`tarjan_with`].
///
/// # Examples
///
/// ```
/// use bane_core::scc::tarjan;
///
/// // 0 → 1 → 2 → 0 is one cycle; 3 is alone.
/// let adj = vec![vec![1], vec![2], vec![0], vec![0]];
/// let scc = tarjan(4, &adj);
/// assert!(scc.same(0, 1) && scc.same(1, 2));
/// assert!(!scc.same(0, 3));
/// assert_eq!(scc.vars_in_cycles(), 3);
/// assert_eq!(scc.max_component(), 3);
/// ```
pub fn tarjan(n: usize, adj: &[Vec<u32>]) -> SccResult {
    tarjan_with(&mut TarjanScratch::default(), n, adj)
}

/// Like [`tarjan`], but reuses `scratch` for the DFS bookkeeping instead of
/// allocating it per call. Pass start is O(1) in the graph size — see
/// [`TarjanScratchImpl`] for why no per-pass clearing is needed.
pub fn tarjan_with<E: EpochStamp>(
    scratch: &mut TarjanScratchImpl<E>,
    n: usize,
    adj: &[Vec<u32>],
) -> SccResult {
    const UNSET: u32 = u32::MAX;
    scratch.visited.begin();
    scratch.visited.grow(n);
    if scratch.index.len() < n {
        scratch.index.resize(n, 0);
        scratch.lowlink.resize(n, 0);
        scratch.on_stack.resize(n, false);
    }
    debug_assert!(scratch.stack.is_empty() && scratch.frames.is_empty());
    let TarjanScratchImpl { visited, index, lowlink, on_stack, stack: tarjan_stack, frames } =
        scratch;
    let mut comp_of = vec![UNSET; n];
    let mut components: Vec<Vec<u32>> = Vec::new();
    let mut next_index = 0u32;

    for root in 0..n as u32 {
        if !visited.mark(root as usize) {
            continue;
        }
        frames.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        tarjan_stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (u, ref mut child)) = frames.last_mut() {
            let succs: &[u32] = adj.get(u as usize).map(Vec::as_slice).unwrap_or(&[]);
            let mut advanced = false;
            while *child < succs.len() {
                let v = succs[*child];
                *child += 1;
                if v as usize >= n {
                    continue;
                }
                if visited.mark(v as usize) {
                    // Tree edge: descend.
                    index[v as usize] = next_index;
                    lowlink[v as usize] = next_index;
                    next_index += 1;
                    tarjan_stack.push(v);
                    on_stack[v as usize] = true;
                    frames.push((v, 0));
                    advanced = true;
                    break;
                } else if on_stack[v as usize] {
                    lowlink[u as usize] = lowlink[u as usize].min(index[v as usize]);
                }
            }
            if advanced {
                continue;
            }
            // u is finished: maybe emit a component, then propagate lowlink.
            frames.pop();
            if lowlink[u as usize] == index[u as usize] {
                let comp_id = components.len() as u32;
                let mut comp = Vec::new();
                loop {
                    let w = tarjan_stack.pop().expect("tarjan stack underflow");
                    on_stack[w as usize] = false;
                    comp_of[w as usize] = comp_id;
                    comp.push(w);
                    if w == u {
                        break;
                    }
                }
                components.push(comp);
            }
            if let Some(&(parent, _)) = frames.last() {
                lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[u as usize]);
            }
        }
    }

    SccResult { comp_of, components }
}

/// Summary statistics of an SCC decomposition (Table 1 columns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SccStats {
    /// Number of nodes in non-trivial SCCs ("#Vars in SCC").
    pub vars_in_cycles: usize,
    /// Largest SCC size ("SCC max"; 0 when acyclic).
    pub max_component: usize,
    /// Number of non-trivial SCCs.
    pub nontrivial_count: usize,
}

impl From<&SccResult> for SccStats {
    fn from(scc: &SccResult) -> Self {
        let max = scc.nontrivial().map(|c| c.len()).max().unwrap_or(0);
        SccStats {
            vars_in_cycles: scc.vars_in_cycles(),
            max_component: max,
            nontrivial_count: scc.nontrivial().count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let scc = tarjan(0, &[]);
        assert_eq!(scc.components().len(), 0);
        assert_eq!(scc.max_component(), 0);
        assert_eq!(scc.vars_in_cycles(), 0);
    }

    #[test]
    fn acyclic_graph_has_singletons() {
        let adj = vec![vec![1, 2], vec![2], vec![]];
        let scc = tarjan(3, &adj);
        assert_eq!(scc.components().len(), 3);
        assert_eq!(scc.vars_in_cycles(), 0);
        assert_eq!(scc.max_component(), 1);
        // Reverse topological: 2 before 1 before 0.
        assert_eq!(scc.components()[0], vec![2]);
    }

    #[test]
    fn self_loop_is_trivial_component() {
        // A self loop does not make a variable "in a cycle" for collapsing
        // purposes (X ⊆ X is vacuous).
        let adj = vec![vec![0u32]];
        let scc = tarjan(1, &adj);
        assert_eq!(scc.components().len(), 1);
        assert_eq!(scc.vars_in_cycles(), 0, "singleton even with a self edge");
    }

    #[test]
    fn two_interlocking_cycles_merge() {
        // 0→1→2→0 and 1→3→1 form one component {0,1,2,3}.
        let adj = vec![vec![1], vec![2, 3], vec![0], vec![1]];
        let scc = tarjan(4, &adj);
        assert_eq!(scc.components().len(), 1);
        assert_eq!(scc.max_component(), 4);
    }

    #[test]
    fn separate_cycles_stay_separate() {
        let adj = vec![vec![1], vec![0], vec![3], vec![2], vec![]];
        let scc = tarjan(5, &adj);
        assert!(scc.same(0, 1));
        assert!(scc.same(2, 3));
        assert!(!scc.same(0, 2));
        assert_eq!(scc.vars_in_cycles(), 4);
        let stats = SccStats::from(&scc);
        assert_eq!(stats.nontrivial_count, 2);
        assert_eq!(stats.max_component, 2);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // 100k-node path plus a back edge forming one giant cycle.
        let n = 100_000;
        let mut adj: Vec<Vec<u32>> = (0..n).map(|i| vec![(i as u32 + 1) % n as u32]).collect();
        adj[n - 1] = vec![0];
        let scc = tarjan(n, &adj);
        assert_eq!(scc.max_component(), n);
    }

    #[test]
    fn out_of_range_targets_ignored() {
        let adj = vec![vec![1, 99], vec![0]];
        let scc = tarjan(2, &adj);
        assert!(scc.same(0, 1));
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let mut scratch = TarjanScratch::default();
        let graphs: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![1], vec![2], vec![0], vec![0]],
            vec![vec![1, 2], vec![2], vec![]],
            vec![],
            vec![vec![1], vec![0], vec![3], vec![2], vec![]],
        ];
        for adj in &graphs {
            let fresh = tarjan(adj.len(), adj);
            let reused = tarjan_with(&mut scratch, adj.len(), adj);
            assert_eq!(fresh, reused);
        }
        assert_eq!(scratch.epoch_resets(), 0, "u32 stamps never wrap here");
    }

    /// 300 passes over `u8` epoch stamps force the wraparound reset (at pass
    /// 256); every pass must still match a fresh run, and the reset must be
    /// counted.
    #[test]
    fn tiny_epoch_scratch_survives_wraparound() {
        let mut scratch: TarjanScratchImpl<u8> = TarjanScratchImpl::default();
        let graphs: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![1], vec![2], vec![0], vec![0]],
            vec![vec![1, 2], vec![2], vec![]],
            vec![vec![1], vec![0], vec![3], vec![2], vec![]],
        ];
        for pass in 0..300 {
            let adj = &graphs[pass % graphs.len()];
            let fresh = tarjan(adj.len(), adj);
            let reused = tarjan_with(&mut scratch, adj.len(), adj);
            assert_eq!(fresh, reused, "pass {pass} diverged after epoch wrap");
        }
        assert_eq!(scratch.epoch_resets(), 1, "u8 epochs wrap once in 300 passes");
    }
}
