//! Per-group constraint provenance (the `fast_apply` side-table).
//!
//! A solver serving non-monotone deltas needs to answer, per graph fact,
//! "which constraint groups does this fact's derivation depend on?". Edges
//! carry a 4-byte [`ProvId`] in side arrays kept positionally parallel to
//! the adjacency lists (see `Solver`'s prov mirrors), not a per-edge set.
//!
//! A `ProvId` names a node of an append-only **union DAG** ([`ProvTable`]):
//! a node is either a leaf (one group, or *atom*) or the union of two
//! earlier nodes. The atom set of `p` is the set of leaves reachable from
//! `p`. [`ProvTable::union`] is O(1) — it pushes one node — so tracking adds
//! a constant per derived fact to the solve, with no merging, interning or
//! width limit: a fact downstream of hundreds of groups stays exact.
//!
//! Derived facts union the provenance of their premises, so the invariant
//! the `fast_apply` retraction relies on is *transitive*: if group `g` is
//! not in `prov(e)`, then the derivation of `e` that the solver recorded
//! used no fact of `g` anywhere in its tree, and `e` survives retracting `g`
//! unchanged. The converse does **not** hold — the solver records only the
//! *first* derivation of each fact, so a fact may carry `g` while another,
//! `g`-free derivation exists. Retraction therefore over-deletes and
//! re-derives (delete-and-rederive), which is sound.
//!
//! Membership is asked once per retraction, not once per edge: children
//! always precede their parents, so one ascending pass over the nodes
//! ([`ProvTable::retraction_mask`]) marks every id that reaches a retracted
//! atom, and each edge is then tested with one bit read
//! ([`ProvMask::hits`]).
//!
//! Two sentinel ids bound the lattice: [`ProvTable::EMPTY`] (no group — facts
//! added outside any group, never retracted) and [`ProvTable::TOP`]
//! ("depends on everything" — for derivations whose premises cannot be
//! attributed, such as offline cycle-elimination sweeps). `TOP` hits every
//! non-empty retraction, forcing the conservative fallback path.

use bane_util::{BitSet, FxHashMap};

/// Handle to a node of a [`ProvTable`]: the set of atoms reachable from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProvId(u32);

impl ProvId {
    /// The raw table index.
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// One DAG node. Children of a `Union` are always earlier ids.
#[derive(Clone, Copy, Debug)]
enum Node {
    /// The two sentinels, which reach no leaf.
    Sentinel,
    Leaf(u32),
    Union(ProvId, ProvId),
}

/// The provenance union DAG: leaves are interned per atom, unions appended.
#[derive(Clone, Debug)]
pub struct ProvTable {
    nodes: Vec<Node>,
    leaves: FxHashMap<u32, ProvId>,
}

impl Default for ProvTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ProvTable {
    /// The empty set: facts attributed to no group. Identity of
    /// [`union`](ProvTable::union); never hit by a retraction.
    pub const EMPTY: ProvId = ProvId(0);
    /// The "all groups" set. Absorbing under union; hit by every non-empty
    /// retraction.
    pub const TOP: ProvId = ProvId(1);

    /// A table holding only the two sentinels.
    pub fn new() -> Self {
        ProvTable {
            nodes: vec![Node::Sentinel, Node::Sentinel],
            leaves: FxHashMap::default(),
        }
    }

    /// Drops every node but the two sentinels, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.nodes.truncate(2);
        self.leaves.clear();
    }

    /// Number of nodes (including the sentinels).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the sentinels exist.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    /// The leaf `{atom}` (one per atom).
    pub fn singleton(&mut self, atom: u32) -> ProvId {
        let next = ProvId(self.nodes.len() as u32);
        let id = *self.leaves.entry(atom).or_insert(next);
        if id == next {
            self.nodes.push(Node::Leaf(atom));
        }
        id
    }

    /// Whether `p` is the `TOP` sentinel.
    pub fn is_top(&self, p: ProvId) -> bool {
        p == Self::TOP
    }

    /// The union of `a` and `b`: one new node unless an identity applies.
    pub fn union(&mut self, a: ProvId, b: ProvId) -> ProvId {
        if a == b || b == Self::EMPTY {
            return a;
        }
        if a == Self::EMPTY {
            return b;
        }
        if a == Self::TOP || b == Self::TOP {
            return Self::TOP;
        }
        let id = ProvId(self.nodes.len() as u32);
        self.nodes.push(Node::Union(a, b));
        id
    }

    /// The atoms of `p`, sorted. `TOP` reports an empty list — callers must
    /// branch on [`is_top`](ProvTable::is_top) first when it matters. Walks
    /// the sub-DAG: meant for inspection, not for hot paths.
    pub fn members(&self, p: ProvId) -> Vec<u32> {
        let mut seen = BitSet::new(self.nodes.len());
        let mut stack = vec![p];
        let mut out = Vec::new();
        while let Some(q) = stack.pop() {
            if !seen.insert(q.0 as usize) {
                continue;
            }
            match self.nodes[q.0 as usize] {
                Node::Sentinel => {}
                Node::Leaf(atom) => out.push(atom),
                Node::Union(a, b) => stack.extend([a, b]),
            }
        }
        out.sort_unstable();
        out
    }

    /// Marks every id whose atom set intersects `atoms` (sorted or not):
    /// one ascending pass, since children precede parents.
    pub fn retraction_mask(&self, atoms: &[u32]) -> ProvMask {
        let mut sorted = atoms.to_vec();
        sorted.sort_unstable();
        let mut bits = BitSet::new(self.nodes.len());
        if sorted.is_empty() {
            return ProvMask { bits };
        }
        bits.insert(Self::TOP.0 as usize);
        for (i, node) in self.nodes.iter().enumerate() {
            let hit = match *node {
                Node::Sentinel => false,
                Node::Leaf(atom) => sorted.binary_search(&atom).is_ok(),
                Node::Union(a, b) => bits.contains(a.0 as usize) || bits.contains(b.0 as usize),
            };
            if hit {
                bits.insert(i);
            }
        }
        ProvMask { bits }
    }
}

/// The ids of a [`ProvTable`] that reach a retracted atom, as computed by
/// [`ProvTable::retraction_mask`]. Ids created after the mask read as
/// misses.
#[derive(Clone, Debug)]
pub struct ProvMask {
    bits: BitSet,
}

impl ProvMask {
    /// Whether `p` depends on a retracted atom.
    #[inline]
    pub fn hits(&self, p: ProvId) -> bool {
        self.bits.contains(p.0 as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinels_and_singletons() {
        let mut t = ProvTable::new();
        assert!(t.is_empty());
        let a = t.singleton(3);
        let a2 = t.singleton(3);
        assert_eq!(a, a2, "one leaf per atom");
        assert_eq!(t.members(a), [3]);
        let m = t.retraction_mask(&[3]);
        assert!(m.hits(a));
        assert!(!m.hits(ProvTable::EMPTY));
        assert!(m.hits(ProvTable::TOP));
        assert!(!t.retraction_mask(&[4]).hits(a));
        assert!(t.retraction_mask(&[9]).hits(ProvTable::TOP));
        assert!(!t.retraction_mask(&[]).hits(ProvTable::TOP));
    }

    #[test]
    fn union_respects_identities() {
        let mut t = ProvTable::new();
        let a = t.singleton(1);
        let b = t.singleton(5);
        let ab = t.union(a, b);
        assert_eq!(t.members(ab), [1, 5]);
        let aba = t.union(ab, a);
        assert_eq!(t.members(aba), [1, 5], "absorbs subset");
        assert_eq!(t.union(ab, ab), ab);
        assert_eq!(t.union(ProvTable::EMPTY, b), b);
        assert_eq!(t.union(b, ProvTable::EMPTY), b);
        assert_eq!(t.union(ProvTable::TOP, b), ProvTable::TOP);
        assert_eq!(t.union(b, ProvTable::TOP), ProvTable::TOP);
        let m = t.retraction_mask(&[5]);
        assert!(m.hits(ab) && m.hits(b) && !m.hits(a));
    }

    /// Unions of any width stay exact: there is no saturation to `TOP`.
    #[test]
    fn wide_unions_stay_exact() {
        let mut t = ProvTable::new();
        let mut acc = ProvTable::EMPTY;
        for g in 0..100 {
            let s = t.singleton(g);
            acc = t.union(acc, s);
        }
        assert!(!t.is_top(acc));
        assert_eq!(t.members(acc), (0..100).collect::<Vec<_>>());
        assert!(t.retraction_mask(&[37]).hits(acc), "a member atom hits");
        assert!(
            !t.retraction_mask(&[100, 500]).hits(acc),
            "outside atoms miss"
        );
    }
}
