//! Forwarding pointers for collapsed variables (union-find).
//!
//! When a cycle `X₁ ⊆ … ⊆ Xₙ ⊆ X₁` is eliminated (Section 2.5), the solver
//! picks a *witness* variable and redirects the rest of the cycle to it
//! through forwarding pointers. [`Forwarding`] is a union-find structure
//! whose `union` is *directed*: the caller chooses which element becomes the
//! representative (the paper uses the lowest-indexed variable to preserve
//! inductive form). Lookups use path halving, so chains of collapses stay
//! effectively constant-time.

use crate::expr::Var;
use bane_util::idx::IdxVec;

/// Union-find over variables with caller-chosen representatives.
///
/// # Examples
///
/// ```
/// use bane_core::forward::Forwarding;
/// use bane_core::expr::Var;
///
/// let mut fwd = Forwarding::new();
/// let a = fwd.push();
/// let b = fwd.push();
/// assert_ne!(fwd.find(a), fwd.find(b));
/// fwd.union_into(b, a); // collapse b into witness a
/// assert_eq!(fwd.find(b), a);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Forwarding {
    parent: IdxVec<Var, Var>,
    collapsed: usize,
}

impl Forwarding {
    /// Creates an empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the next variable as its own representative and returns it.
    pub fn push(&mut self) -> Var {
        let v = self.parent.next_id();
        self.parent.push(v);
        v
    }

    /// Number of registered variables (including collapsed ones).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether no variables are registered.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of variables that have been forwarded into another one.
    pub(crate) fn collapsed_count(&self) -> usize {
        self.collapsed
    }

    /// Returns the representative of `v`, compressing paths along the way.
    #[inline]
    pub fn find(&mut self, mut v: Var) -> Var {
        loop {
            let p = self.parent[v];
            if p == v {
                return v;
            }
            let gp = self.parent[p];
            self.parent[v] = gp; // path halving
            v = gp;
        }
    }

    /// Returns the representative of `v` without mutating (no compression).
    pub fn find_const(&self, mut v: Var) -> Var {
        loop {
            let p = self.parent[v];
            if p == v {
                return v;
            }
            v = p;
        }
    }

    /// Whether `v` is currently a representative.
    pub fn is_rep(&self, v: Var) -> bool {
        self.parent[v] == v
    }

    /// Forwards the class of `src` into the class of `witness`.
    ///
    /// After this call `find(src) == find(witness)`. Does nothing if they are
    /// already the same class.
    ///
    /// Returns `true` if two distinct classes were merged.
    pub fn union_into(&mut self, src: Var, witness: Var) -> bool {
        let s = self.find(src);
        let w = self.find(witness);
        if s == w {
            return false;
        }
        self.parent[s] = w;
        self.collapsed += 1;
        true
    }

    /// Iterates over all registered variables.
    pub fn vars(&self) -> impl Iterator<Item = Var> + 'static {
        let n = self.parent.len();
        (0..n).map(Var::new)
    }

    /// Iterates over current representatives only.
    pub(crate) fn reps(&self) -> impl Iterator<Item = Var> + '_ {
        self.parent.iter_enumerated().filter(|&(v, &p)| v == p).map(|(v, _)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(fwd: &mut Forwarding, n: usize) -> Vec<Var> {
        (0..n).map(|_| fwd.push()).collect()
    }

    #[test]
    fn fresh_vars_are_their_own_reps() {
        let mut fwd = Forwarding::new();
        let vs = fresh(&mut fwd, 5);
        for &v in &vs {
            assert!(fwd.is_rep(v));
            assert_eq!(fwd.find(v), v);
            assert_eq!(fwd.find_const(v), v);
        }
        assert_eq!(fwd.collapsed_count(), 0);
        assert_eq!(fwd.reps().count(), 5);
    }

    #[test]
    fn union_into_respects_chosen_witness() {
        let mut fwd = Forwarding::new();
        let vs = fresh(&mut fwd, 4);
        assert!(fwd.union_into(vs[1], vs[0]));
        assert!(fwd.union_into(vs[2], vs[0]));
        assert!(!fwd.union_into(vs[2], vs[1]), "already same class");
        assert_eq!(fwd.find(vs[1]), vs[0]);
        assert_eq!(fwd.find(vs[2]), vs[0]);
        assert_eq!(fwd.find(vs[3]), vs[3]);
        assert_eq!(fwd.collapsed_count(), 2);
        assert_eq!(fwd.reps().count(), 2);
    }

    #[test]
    fn chains_compress() {
        let mut fwd = Forwarding::new();
        let vs = fresh(&mut fwd, 100);
        // Build a long chain: v99 -> v98 -> ... -> v0.
        for i in (1..100).rev() {
            fwd.union_into(vs[i], vs[i - 1]);
        }
        assert_eq!(fwd.find(vs[99]), vs[0]);
        assert_eq!(fwd.find_const(vs[99]), vs[0]);
        assert_eq!(fwd.collapsed_count(), 99);
        assert_eq!(fwd.reps().count(), 1);
    }

    #[test]
    fn union_through_nonrep_handles_classes() {
        let mut fwd = Forwarding::new();
        let vs = fresh(&mut fwd, 4);
        fwd.union_into(vs[1], vs[0]);
        fwd.union_into(vs[3], vs[2]);
        // Union via non-representative members.
        assert!(fwd.union_into(vs[3], vs[1]));
        for &v in &vs {
            assert_eq!(fwd.find(v), vs[0]);
        }
    }
}
