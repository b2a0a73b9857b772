//! The total variable order `o(·)` (Section 2.4).
//!
//! Inductive form picks the representation of every variable-variable edge by
//! comparing the endpoints under a fixed total order. The paper assumes a
//! *random* order ("Choosing a good order is hard, and we have found that a
//! random order performs as well or better than any other order we picked"),
//! so [`OrderPolicy::Random`] is the default; [`OrderPolicy::Creation`] is
//! kept for the ablation benchmark.
//!
//! The order must be assigned *online* — fresh variables appear during
//! resolution — so the random policy draws an independent 64-bit stamp per
//! variable and breaks ties by creation index, which is a uniformly random
//! total order over any prefix of the creation sequence.

use bane_util::idx::Idx;
use crate::expr::Var;
use bane_util::idx::IdxVec;
use bane_util::SplitMix64;

/// How the total order `o(·)` on variables is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderPolicy {
    /// Variables are ordered by creation index (`o(X) = index of X`).
    Creation,
    /// Variables are ordered by creation index, reversed pairwise blocks —
    /// i.e. each variable receives the bitwise complement of its creation
    /// index, so later variables come first.
    ReverseCreation,
    /// Variables are ordered uniformly at random (the paper's default),
    /// deterministically derived from the seed.
    Random {
        /// PRNG seed; equal seeds give equal orders.
        seed: u64,
    },
}

impl Default for OrderPolicy {
    fn default() -> Self {
        OrderPolicy::Random { seed: 0x9e3779b97f4a7c15 }
    }
}

/// The materialized order: a stamp per variable, compared with creation-index
/// tie-breaking.
#[derive(Clone, Debug)]
pub struct VarOrder {
    stamps: IdxVec<Var, u64>,
    rng: SplitMix64,
    policy: OrderPolicy,
}

impl VarOrder {
    /// Creates an empty order following `policy`.
    pub fn new(policy: OrderPolicy) -> Self {
        let seed = match policy {
            OrderPolicy::Random { seed } => seed,
            _ => 0,
        };
        Self { stamps: IdxVec::new(), rng: SplitMix64::new(seed), policy }
    }

    /// Assigns an order stamp to the next created variable.
    ///
    /// Must be called exactly once per variable, in creation order.
    pub fn assign(&mut self, var: Var) {
        debug_assert_eq!(self.stamps.len(), var.index(), "assign order in creation order");
        let stamp = match self.policy {
            OrderPolicy::Creation => var.index() as u64,
            OrderPolicy::ReverseCreation => !(var.index() as u64),
            OrderPolicy::Random { .. } => self.rng.next_u64(),
        };
        self.stamps.push(stamp);
    }

    /// The comparison key of `var`: `(stamp, creation index)`.
    #[inline]
    pub fn key(&self, var: Var) -> (u64, u32) {
        (self.stamps[var], var.raw())
    }

    /// Whether `a` precedes `b` in the order (i.e. `o(a) < o(b)`).
    #[inline]
    pub(crate) fn lt(&self, a: Var, b: Var) -> bool {
        self.key(a) < self.key(b)
    }

    /// Returns the element of `vars` minimal under the order.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty.
    pub(crate) fn min_of<'a>(&self, vars: impl IntoIterator<Item = &'a Var>) -> Var {
        *vars
            .into_iter()
            .min_by_key(|&&v| self.key(v))
            .expect("min_of requires at least one variable")
    }

    /// Number of variables with assigned stamps.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Whether no stamps are assigned.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assign_n(policy: OrderPolicy, n: usize) -> VarOrder {
        let mut ord = VarOrder::new(policy);
        for i in 0..n {
            ord.assign(Var::new(i));
        }
        ord
    }

    #[test]
    fn creation_order_is_index_order() {
        let ord = assign_n(OrderPolicy::Creation, 10);
        for i in 0..9 {
            assert!(ord.lt(Var::new(i), Var::new(i + 1)));
        }
    }

    #[test]
    fn reverse_creation_order_reverses() {
        let ord = assign_n(OrderPolicy::ReverseCreation, 10);
        for i in 0..9 {
            assert!(ord.lt(Var::new(i + 1), Var::new(i)));
        }
    }

    #[test]
    fn random_order_is_total_and_deterministic() {
        let a = assign_n(OrderPolicy::Random { seed: 7 }, 100);
        let b = assign_n(OrderPolicy::Random { seed: 7 }, 100);
        let c = assign_n(OrderPolicy::Random { seed: 8 }, 100);
        let mut same = true;
        for i in 0..100 {
            for j in 0..100 {
                let (x, y) = (Var::new(i), Var::new(j));
                assert_eq!(a.lt(x, y), b.lt(x, y), "same seed, same order");
                if i != j {
                    assert!(a.lt(x, y) ^ a.lt(y, x), "total order");
                    same &= a.lt(x, y) == c.lt(x, y);
                } else {
                    assert!(!a.lt(x, y), "irreflexive");
                }
            }
        }
        assert!(!same, "different seeds give a different order");
    }

    #[test]
    fn min_of_finds_least() {
        let ord = assign_n(OrderPolicy::Random { seed: 3 }, 50);
        let vars: Vec<Var> = (0..50).map(Var::new).collect();
        let m = ord.min_of(&vars);
        for &v in &vars {
            assert!(v == m || ord.lt(m, v));
        }
    }

    #[test]
    fn default_policy_is_random() {
        assert!(matches!(OrderPolicy::default(), OrderPolicy::Random { .. }));
    }
}
