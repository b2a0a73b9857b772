//! An inclusion (set) constraint solver with **partial online cycle
//! elimination**, reproducing Fähndrich, Foster, Su & Aiken, *Partial Online
//! Cycle Elimination in Inclusion Constraint Graphs* (PLDI 1998).
//!
//! # Overview
//!
//! Program analyses such as Andersen's points-to analysis generate systems of
//! inclusion constraints `L ⊆ R` over set variables and constructed terms.
//! Solving them means closing a *constraint graph* under the transitive
//! closure rule, which is dominated — on real programs — by cyclic
//! constraints `X₁ ⊆ … ⊆ Xₙ ⊆ X₁`. All variables on a cycle are equal in all
//! solutions, so cycles can be collapsed to a single variable.
//!
//! This crate implements the paper's complete design space:
//!
//! - two graph representations: **standard form** ([`Form::Standard`]) and
//!   **inductive form** ([`Form::Inductive`], edge direction chosen by a
//!   total variable order, with the least solution computed afterwards),
//! - **partial online cycle elimination** ([`CycleElim::Online`]): on every
//!   variable-variable edge insertion, a chain search restricted to
//!   order-decreasing steps finds (some) cycles in expected constant time,
//! - the **oracle** experiments ([`Solver::with_oracle`]): perfect, zero-cost
//!   cycle elimination via a pre-computed SCC partition,
//! - n-ary constructors with co-/contravariant signatures and the structural
//!   resolution rules **R**.
//!
//! # Quick start
//!
//! ```
//! use bane_core::prelude::*;
//!
//! // X ⊆ Y, Y ⊆ X (a cycle), and c ⊆ X: online elimination collapses the
//! // cycle, and both variables end up with least solution {c}.
//! let mut solver = Solver::new(SolverConfig::if_online());
//! let con = solver.register_nullary("c");
//! let c = solver.term(con, vec![]);
//! let x = solver.fresh_var();
//! let y = solver.fresh_var();
//! solver.add(x, y);
//! solver.add(y, x);
//! solver.add(c, x);
//! solver.solve();
//!
//! assert_eq!(solver.find(x), solver.find(y), "cycle collapsed");
//! let y = solver.find(y);
//! let ls = solver.least_solution();
//! assert_eq!(ls.get(y), &[c]);
//! ```
//!
//! # Crate map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`solver`] | §2.3–2.4, §4 | the resolution engine and its configuration |
//! | [`expr`], [`cons`] | §2.1 | set expressions, terms, constructor signatures |
//! | [`cycle`] | §2.5, §3, §5 | the partial online chain searches |
//! | [`order`] | §2.4 | the variable order `o(·)` policies |
//! | [`least`] | §2.4 eq. (1) | least-solution computation |
//! | [`oracle`], [`scc`] | §4 | the oracle partition and Tarjan SCCs |
//! | [`forward`] | §2.5 | forwarding pointers (union-find) for collapsed cycles |
//! | [`graph`] | §2.2 | adjacency storage and edge accounting |
//! | [`stats`] | §6 | the Work / Edges / eliminated-variables counters |
//! | [`error`] | §2.1 | recorded inconsistencies |
//! | [`dot`] | — | Graphviz rendering of the constraint graph |
//! | `obs` (feature) | §6 | probe wiring for the `bane-obs` observability layer |
//!
//! # The `obs` feature
//!
//! With the `obs` cargo feature, the solver compiles in probes for the
//! `bane-obs` observability layer: hierarchical phase timers, the unified
//! counter registry, and a bounded event ring. The probes are inert until
//! `Solver::enable_obs` is called; without the feature they do not exist at
//! all, preserving this crate's allocation-free hot-path guarantees exactly.
//! See `docs/OBSERVABILITY.md` for the gating contract and the report
//! schema.

#![deny(missing_docs)]

pub mod cons;
pub mod cycle;
pub mod dot;
pub mod error;
pub mod expr;
pub mod forward;
pub mod graph;
pub mod least;
#[cfg(feature = "obs")]
pub mod obs;
pub mod oracle;
pub mod order;
pub mod problem;
pub mod prov;
pub mod scc;
pub mod solver;
pub mod stats;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::cons::{Con, Variance};
    pub use crate::error::Inconsistency;
    pub use crate::expr::{SetExpr, TermId, Var};
    pub use crate::least::LeastSolution;
    pub use crate::oracle::Partition;
    pub use crate::order::OrderPolicy;
    pub use crate::problem::{ConstraintBuilder, Problem};
    pub use crate::solver::{CycleElim, Form, Solver, SolverConfig};
    pub use crate::stats::Stats;
}

pub use prelude::*;
