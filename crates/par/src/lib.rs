//! Deterministic parallel least-solution evaluation for the bane constraint
//! solver.
//!
//! The paper's solver is sequential, and so is resolution here. This crate
//! parallelizes the pass that follows it **without giving up
//! reproducibility**: [`ParLeast`] (module [`least`]) evaluates the least
//! solution level by level over the SCC condensation of the canonical
//! predecessor graph. The inductive-form invariant makes that graph a DAG;
//! its condensation levels are dependency-free batches whose variables
//! workers evaluate concurrently, and the results are committed in a fixed
//! order. Output is **byte-identical** to `Solver::least_solution` at every
//! thread count (the `LeastSolution` `PartialEq` compares raw buffers, so
//! tests pin exactly that). `bane-serve` sessions revalidate through
//! [`ParLeast::run_revalidate`] after every applied delta.
//!
//! Worker scheduling is the deliberately boring [`pool`] module: scoped
//! threads, deterministic [`chunk_range`] partitioning, and a
//! single-threaded fast path that is a plain function call (and, once warm,
//! allocation-free — pinned by `bane-core`'s allocation test).
//!
//! See `docs/PARALLELISM.md` for the determinism argument.

#![deny(missing_docs)]

pub mod least;
pub mod pool;

pub use least::{least_solution, ParLeast, RevalidateOutcome};
pub use pool::{available_threads, chunk_range, Pool};
