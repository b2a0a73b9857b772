//! Facade crate re-exporting the full `bane` workspace API.
//!
//! `bane` reproduces *Partial Online Cycle Elimination in Inclusion
//! Constraint Graphs* (Fähndrich, Foster, Su, Aiken — PLDI 1998): a generic
//! inclusion-constraint solver with standard/inductive graph forms and
//! partial online cycle elimination, applied to Andersen's points-to
//! analysis for C.
//!
//! See the individual crates for details:
//! - [`core`] (`bane-core`): the inclusion-constraint solver with partial
//!   online cycle elimination (the paper's contribution).
//! - [`cfront`] (`bane-cfront`): the C-subset frontend.
//! - [`points_to`] (`bane-points-to`): Andersen's and Steensgaard's analyses.
//! - [`synth`] (`bane-synth`): the synthetic benchmark-suite generator.
//! - [`model`] (`bane-model`): the analytical model of Section 5.
//! - [`cfa`] (`bane-cfa`): closure analysis, the paper's stated future work.
//! - [`snap`] (`bane-snap`): the on-disk snapshot format and the read-only
//!   alias-query serving layer (docs/SNAPSHOT_FORMAT.md, docs/SERVING.md).
//! - [`serve`] (`bane-serve`): the long-lived incremental analysis session —
//!   `Delta` batches, dirty-set re-solve, and the framed request/response
//!   transport (docs/INCREMENTAL.md).
//! - [`obs`] (`bane-obs`): the observability layer (phase timers, unified
//!   counters; docs/OBSERVABILITY.md).
//!
//! # Examples
//!
//! ```
//! use bane::core::prelude::*;
//!
//! let mut solver = Solver::new(SolverConfig::if_online());
//! let (x, y) = (solver.fresh_var(), solver.fresh_var());
//! solver.add(x, y);
//! solver.add(y, x);
//! solver.solve();
//! assert_eq!(solver.find(x), solver.find(y));
//! ```

pub use bane_cfa as cfa;
pub use bane_cfront as cfront;
pub use bane_core as core;
pub use bane_model as model;
pub use bane_obs as obs;
pub use bane_points_to as points_to;
pub use bane_serve as serve;
pub use bane_snap as snap;
pub use bane_synth as synth;
pub use bane_util as util;
