//! Synthetic benchmark programs for the experiment harness.
//!
//! The paper evaluates on 27 C programs from 1998 (Table 1) that are not
//! available here; this crate *simulates* them: [`gen`] produces seeded,
//! deterministic C-subset programs with the pointer-intensity and cycle
//! structure the paper's constraint graphs exhibit, and [`mod@suite`] mirrors the
//! Table 1 suite names and AST-node sizes. [`delta`] extends the simulation
//! to *edit histories* — seeded [`DeltaScript`]s of group additions,
//! removals, and rewrites that drive `bane-serve`'s incremental equivalence
//! tests.
//!
//! # Examples
//!
//! ```
//! use bane_synth::gen::{generate, GenConfig};
//!
//! let program = generate(&GenConfig::sized(1_000, 42));
//! assert!(program.ast_nodes() >= 1_000);
//! ```

pub mod delta;
pub mod gen;
pub mod suite;

pub use delta::{
    generate_delta_script, ConSpec, DeltaScript, DeltaScriptConfig, DeltaStep, EndpointSpec,
    ScriptBindings,
};
pub use gen::{generate, GenConfig};
pub use suite::{suite, suite_program, SuiteEntry, PAPER_SUITE};
