//! [`SessionBuilder`]: one declarative construction path for [`Session`]s.
//!
//! Sessions used to be assembled ad hoc — `Session::new(config)` followed
//! by `set_threads`, `enable_obs`, and friends sprinkled across call sites,
//! so two sessions meant to match could differ in whichever setter a call
//! site forgot. The builder centralizes every knob:
//!
//! - the [`SolverConfig`] (form, ordering, constraint-graph options), with
//!   a shortcut for the [cycle-elimination policy](SessionBuilder::cycle_elim);
//! - the [observability gate](SessionBuilder::obs);
//! - the [re-solve tier](SessionBuilder::apply_mode): [`ApplyMode::Exact`]
//!   replays non-monotone deltas for byte-identical observables,
//!   [`ApplyMode::Fast`] repairs the least solution in place (set-equal,
//!   usually much cheaper). The mode is fixed at construction because Fast
//!   sessions track constraint provenance from the first fact.
//!
//! The builder is the only construction path; the former `Session::new` /
//! `Session::from_problem` / `Session::from_problem_grouped` constructors
//! have been removed.
//!
//! # Examples
//!
//! ```
//! use bane_core::prelude::*;
//! use bane_serve::SessionBuilder;
//!
//! let session = SessionBuilder::new()
//!     .cycle_elim(CycleElim::Off)
//!     .obs(true)
//!     .build();
//! assert_eq!(session.solver().config().cycle_elim, CycleElim::Off);
//! assert!(session.recorder().is_some());
//! ```

use bane_core::prelude::*;

use crate::session::{ApplyMode, Session};

/// A reusable recipe for constructing identically configured [`Session`]s.
/// See the [module docs](self) for the knob inventory.
///
/// The builder is `Clone` + consuming-chainable, in the style of
/// [`SolverConfig`].
#[derive(Clone, Copy, Debug)]
pub struct SessionBuilder {
    config: SolverConfig,
    obs: bool,
    mode: ApplyMode,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionBuilder {
    /// The default recipe: [`SolverConfig::if_online`], observability off.
    pub fn new() -> Self {
        SessionBuilder {
            config: SolverConfig::if_online(),
            obs: false,
            mode: ApplyMode::Exact,
        }
    }

    /// Replaces the whole solver configuration.
    pub fn config(mut self, config: SolverConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the cycle-elimination policy.
    pub fn cycle_elim(mut self, policy: CycleElim) -> Self {
        self.config.cycle_elim = policy;
        self
    }

    /// Gates observability: when `true`, built sessions allocate a
    /// [`Recorder`](bane_obs::Recorder) and record `serve.*` counters on
    /// every apply. For sessions built from a pre-recorded problem, the
    /// recorder attaches *after* the initial solve (matching the historical
    /// `enable_obs`-after-construction call order), so counters cover the
    /// incremental traffic, not the base build.
    pub fn obs(mut self, obs: bool) -> Self {
        self.obs = obs;
        self
    }

    /// Selects the non-monotone re-solve tier (see [`ApplyMode`]). Must be
    /// set at build time: [`ApplyMode::Fast`] sessions track constraint
    /// provenance from the very first fact.
    pub fn apply_mode(mut self, mode: ApplyMode) -> Self {
        self.mode = mode;
        self
    }

    /// The solver configuration the builder will stamp onto sessions it
    /// builds from scratch.
    pub fn solver_config(&self) -> SolverConfig {
        self.config
    }

    /// An empty session under the recipe.
    pub fn build(&self) -> Session {
        let mut session = Session::empty(self.config, self.mode);
        self.finish(&mut session);
        session
    }

    /// A session adopting `problem`'s recording: its registration state
    /// becomes the session's, and its recorded constraints become one
    /// group, solved immediately. The *problem's* [`SolverConfig`] is
    /// authoritative (it already shaped the recording); the builder
    /// contributes the apply mode and the obs gate.
    pub fn build_from_problem(&self, problem: Problem) -> Session {
        self.build_grouped(problem, 1)
    }

    /// Like [`build_from_problem`](SessionBuilder::build_from_problem), but
    /// splitting the recorded constraints into `n_groups` contiguous groups
    /// — the "one group per function" shape incremental experiments edit.
    ///
    /// # Panics
    ///
    /// Panics if `n_groups == 0` while the problem has constraints.
    pub fn build_grouped(&self, problem: Problem, n_groups: usize) -> Session {
        let mut session = Session::adopt_grouped(problem, n_groups, self.mode);
        self.finish(&mut session);
        session
    }

    /// Applies the post-construction knobs shared by every build path.
    fn finish(&self, session: &mut Session) {
        if self.obs {
            session.enable_obs();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Delta;

    #[test]
    fn build_applies_every_knob() {
        let b = SessionBuilder::new()
            .config(SolverConfig::sf_online())
            .cycle_elim(CycleElim::Off)
            .apply_mode(ApplyMode::Fast)
            .obs(true);
        let s = b.build();
        assert_eq!(s.solver().config().form, Form::Standard);
        assert_eq!(s.solver().config().cycle_elim, CycleElim::Off);
        assert_eq!(s.apply_mode(), ApplyMode::Fast);
        assert!(s.recorder().is_some());
        // The builder is a reusable recipe: a second build is independent.
        let s2 = b.build();
        assert_eq!(s2.solver().config().cycle_elim, CycleElim::Off);
        assert!(s2.recorder().is_some());
    }

    #[test]
    fn grouped_build_matches_problem_config_and_solves() {
        let mut p = Problem::new(SolverConfig::sf_online());
        let c = p.register_nullary("c");
        let src = p.term(c, vec![]);
        let vars: Vec<Var> = (0..8).map(|_| p.fresh_var()).collect();
        p.add(src, vars[0]);
        for w in vars.windows(2) {
            p.add(w[0], w[1]);
        }
        // The builder's own config differs; the problem's must win.
        let mut s = SessionBuilder::new().build_grouped(p, 3);
        assert_eq!(s.solver().config().form, Form::Standard);
        assert_eq!(s.group_slots(), 3);
        assert_eq!(s.points_to(vars[7]), &[src]);
    }

    #[test]
    fn obs_gate_attaches_after_initial_solve() {
        let mut p = Problem::new(SolverConfig::if_online());
        let c = p.register_nullary("c");
        let src = p.term(c, vec![]);
        let x = p.fresh_var();
        p.add(src, x);
        let mut s = SessionBuilder::new().obs(true).build_from_problem(p);
        // The initial solve predates the recorder; only new traffic counts.
        let rec = s.recorder().expect("obs gated on");
        assert_eq!(rec.get(bane_obs::Counter::ServeDeltaApplied), 0);
        let mut d = Delta::new();
        d.add_vars(1);
        s.apply(d);
        assert_eq!(s.recorder().unwrap().get(bane_obs::Counter::ServeDeltaApplied), 1);
    }

    #[test]
    fn apply_mode_is_stamped_and_defaults_exact() {
        let s = SessionBuilder::new().build();
        assert_eq!(s.apply_mode(), ApplyMode::Exact);
        let s = SessionBuilder::new().apply_mode(ApplyMode::Fast).build();
        assert_eq!(s.apply_mode(), ApplyMode::Fast);
        assert!(s.solver().provenance_enabled());
    }
}
