//! Seeded edit-sequence generation: [`DeltaScript`]s for incremental
//! solving.
//!
//! `bane-serve` needs adversarial *edit histories*, not just static
//! programs: sequences of group additions, removals, rewrites, and variable
//! growth whose every intermediate state is a well-formed constraint
//! system. A [`DeltaScript`] is such a history in engine-neutral terms —
//! endpoints are **spec indices** ([`EndpointSpec`]), resolved against a
//! concrete engine's identifiers only by [`ScriptBindings`] — so the same
//! script can drive a live incremental session *and* the from-scratch
//! reference it is checked against (the equivalence property tests do
//! exactly that).
//!
//! Generation is deterministic: equal [`DeltaScriptConfig`]s produce
//! identical scripts. Structural invariants (edits and removals only name
//! live groups, constraints only reference variables that exist at that
//! point in the history) are upheld by construction and re-checkable via
//! [`DeltaScript::validate`].

use bane_core::prelude::*;
use bane_util::SplitMix64;

/// One constraint endpoint, in script-relative terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EndpointSpec {
    /// The `i`-th script variable (creation order: the initial block, then
    /// each [`DeltaStep::GrowVars`] in step order).
    Var(u32),
    /// The `i`-th nullary source term the script pre-registers.
    Src(u32),
}

/// One constraint, `lhs ⊆ rhs`, in script-relative terms.
///
/// Sources only appear on the left (a source on the right is an
/// inconsistency generator, which equivalence tests want to opt into
/// explicitly, not sample at random).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConSpec {
    /// Left endpoint (`⊆`'s smaller side).
    pub lhs: EndpointSpec,
    /// Right endpoint — always a variable.
    pub rhs: u32,
}

/// One edit in the history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaStep {
    /// Create `n` fresh variables.
    GrowVars(u32),
    /// Add a constraint group. Groups are numbered by the order of
    /// `AddGroup` steps in the script (the `slot` the later steps name).
    AddGroup(Vec<ConSpec>),
    /// Replace group `slot`'s constraints.
    EditGroup {
        /// Which group (index among `AddGroup` steps).
        slot: usize,
        /// The replacement constraints.
        constraints: Vec<ConSpec>,
    },
    /// Remove group `slot`.
    RemoveGroup {
        /// Which group (index among `AddGroup` steps).
        slot: usize,
    },
}

/// A complete edit history: the pre-registered sources, the initial
/// variable block, and the steps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaScript {
    /// Number of nullary source constructors/terms to pre-register.
    pub nsrcs: u32,
    /// Variables created before any step runs.
    pub initial_vars: u32,
    /// Partition count the script was generated for (1 = unpartitioned).
    ///
    /// When greater than 1, every group's variables share one partition
    /// class (`var index mod partitions`), and edits keep the class of the
    /// group they rewrite — the invariant a sharded fleet's boundary
    /// validation demands. Because ownership is modular, a script
    /// partitioned for `P` also routes cleanly over any `S` dividing `P`
    /// (`v mod S = (v mod P) mod S`).
    pub partitions: u32,
    /// The edits, in order.
    pub steps: Vec<DeltaStep>,
}

/// Tunables for script generation.
#[derive(Clone, Debug)]
pub struct DeltaScriptConfig {
    /// PRNG seed; equal seeds give identical scripts.
    pub seed: u64,
    /// Pre-registered source terms.
    pub nsrcs: u32,
    /// Initial variable block size.
    pub initial_vars: u32,
    /// Number of steps to generate.
    pub steps: usize,
    /// Constraints per generated group (inclusive range).
    pub group_size: (usize, usize),
    /// Probability a step grows the variable pool.
    pub grow_prob: f64,
    /// Probability a step removes a live group (when one exists).
    pub remove_prob: f64,
    /// Probability a step rewrites a live group (when one exists).
    pub edit_prob: f64,
    /// Probability a constraint's left endpoint is a source (vs a
    /// variable).
    pub src_prob: f64,
    /// Partition classes to confine groups to (1 = unpartitioned; see
    /// [`DeltaScript::partitions`]). Generation with `partitions == 1` is
    /// bit-identical to the pre-partitioning generator, so existing seeds
    /// keep producing the same scripts.
    pub partitions: u32,
    /// Multiplier on the non-monotone step probabilities (`remove_prob`
    /// and `edit_prob`): `2.0` doubles the odds of a step retracting
    /// constraints, `0.0` forces a purely monotone history. The default
    /// `1.0` is bit-identical to the pre-knob generator (same RNG draws,
    /// same scripts for existing seeds) — the `partitions` precedent.
    /// Probabilities are clamped to 1.0 after weighting.
    pub edit_weight: f64,
}

impl Default for DeltaScriptConfig {
    fn default() -> Self {
        DeltaScriptConfig {
            seed: 0xd311a,
            nsrcs: 6,
            initial_vars: 24,
            steps: 12,
            group_size: (2, 8),
            grow_prob: 0.2,
            remove_prob: 0.15,
            edit_prob: 0.25,
            src_prob: 0.3,
            partitions: 1,
            edit_weight: 1.0,
        }
    }
}

impl DeltaScriptConfig {
    /// A config of `steps` steps under `seed`, default shape otherwise.
    pub fn sized(steps: usize, seed: u64) -> Self {
        DeltaScriptConfig { seed, steps, ..Self::default() }
    }

    /// A config of `steps` steps under `seed`, partitioned into
    /// `partitions` classes for sharded serving.
    pub fn sharded(steps: usize, seed: u64, partitions: u32) -> Self {
        DeltaScriptConfig { seed, steps, partitions: partitions.max(1), ..Self::default() }
    }

    /// A config of `steps` steps under `seed` with the non-monotone step
    /// probabilities scaled by `weight` — the edit-heavy histories the
    /// `ApplyMode::Fast` equivalence tests and the `fast_apply` bench
    /// column stress. `weight = 1.0` is [`sized`](Self::sized) exactly.
    pub fn edit_heavy(steps: usize, seed: u64, weight: f64) -> Self {
        DeltaScriptConfig { seed, steps, edit_weight: weight.max(0.0), ..Self::default() }
    }
}

/// Number of variable indices below `vars` that fall in partition `class`
/// (indices congruent to `class` mod `partitions`).
fn class_size(vars: u32, class: u32, partitions: u32) -> u32 {
    if vars > class {
        (vars - class).div_ceil(partitions)
    } else {
        0
    }
}

/// Generates a script per `config`. Deterministic in the config.
pub fn generate_delta_script(config: &DeltaScriptConfig) -> DeltaScript {
    let mut rng = SplitMix64::new(config.seed);
    let partitions = config.partitions.max(1);
    let weight = config.edit_weight.max(0.0);
    let remove_prob = (config.remove_prob * weight).min(1.0);
    let edit_prob = (config.edit_prob * weight).min(1.0);
    // Every partition class needs variables to sample from the start.
    let initial_vars = config.initial_vars.max(2).max(partitions * 2);
    let mut vars = initial_vars;
    let mut live: Vec<usize> = Vec::new(); // live slots, in slot order
    let mut slot_class: Vec<u32> = Vec::new(); // partition class per slot
    let mut slots = 0usize;
    let mut steps = Vec::with_capacity(config.steps);

    let group = |rng: &mut SplitMix64, vars: u32, class: u32| -> Vec<ConSpec> {
        let lo = config.group_size.0.max(1);
        let hi = config.group_size.1.max(lo);
        let n = lo + rng.next_below((hi - lo + 1) as u64) as usize;
        // With partitions == 1 the class-confined draw degenerates to the
        // historical uniform draw, bit for bit.
        let pick_var = |rng: &mut SplitMix64| -> u32 {
            if partitions == 1 {
                rng.next_below(vars as u64) as u32
            } else {
                let size = class_size(vars, class, partitions);
                class + (rng.next_below(size as u64) as u32) * partitions
            }
        };
        (0..n)
            .map(|_| {
                let rhs = pick_var(rng);
                let lhs = if config.nsrcs > 0 && rng.next_bool(config.src_prob) {
                    EndpointSpec::Src(rng.next_below(config.nsrcs as u64) as u32)
                } else {
                    EndpointSpec::Var(pick_var(rng))
                };
                ConSpec { lhs, rhs }
            })
            .collect()
    };

    for _ in 0..config.steps {
        if rng.next_bool(config.grow_prob) {
            let n = 1 + rng.next_below(4) as u32;
            vars += n;
            steps.push(DeltaStep::GrowVars(n));
        } else if !live.is_empty() && rng.next_bool(remove_prob) {
            let i = rng.next_below(live.len() as u64) as usize;
            steps.push(DeltaStep::RemoveGroup { slot: live.remove(i) });
        } else if !live.is_empty() && rng.next_bool(edit_prob) {
            let i = rng.next_below(live.len() as u64) as usize;
            let slot = live[i];
            let constraints = group(&mut rng, vars, slot_class[slot]);
            steps.push(DeltaStep::EditGroup { slot, constraints });
        } else {
            let class =
                if partitions == 1 { 0 } else { rng.next_below(partitions as u64) as u32 };
            steps.push(DeltaStep::AddGroup(group(&mut rng, vars, class)));
            live.push(slots);
            slot_class.push(class);
            slots += 1;
        }
    }

    DeltaScript { nsrcs: config.nsrcs, initial_vars, partitions, steps }
}

impl DeltaScript {
    /// Checks the structural invariants: every edit/removal names a group
    /// that exists and is live at that point, every constraint only
    /// references variables and sources that exist at its step, and — for
    /// partitioned scripts — every group's variables share one partition
    /// class, preserved across edits (see [`partitions`](Self::partitions)).
    ///
    /// Returns the first violation as a message.
    ///
    /// # Errors
    ///
    /// Returns `Err` describing the first malformed step.
    pub fn validate(&self) -> Result<(), String> {
        let mut vars = self.initial_vars;
        let mut live: Vec<bool> = Vec::new();
        let mut classes: Vec<u32> = Vec::new();
        let partitions = self.partitions.max(1);
        let check_group = |constraints: &[ConSpec], vars: u32, step: usize| -> Result<(), String> {
            for c in constraints {
                if c.rhs >= vars {
                    return Err(format!("step {step}: rhs v{} out of range ({vars} vars)", c.rhs));
                }
                match c.lhs {
                    EndpointSpec::Var(v) if v >= vars => {
                        return Err(format!("step {step}: lhs v{v} out of range ({vars} vars)"))
                    }
                    EndpointSpec::Src(s) if s >= self.nsrcs => {
                        return Err(format!("step {step}: src s{s} out of range ({})", self.nsrcs))
                    }
                    _ => {}
                }
            }
            Ok(())
        };
        // The partition class of a group's variables (empty groups default
        // to class 0, matching the fleet's owner assignment), or an error
        // when the group's variables straddle classes.
        let class_of = |constraints: &[ConSpec], step: usize| -> Result<u32, String> {
            let mut class = None;
            for c in constraints {
                let mut check = |v: u32| -> Result<(), String> {
                    let own = v % partitions;
                    match class {
                        None => class = Some(own),
                        Some(c0) if c0 != own => {
                            return Err(format!(
                                "step {step}: group straddles partition classes {c0} and {own}"
                            ))
                        }
                        Some(_) => {}
                    }
                    Ok(())
                };
                check(c.rhs)?;
                if let EndpointSpec::Var(v) = c.lhs {
                    check(v)?;
                }
            }
            Ok(class.unwrap_or(0))
        };
        for (i, step) in self.steps.iter().enumerate() {
            match step {
                DeltaStep::GrowVars(n) => vars += n,
                DeltaStep::AddGroup(cs) => {
                    check_group(cs, vars, i)?;
                    classes.push(class_of(cs, i)?);
                    live.push(true);
                }
                DeltaStep::EditGroup { slot, constraints } => {
                    if !live.get(*slot).copied().unwrap_or(false) {
                        return Err(format!("step {i}: edit of dead/unknown slot {slot}"));
                    }
                    check_group(constraints, vars, i)?;
                    let class = class_of(constraints, i)?;
                    if partitions > 1 && !constraints.is_empty() && class != classes[*slot] {
                        return Err(format!(
                            "step {i}: edit of slot {slot} moves it from partition class {} to {class}",
                            classes[*slot]
                        ));
                    }
                }
                DeltaStep::RemoveGroup { slot } => {
                    if !live.get(*slot).copied().unwrap_or(false) {
                        return Err(format!("step {i}: removal of dead/unknown slot {slot}"));
                    }
                    live[*slot] = false;
                }
            }
        }
        Ok(())
    }

    /// Total variables after all steps.
    pub fn final_vars(&self) -> u32 {
        self.initial_vars
            + self
                .steps
                .iter()
                .map(|s| if let DeltaStep::GrowVars(n) = s { *n } else { 0 })
                .sum::<u32>()
    }

    /// Whether any step is non-monotone (edit or removal).
    pub fn has_nonmonotone(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s, DeltaStep::EditGroup { .. } | DeltaStep::RemoveGroup { .. }))
    }
}

/// The script's identifiers resolved against one concrete
/// [`ConstraintBuilder`]: the pre-registered source terms and the variable
/// pool (in creation order).
///
/// Binding performs the *same* registration sequence on every builder, so
/// two builders bound to the same script issue numerically identical
/// identifiers — the alignment the equivalence tests rely on.
#[derive(Clone, Debug)]
pub struct ScriptBindings {
    /// The `nsrcs` source terms, in registration order.
    pub srcs: Vec<TermId>,
    /// Every script variable created so far, in creation order.
    pub vars: Vec<Var>,
}

impl ScriptBindings {
    /// Registers `script`'s sources (nullary constructors `s0…`) and
    /// initial variable block on `builder`.
    pub fn bind<B: ConstraintBuilder>(builder: &mut B, script: &DeltaScript) -> Self {
        let srcs = (0..script.nsrcs)
            .map(|i| {
                let con = builder.register_nullary(format!("s{i}"));
                builder.term(con, vec![])
            })
            .collect();
        let vars = (0..script.initial_vars).map(|_| builder.fresh_var()).collect();
        ScriptBindings { srcs, vars }
    }

    /// Creates `n` more variables on `builder` (call when replaying a
    /// [`DeltaStep::GrowVars`]).
    pub fn grow<B: ConstraintBuilder>(&mut self, builder: &mut B, n: u32) {
        for _ in 0..n {
            self.vars.push(builder.fresh_var());
        }
    }

    /// Resolves one endpoint spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec indexes outside the bindings (a script that fails
    /// [`DeltaScript::validate`]).
    pub fn expr(&self, spec: EndpointSpec) -> SetExpr {
        match spec {
            EndpointSpec::Var(v) => self.vars[v as usize].into(),
            EndpointSpec::Src(s) => self.srcs[s as usize].into(),
        }
    }

    /// Resolves a whole group into concrete constraints.
    pub fn constraints(&self, specs: &[ConSpec]) -> Vec<(SetExpr, SetExpr)> {
        specs
            .iter()
            .map(|c| (self.expr(c.lhs), self.expr(EndpointSpec::Var(c.rhs))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        for seed in [1u64, 7, 42, 0xfeed] {
            let cfg = DeltaScriptConfig::sized(40, seed);
            let a = generate_delta_script(&cfg);
            let b = generate_delta_script(&cfg);
            assert_eq!(a, b);
            a.validate().expect("generated script validates");
        }
        let a = generate_delta_script(&DeltaScriptConfig::sized(40, 1));
        let c = generate_delta_script(&DeltaScriptConfig::sized(40, 2));
        assert_ne!(a, c, "different seeds differ");
    }

    #[test]
    fn partitioned_scripts_confine_groups_to_one_class() {
        for partitions in [2u32, 4] {
            let script =
                generate_delta_script(&DeltaScriptConfig::sharded(80, 0x5a4d, partitions));
            assert_eq!(script.partitions, partitions);
            script.validate().expect("partitioned script validates");
            // Spot-check the invariant directly, not just through validate.
            let mut saw_classes = vec![false; partitions as usize];
            for step in &script.steps {
                let cs = match step {
                    DeltaStep::AddGroup(cs) | DeltaStep::EditGroup { constraints: cs, .. } => cs,
                    _ => continue,
                };
                let class = cs[0].rhs % partitions;
                saw_classes[class as usize] = true;
                for c in cs {
                    assert_eq!(c.rhs % partitions, class);
                    if let EndpointSpec::Var(v) = c.lhs {
                        assert_eq!(v % partitions, class);
                    }
                }
            }
            assert!(
                saw_classes.iter().all(|&s| s),
                "an 80-step script samples every class: {saw_classes:?}"
            );
        }
        // partitions == 1 reproduces the unpartitioned generator exactly.
        let plain = generate_delta_script(&DeltaScriptConfig::sized(40, 7));
        let one = generate_delta_script(&DeltaScriptConfig::sharded(40, 7, 1));
        assert_eq!(plain, one);
    }

    #[test]
    fn validate_rejects_partition_violations() {
        let straddle = DeltaScript {
            nsrcs: 0,
            initial_vars: 4,
            partitions: 2,
            steps: vec![DeltaStep::AddGroup(vec![ConSpec {
                lhs: EndpointSpec::Var(0),
                rhs: 1,
            }])],
        };
        assert!(straddle.validate().unwrap_err().contains("straddles"));

        let class_move = DeltaScript {
            nsrcs: 0,
            initial_vars: 4,
            partitions: 2,
            steps: vec![
                DeltaStep::AddGroup(vec![ConSpec { lhs: EndpointSpec::Var(0), rhs: 2 }]),
                DeltaStep::EditGroup {
                    slot: 0,
                    constraints: vec![ConSpec { lhs: EndpointSpec::Var(1), rhs: 3 }],
                },
            ],
        };
        assert!(class_move.validate().unwrap_err().contains("moves it"));
    }

    #[test]
    fn edit_weight_one_is_bit_identical_and_heavier_weights_retract_more() {
        // weight 1.0 must not perturb a single RNG draw.
        let plain = generate_delta_script(&DeltaScriptConfig::sized(120, 7));
        let one = generate_delta_script(&DeltaScriptConfig::edit_heavy(120, 7, 1.0));
        assert_eq!(plain, one);

        let nonmono = |s: &DeltaScript| {
            s.steps
                .iter()
                .filter(|st| {
                    matches!(st, DeltaStep::EditGroup { .. } | DeltaStep::RemoveGroup { .. })
                })
                .count()
        };
        let heavy = generate_delta_script(&DeltaScriptConfig::edit_heavy(120, 7, 2.5));
        heavy.validate().expect("edit-heavy script validates");
        assert!(
            nonmono(&heavy) > nonmono(&plain),
            "weight 2.5 should retract more: {} vs {}",
            nonmono(&heavy),
            nonmono(&plain)
        );

        let frozen = generate_delta_script(&DeltaScriptConfig::edit_heavy(120, 7, 0.0));
        frozen.validate().expect("weight-0 script validates");
        assert!(!frozen.has_nonmonotone(), "weight 0 forces a monotone history");
    }

    #[test]
    fn long_scripts_exercise_every_step_kind() {
        let script = generate_delta_script(&DeltaScriptConfig::sized(200, 3));
        let mut kinds = [false; 4];
        for s in &script.steps {
            match s {
                DeltaStep::GrowVars(_) => kinds[0] = true,
                DeltaStep::AddGroup(_) => kinds[1] = true,
                DeltaStep::EditGroup { .. } => kinds[2] = true,
                DeltaStep::RemoveGroup { .. } => kinds[3] = true,
            }
        }
        assert!(kinds.iter().all(|&k| k), "all step kinds sampled: {kinds:?}");
        assert!(script.has_nonmonotone());
    }

    #[test]
    fn validate_rejects_malformed_scripts() {
        let dead_edit = DeltaScript {
            nsrcs: 1,
            initial_vars: 2,
            partitions: 1,
            steps: vec![DeltaStep::EditGroup { slot: 0, constraints: vec![] }],
        };
        assert!(dead_edit.validate().is_err());

        let out_of_range = DeltaScript {
            nsrcs: 1,
            initial_vars: 2,
            partitions: 1,
            steps: vec![DeltaStep::AddGroup(vec![ConSpec {
                lhs: EndpointSpec::Var(5),
                rhs: 0,
            }])],
        };
        assert!(out_of_range.validate().is_err());

        let double_remove = DeltaScript {
            nsrcs: 0,
            initial_vars: 2,
            partitions: 1,
            steps: vec![
                DeltaStep::AddGroup(vec![]),
                DeltaStep::RemoveGroup { slot: 0 },
                DeltaStep::RemoveGroup { slot: 0 },
            ],
        };
        assert!(double_remove.validate().is_err());
    }

    #[test]
    fn bindings_align_across_builders() {
        let script = generate_delta_script(&DeltaScriptConfig::sized(20, 9));
        let mut p1 = Problem::new(SolverConfig::if_online());
        let mut p2 = Problem::new(SolverConfig::if_online());
        let b1 = ScriptBindings::bind(&mut p1, &script);
        let b2 = ScriptBindings::bind(&mut p2, &script);
        assert_eq!(b1.srcs, b2.srcs);
        assert_eq!(b1.vars, b2.vars);
    }

    #[test]
    fn materializes_into_a_solver() {
        let script = generate_delta_script(&DeltaScriptConfig::sized(30, 11));
        let mut p = Problem::new(SolverConfig::if_online());
        let mut bind = ScriptBindings::bind(&mut p, &script);
        // Flatten the final state: live groups only, in slot order.
        let mut groups: Vec<Option<Vec<(SetExpr, SetExpr)>>> = Vec::new();
        for step in &script.steps {
            match step {
                DeltaStep::GrowVars(n) => bind.grow(&mut p, *n),
                DeltaStep::AddGroup(cs) => groups.push(Some(bind.constraints(cs))),
                DeltaStep::EditGroup { slot, constraints } => {
                    groups[*slot] = Some(bind.constraints(constraints));
                }
                DeltaStep::RemoveGroup { slot } => groups[*slot] = None,
            }
        }
        for group in groups.into_iter().flatten() {
            for (l, r) in group {
                p.add(l, r);
            }
        }
        let mut solver = Solver::from_problem(p);
        solver.solve();
        assert!(solver.stats().constraints_added > 0);
    }
}
