//! `Solver::reset` against a new solver.
//!
//! A reset solver forgets every constraint but keeps its registrations, so
//! after the same constraints are fed and solved it must be observably
//! identical to `Solver::from_problem` of those registrations. Each case
//! builds a random grouped system, drives a solver into one of three states
//! (converged with collapses, a `solve_limited` bail-out, a Fast retraction
//! and repair), resets it, solves the system without one of its groups, and
//! compares every observable with a new solver's solve of the same groups.
//! Every solver configuration runs with and without provenance tracking,
//! with obs recording on.

use bane_core::prelude::*;
use proptest::prelude::*;

/// One side of a generated constraint.
#[derive(Clone, Copy, Debug)]
enum Side {
    Var(usize),
    /// The nullary source `c<k>`.
    Con(usize),
    /// `f(v_a, v̄_b)`.
    F(usize, usize),
    /// `g(v_a, 0̄)`: matching two of these discharges the trivially true
    /// contravariant argument `0 ⊆ 0`.
    G(usize),
    One,
}

/// A random system: `n` variables and `(group, lhs, rhs)` constraints.
#[derive(Clone, Debug)]
struct Sys {
    n: usize,
    cons: Vec<(u32, Side, Side)>,
}

const GROUPS: u32 = 4;
const CONS: usize = 3;

/// Mostly variables, then sources, `f` and `g` terms, and `1`.
fn side(n: usize) -> impl Strategy<Value = Side> {
    (0u32..11, 0..n, 0..n).prop_map(|(kind, a, b)| match kind {
        0..=5 => Side::Var(a),
        6 | 7 => Side::Con(a % CONS),
        8 => Side::F(a, b),
        9 => Side::G(a),
        _ => Side::One,
    })
}

fn sys_strategy() -> impl Strategy<Value = Sys> {
    (3usize..16).prop_flat_map(|n| {
        prop::collection::vec((0..GROUPS, side(n), side(n)), 1..60)
            .prop_map(move |cons| Sys { n, cons })
    })
}

/// Constraints, each with its group.
type Grouped = [(u32, SetExpr, SetExpr)];

/// The registrations every solver of a case shares: variables, the
/// constructors, and every term `sys` names, interned in order.
struct Regs {
    problem: Problem,
    vars: Vec<Var>,
    cons: Vec<TermId>,
    f: Con,
    g: Con,
}

impl Regs {
    fn new(config: SolverConfig, sys: &Sys) -> Self {
        let mut problem = Problem::new(config);
        let vars: Vec<Var> = (0..sys.n).map(|_| problem.fresh_var()).collect();
        let cons = (0..CONS)
            .map(|k| {
                let c = problem.register_nullary(format!("c{k}"));
                problem.term(c, vec![])
            })
            .collect();
        let f = problem.register_con("f", vec![Variance::Covariant, Variance::Contravariant]);
        let g = problem.register_con("g", vec![Variance::Covariant, Variance::Contravariant]);
        let mut regs = Regs { problem, vars, cons, f, g };
        for &(_, l, r) in &sys.cons {
            regs.expr(l);
            regs.expr(r);
        }
        regs
    }

    fn expr(&mut self, side: Side) -> SetExpr {
        match side {
            Side::Var(a) => self.vars[a].into(),
            Side::Con(k) => self.cons[k].into(),
            Side::F(a, b) => {
                let args = vec![self.vars[a].into(), self.vars[b].into()];
                self.problem.term(self.f, args).into()
            }
            Side::G(a) => {
                let args = vec![self.vars[a].into(), SetExpr::Zero];
                self.problem.term(self.g, args).into()
            }
            Side::One => SetExpr::One,
        }
    }

    /// The constraints of `sys` outside group `skip`.
    fn constraints(&mut self, sys: &Sys, skip: Option<u32>) -> Vec<(u32, SetExpr, SetExpr)> {
        sys.cons
            .iter()
            .filter(|c| Some(c.0) != skip)
            .map(|&(grp, l, r)| (grp, self.expr(l), self.expr(r)))
            .collect()
    }

    /// A solver over the registrations alone, with provenance if `prov`
    /// and recording on.
    fn solver(&self, prov: bool) -> Solver {
        let mut s = Solver::from_problem(self.problem.clone());
        if prov {
            s.enable_provenance();
        }
        #[cfg(feature = "obs")]
        s.enable_obs();
        s
    }
}

fn feed(s: &mut Solver, constraints: &Grouped) {
    for &(grp, l, r) in constraints {
        s.set_current_group(Some(grp));
        s.add(l, r);
    }
    s.set_current_group(None);
}

/// The state a solver is reset from.
#[derive(Clone, Copy, Debug)]
enum Start {
    /// A converged solve of the whole system.
    Converged,
    /// A `solve_limited` run that gave up after this much work.
    BailOut(u64),
    /// A converged solve, then the dropped group retracted and repaired
    /// (provenance solvers; the others add the dropped group once more).
    Repaired,
}

fn drive(s: &mut Solver, all: &Grouped, rest: &Grouped, drop: u32, start: Start) {
    feed(s, all);
    match start {
        Start::Converged => s.solve(),
        Start::BailOut(work) => {
            s.solve_limited(work);
        }
        Start::Repaired => {
            s.solve();
            if s.provenance_enabled() {
                if s.retract_groups(&[drop]).is_some() {
                    feed(s, rest);
                    s.repair_refire();
                }
            } else {
                let dropped: Vec<_> = all.iter().filter(|c| c.0 == drop).copied().collect();
                feed(s, &dropped);
            }
            s.solve();
        }
    }
}

/// Asserts that `a` and `b` agree on everything a client can read.
fn assert_same(a: &mut Solver, b: &mut Solver, n: usize, what: &str) {
    assert_eq!(a.stats(), b.stats(), "stats: {what}");
    assert_eq!(a.census(), b.census(), "census: {what}");
    assert_eq!(a.node_counts(), b.node_counts(), "node counts: {what}");
    assert_eq!(a.inconsistencies(), b.inconsistencies(), "inconsistencies: {what}");
    assert_eq!(a.collapse_log_len(), b.collapse_log_len(), "collapse log: {what}");
    for i in 0..n {
        let v = Var::new(i);
        assert_eq!(a.find(v), b.find(v), "find({i}): {what}");
    }
    assert_eq!(a.least_solution(), b.least_solution(), "least solution: {what}");
    assert_eq!(a.least_csr().raw_parts(), b.least_csr().raw_parts(), "csr: {what}");
    #[cfg(feature = "obs")]
    {
        let (ra, rb) = (a.run_report("s").expect("obs on"), b.run_report("s").expect("obs on"));
        assert_eq!(ra.counters, rb.counters, "run-report counters: {what}");
        assert_eq!(ra.events, rb.events, "run-report events: {what}");
        assert_eq!(ra.events_dropped, rb.events_dropped, "events dropped: {what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reset_solver_matches_a_new_one(
        sys in sys_strategy(),
        drop in 0..GROUPS,
        interval in 1u32..12,
        seed in 0u64..1000,
        work in 0u64..40,
    ) {
        let periodic = SolverConfig {
            cycle_elim: CycleElim::Periodic { interval },
            ..SolverConfig::if_plain()
        };
        let configs = [
            SolverConfig::sf_plain(),
            SolverConfig::sf_online(),
            SolverConfig::if_plain(),
            SolverConfig::if_online(),
            periodic,
            SolverConfig::if_online().with_order(OrderPolicy::Random { seed }),
        ];
        for config in configs {
            let mut regs = Regs::new(config, &sys);
            let all = regs.constraints(&sys, None);
            let rest = regs.constraints(&sys, Some(drop));
            for prov in [false, true] {
                let solve_new = || {
                    let mut new = regs.solver(prov);
                    feed(&mut new, &rest);
                    new.solve();
                    new
                };
                for start in [Start::Converged, Start::BailOut(work), Start::Repaired] {
                    let mut reset = regs.solver(prov);
                    drive(&mut reset, &all, &rest, drop, start);
                    // The second round resets a converged replay whose least
                    // solution and run report were read.
                    for round in 0..2 {
                        reset.reset();
                        feed(&mut reset, &rest);
                        reset.solve();
                        let what = format!("{config:?} prov={prov} from {start:?} round {round}");
                        assert_same(&mut reset, &mut solve_new(), sys.n, &what);
                    }
                }
            }
        }
    }
}
