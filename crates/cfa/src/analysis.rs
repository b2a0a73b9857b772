//! 0-CFA (monovariant closure analysis) as inclusion constraints.
//!
//! Every expression node `e` gets a *cache* variable `C(e)` and every bound
//! identifier `x` an *environment* variable `X_x`; abstract values are the
//! program's lambdas, encoded with the solver's `lam(X̄ₓ, C(body))`
//! constructor (contravariant parameter, covariant result — exactly the
//! reference-free fragment of the paper's constraint language):
//!
//! | node | constraints |
//! |---|---|
//! | `x` | `X_x ⊆ C(e)` |
//! | `\x. b` | `lam(X̄ₓ, C(b)) ⊆ C(e)` |
//! | `f a` | `C(f) ⊆ lam(C̄(a), R)`, `R ⊆ C(e)` |
//! | `let/letrec x = v in b` | `C(v) ⊆ X_x`, `C(b) ⊆ C(e)` |
//! | `if0 c t e` | `C(t) ⊆ C(e)`, `C(e₂) ⊆ C(e)` |
//! | `n`, `+` | no closure flow |
//!
//! `letrec` puts `x` in scope of `v`, which is how recursive and mutually
//! recursive definitions wire the constraint graph into cycles — the paper's
//! future-work question is precisely whether online cycle elimination helps
//! here (spoiler, measured by the `cfa` bench binary: it does).

use crate::ast::{Expr, ExprId, Program};
use bane_core::cons::Con;
use bane_core::prelude::*;
use bane_util::idx::Idx;
use bane_util::FxHashMap;
use std::collections::BTreeSet;

/// The solved closure analysis.
#[derive(Debug)]
pub struct Cfa {
    /// The solved constraint system.
    pub solver: Solver,
    /// Cache variable per expression node.
    caches: Vec<Var>,
    /// The lambda each `lam` term denotes.
    lam_of_term: FxHashMap<TermId, ExprId>,
}

/// Generates the 0-CFA constraints for `program` into any
/// [`ConstraintBuilder`] (a solver or a bare [`Problem`]).
///
/// Returns the cache variables and the `lam`-term table; does not solve.
pub fn generate<B: ConstraintBuilder>(
    program: &Program,
    solver: &mut B,
) -> (Vec<Var>, FxHashMap<TermId, ExprId>) {
    let lam_con = solver.register_con(
        "lam",
        vec![Variance::Contravariant, Variance::Covariant],
    );
    let mut gen = Gen {
        program,
        solver,
        lam_con,
        caches: (0..program.term.len()).map(|_| Var::new(0)).collect(),
        lam_of_term: FxHashMap::default(),
        env: Vec::new(),
    };
    for id in program.term.ids() {
        gen.caches[id.index()] = gen.solver.fresh_var();
    }
    gen.walk(program.root);
    (gen.caches, gen.lam_of_term)
}

/// Runs the full pipeline under `config`.
pub fn analyze(program: &Program, config: SolverConfig) -> Cfa {
    let mut solver = Solver::new(config);
    let (caches, lam_of_term) = generate(program, &mut solver);
    solver.solve();
    Cfa { solver, caches, lam_of_term }
}

impl Cfa {
    /// The lambdas that may flow to expression `e` (sorted by node id).
    pub fn values_of(&mut self, e: ExprId) -> Vec<ExprId> {
        let v = self.solver.find(self.caches[e.index()]);
        let ls = self.solver.least_solution();
        let mut out: Vec<ExprId> = ls
            .get(v)
            .iter()
            .filter_map(|t| self.lam_of_term.get(t).copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// The lambdas callable at application node `app` (its callee's values).
    ///
    /// # Panics
    ///
    /// Panics if `app` is not an application node of the analyzed program.
    pub fn callees_of(&mut self, program: &Program, app: ExprId) -> Vec<ExprId> {
        let Expr::App(f, _) = program.term.get(app) else {
            panic!("{app} is not an application");
        };
        self.values_of(*f)
    }

    /// All application nodes with the number of callable lambdas — the
    /// call-graph summary clients of closure analysis consume.
    pub fn call_summary(&mut self, program: &Program) -> Vec<(ExprId, usize)> {
        let mut out = Vec::new();
        for id in program.term.ids() {
            if let Expr::App(f, _) = program.term.get(id) {
                let n = self.values_of(*f).len();
                out.push((id, n));
            }
        }
        out
    }
}

struct Gen<'p, 's, B> {
    program: &'p Program,
    solver: &'s mut B,
    lam_con: Con,
    caches: Vec<Var>,
    lam_of_term: FxHashMap<TermId, ExprId>,
    /// Lexical environment: (name, variable) pairs, innermost last.
    env: Vec<(String, Var)>,
}

impl<B: ConstraintBuilder> Gen<'_, '_, B> {
    fn cache(&self, e: ExprId) -> Var {
        self.caches[e.index()]
    }

    fn lookup(&self, name: &str) -> Option<Var> {
        self.env.iter().rev().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    fn walk(&mut self, e: ExprId) {
        let ce = self.cache(e);
        match self.program.term.get(e).clone() {
            Expr::Var(x) => {
                // Unbound variables denote no closures (like C's externs
                // they could be made ⊤; empty is the conventional choice).
                if let Some(xv) = self.lookup(&x) {
                    self.solver.add(xv, ce);
                }
            }
            Expr::Int(_) => {}
            Expr::Lam(x, body) => {
                let xv = self.solver.fresh_var();
                let lam = self.solver.term(
                    self.lam_con,
                    vec![xv.into(), self.cache(body).into()],
                );
                self.lam_of_term.insert(lam, e);
                self.solver.add(lam, ce);
                self.env.push((x, xv));
                self.walk(body);
                self.env.pop();
            }
            Expr::App(f, a) => {
                self.walk(f);
                self.walk(a);
                let result = self.solver.fresh_var();
                let sink = self.solver.term(
                    self.lam_con,
                    vec![self.cache(a).into(), result.into()],
                );
                self.solver.add(self.cache(f), sink);
                self.solver.add(result, ce);
            }
            Expr::Add(a, b) => {
                self.walk(a);
                self.walk(b);
            }
            Expr::Let(x, bound, body) => {
                self.walk(bound);
                let xv = self.solver.fresh_var();
                self.solver.add(self.cache(bound), xv);
                self.env.push((x, xv));
                self.walk(body);
                self.env.pop();
                self.solver.add(self.cache(body), ce);
            }
            Expr::LetRec(x, bound, body) => {
                let xv = self.solver.fresh_var();
                self.env.push((x, xv));
                self.walk(bound);
                self.solver.add(self.cache(bound), xv);
                self.walk(body);
                self.env.pop();
                self.solver.add(self.cache(body), ce);
            }
            Expr::If0(c, t, els) => {
                self.walk(c);
                self.walk(t);
                self.walk(els);
                self.solver.add(self.cache(t), ce);
                self.solver.add(self.cache(els), ce);
            }
        }
    }
}

/// A set of lambdas by display string, for readable assertions.
pub fn lambda_names(program: &Program, lams: &[ExprId]) -> BTreeSet<String> {
    lams.iter().map(|&l| program.term.display(l)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn values(src: &str, config: SolverConfig) -> BTreeSet<String> {
        let program = parse(src).expect("parses");
        let mut cfa = analyze(&program, config);
        let vals = cfa.values_of(program.root);
        lambda_names(&program, &vals)
    }

    #[test]
    fn identity_application_returns_identity() {
        // (id id) evaluates to id itself.
        let v = values(r"let id = \x. x in id id", SolverConfig::if_online());
        assert_eq!(v.len(), 1);
        assert!(v.contains("\\x. x"));
    }

    #[test]
    fn branches_merge() {
        let v = values(
            r"let f = \x. x in let g = \y. y in if0 0 then f else g",
            SolverConfig::if_online(),
        );
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn higher_order_flow() {
        // apply = \f. \x. f x;  (apply id) 3 → id's result → no lambdas,
        // but the callee sets are precise.
        let src = r"let apply = \f. \x. f x in let id = \z. z in apply id 0";
        let program = parse(src).unwrap();
        let mut cfa = analyze(&program, SolverConfig::if_online());
        let summary = cfa.call_summary(&program);
        // Three applications: (apply id), ((apply id) 0), (f x).
        assert_eq!(summary.len(), 3);
        for (app, n) in summary {
            assert_eq!(n, 1, "call site {} resolves uniquely", program.term.display(app));
        }
    }

    #[test]
    fn letrec_supports_self_reference() {
        let src = r"letrec loop = \n. if0 n then 0 else loop (n + 1) in loop 5";
        let program = parse(src).unwrap();
        let mut cfa = analyze(&program, SolverConfig::if_online());
        // The recursive call site sees exactly the loop lambda.
        let apps: Vec<ExprId> = program
            .term
            .ids()
            .filter(|&id| matches!(program.term.get(id), Expr::App(..)))
            .collect();
        for app in apps {
            let callees = cfa.callees_of(&program, app);
            assert_eq!(callees.len(), 1, "{}", program.term.display(app));
        }
    }

    #[test]
    fn all_solver_configurations_agree() {
        let src = r"letrec even = \n. if0 n then (\t. t) else odd (n + 1)
                    in letrec odd = \n. if0 n then (\f. f) else even (n + 1)
                    in (even 4) (odd 3)";
        let reference = values(src, SolverConfig::sf_plain());
        for config in [
            SolverConfig::if_plain(),
            SolverConfig::sf_online(),
            SolverConfig::if_online(),
        ] {
            assert_eq!(values(src, config), reference, "{config:?}");
        }
    }

    #[test]
    fn unbound_variables_flow_nothing() {
        let v = values("mystery", SolverConfig::if_online());
        assert!(v.is_empty());
    }
}
