//! Andersen's points-to analysis as inclusion constraints (Section 3).
//!
//! Every expression is assigned a set expression denoting its *L-value* (the
//! set of locations it may designate); R-values are obtained by projecting
//! through the covariant `get` field of `ref`, and assignment writes through
//! the contravariant `set` field. The rules follow Figure 6 of the paper
//! (and \[FA97\] for the full language):
//!
//! | construct | constraints |
//! |---|---|
//! | variable `x` | `τ_x = ref(loc_x, X_x, X̄_x)` |
//! | `&e` | `τ = ref(1, τ_e, τ̄_e)` (for functions, `&f ≡ f`) |
//! | `*e` | fresh `T`, `τ_e ⊆ ref(1, T, 0̄)`, `τ = T` |
//! | `e₁ = e₂` | `τ₂ ⊆ ref(1, T₂, 0̄)` and `τ₁ ⊆ ref(1, 1, T̄₂)` |
//! | `e(a₁…aₖ)` | `T_f ⊆ lam_k(Ā₁,…,Āₖ, T_r)` with `Aᵢ` the argument R-values |
//! | literals / `NULL` | `ref(1, 0, 1̄)` — points to nothing, absorbs writes |
//!
//! Arrays are collapsed onto a single element location whose `ref` is seeded
//! into the array variable's contents (so both array decay `p = a` and
//! indexing `a[i]` behave correctly); `struct` members are field-insensitive;
//! casts are transparent. Constraint generation is purely syntax-directed
//! and deterministic, which is what lets the oracle experiments replay the
//! exact same variable-creation sequence.

use crate::location::{CallSite, FnInfo, LocId, LocKind, Location, Locations};
use bane_cfront::ast::*;
use bane_core::cons::Con;
use bane_core::prelude::*;
use bane_util::FxHashMap;

/// Counters describing the generated constraint system.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GenStats {
    /// Abstract locations created.
    pub locations: usize,
    /// Constraints handed to the solver.
    pub constraints: u64,
    /// Identifiers that had to be treated as implicit globals.
    pub implicit_globals: usize,
}

/// Generates Andersen constraints for `program` into any
/// [`ConstraintBuilder`] — a [`Solver`] or a plain [`Problem`] to be handed
/// to [`Solver::from_problem`] later.
///
/// Does **not** solve; callers time [`Solver::solve`] separately (that is the
/// quantity the paper's tables report). Returns the location table.
pub fn generate<B: ConstraintBuilder>(program: &Program, solver: &mut B) -> (Locations, GenStats) {
    let mut gen = Gen::new(solver);
    gen.program(program);
    let stats = gen.stats;
    (gen.locs, stats)
}

/// A complete analysis: generated, solved, ready for extraction.
#[derive(Debug)]
pub struct Analysis {
    /// The solved constraint system.
    pub solver: Solver,
    /// The location table.
    pub locs: Locations,
    /// Generation counters.
    pub gen_stats: GenStats,
}

/// Runs the full pipeline with `config`.
pub fn analyze(program: &Program, config: SolverConfig) -> Analysis {
    let mut solver = Solver::new(config);
    let (locs, gen_stats) = generate(program, &mut solver);
    solver.solve();
    Analysis { solver, locs, gen_stats }
}

/// Runs the full pipeline with an oracle partition (the `*-Oracle`
/// experiments); the partition must come from a prior run over the same
/// program (see [`Solver::scc_partition`]).
pub fn analyze_with_oracle(
    program: &Program,
    config: SolverConfig,
    partition: Partition,
) -> Analysis {
    let mut solver = Solver::with_oracle(config, partition);
    let (locs, gen_stats) = generate(program, &mut solver);
    solver.solve();
    Analysis { solver, locs, gen_stats }
}

impl Analysis {
    /// Computes the points-to graph from the least solution.
    pub fn points_to(&mut self) -> PointsToGraph {
        let ls = self.solver.least_solution();
        let mut targets: Vec<Vec<LocId>> = Vec::with_capacity(self.locs.len());
        for (_, loc) in self.locs.iter() {
            let content = self.solver.find(loc.content);
            let mut out: Vec<LocId> =
                ls.get(content).iter().filter_map(|&t| self.locs.loc_of_term(t)).collect();
            out.sort_unstable();
            out.dedup();
            targets.push(out);
        }
        PointsToGraph { targets }
    }
}

/// The points-to graph: for every location, the locations it may point to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointsToGraph {
    targets: Vec<Vec<LocId>>,
}

impl PointsToGraph {
    /// The points-to set of `loc`, sorted.
    pub fn targets(&self, loc: LocId) -> &[LocId] {
        &self.targets[loc.raw() as usize]
    }

    /// Number of locations.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Total number of points-to edges.
    pub fn total_edges(&self) -> usize {
        self.targets.iter().map(Vec::len).sum()
    }

    /// Renders the points-to graph as Graphviz DOT (named locations only).
    pub fn to_dot(&self, locs: &Locations) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph points_to {\n    rankdir=LR;\n");
        for (id, loc) in locs.iter() {
            if !self.targets(id).is_empty() {
                let _ = writeln!(
                    out,
                    "    n{} [label=\"{}\"];",
                    id.raw(),
                    loc.name.replace('"', "'")
                );
            }
        }
        for (id, _) in locs.iter() {
            for &t in self.targets(id) {
                let _ = writeln!(out, "    n{} -> n{};", id.raw(), t.raw());
            }
        }
        out.push_str("}\n");
        out
    }

    /// Mean points-to set size over locations with non-empty sets.
    pub fn mean_nonempty_size(&self) -> f64 {
        let nonempty: Vec<usize> =
            self.targets.iter().map(Vec::len).filter(|&n| n > 0).collect();
        if nonempty.is_empty() {
            0.0
        } else {
            nonempty.iter().sum::<usize>() as f64 / nonempty.len() as f64
        }
    }
}

// ---------------------------------------------------------------------------
// The generator
// ---------------------------------------------------------------------------

struct Gen<'s, B> {
    solver: &'s mut B,
    locs: Locations,
    ref_con: Con,
    lam_cons: FxHashMap<usize, Con>,
    /// Scope stack: innermost last. Each maps identifier → location.
    scopes: Vec<FxHashMap<String, LocId>>,
    /// Return-value variable of the function being generated.
    current_ret: Option<Var>,
    current_fn: String,
    literal: TermId,
    str_count: usize,
    /// Collapsed element location per array location (for initializers).
    elems: FxHashMap<u32, LocId>,
    stats: GenStats,
}

impl<'s, B: ConstraintBuilder> Gen<'s, B> {
    fn new(solver: &'s mut B) -> Self {
        let ref_con = solver.register_con(
            "ref",
            vec![Variance::Covariant, Variance::Covariant, Variance::Contravariant],
        );
        // Literals and NULL: point at nothing, absorb any write.
        let literal = solver.term(ref_con, vec![SetExpr::One, SetExpr::Zero, SetExpr::One]);
        Gen {
            solver,
            locs: Locations::new(),
            ref_con,
            lam_cons: FxHashMap::default(),
            scopes: vec![FxHashMap::default()],
            current_ret: None,
            current_fn: String::new(),
            literal,
            str_count: 0,
            elems: FxHashMap::default(),
            stats: GenStats::default(),
        }
    }

    fn add(&mut self, lhs: impl Into<SetExpr>, rhs: impl Into<SetExpr>) {
        self.stats.constraints += 1;
        self.solver.add(lhs, rhs);
    }

    /// Creates a location: a name constructor, a contents variable, and the
    /// `ref(loc, X, X̄)` term.
    fn new_loc(&mut self, name: String, kind: LocKind) -> LocId {
        let name_con = self.solver.register_nullary(name.clone());
        let loc_term = self.solver.term(name_con, vec![]);
        let content = self.solver.fresh_var();
        let ref_term = self
            .solver
            .term(self.ref_con, vec![loc_term.into(), content.into(), content.into()]);
        self.stats.locations += 1;
        self.locs.push(Location { name, kind, content, ref_term })
    }

    fn lam_con(&mut self, arity: usize) -> Con {
        if let Some(&c) = self.lam_cons.get(&arity) {
            return c;
        }
        // k contravariant parameters, then a covariant return value.
        let mut variances = vec![Variance::Contravariant; arity];
        variances.push(Variance::Covariant);
        let c = self.solver.register_con(format!("lam{arity}"), variances);
        self.lam_cons.insert(arity, c);
        c
    }

    fn bind(&mut self, name: &str, loc: LocId) {
        self.scopes
            .last_mut()
            .expect("scope stack is never empty")
            .insert(name.to_string(), loc);
    }

    fn lookup(&self, name: &str) -> Option<LocId> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    /// Resolves `name`, creating an implicit global for undeclared
    /// identifiers (C programs reference externs all the time).
    fn lookup_or_implicit(&mut self, name: &str) -> LocId {
        if let Some(loc) = self.lookup(name) {
            return loc;
        }
        let loc = self.new_loc(name.to_string(), LocKind::Global);
        self.stats.implicit_globals += 1;
        self.scopes[0].insert(name.to_string(), loc);
        loc
    }

    /// Projects the R-value out of an L-value set: fresh `T` with
    /// `τ ⊆ ref(1, T, 0̄)`.
    fn rvalue(&mut self, lval: SetExpr) -> Var {
        let t = self.solver.fresh_var();
        let sink =
            self.solver.term(self.ref_con, vec![SetExpr::One, t.into(), SetExpr::Zero]);
        self.add(lval, sink);
        t
    }

    /// Writes `value` through an L-value set: `τ ⊆ ref(1, 1, V̄)`.
    fn write(&mut self, lval: SetExpr, value: impl Into<SetExpr>) {
        let sink =
            self.solver.term(self.ref_con, vec![SetExpr::One, SetExpr::One, value.into()]);
        self.add(lval, sink);
    }

    /// Wraps an R-value as a pseudo-L-value (used for `&e`, calls, literals):
    /// `ref(1, v, v̄)`.
    fn holder(&mut self, value: impl Into<SetExpr>) -> SetExpr {
        let value = value.into();
        self.solver.term(self.ref_con, vec![SetExpr::One, value, value]).into()
    }

    // -- program structure -------------------------------------------------

    fn program(&mut self, program: &Program) {
        // Pass 1: declare globals and functions (forward references).
        for g in &program.globals {
            let loc = self.new_loc(g.name.clone(), LocKind::Global);
            self.bind(&g.name.clone(), loc);
            if let Some(elem) = self.array_seed(&g.ty, loc, &g.name.clone()) {
                self.elems.insert(loc.raw(), elem);
            }
        }
        for f in &program.functions {
            self.declare_fn(f);
        }
        // Pass 2: global initializers, then bodies.
        for g in &program.globals {
            if let Some(init) = &g.init {
                let loc = self.lookup(&g.name).expect("declared in pass 1");
                let elem = self.elems.get(&loc.raw()).copied();
                self.init_decl(loc, elem, init);
            }
        }
        for f in &program.functions {
            self.fn_body(f);
        }
    }

    /// Arrays get a collapsed element location seeded into their contents;
    /// returns it so initializer lists can target the elements.
    fn array_seed(&mut self, ty: &Type, loc: LocId, name: &str) -> Option<LocId> {
        if ty.array.is_some() {
            let elem = self.new_loc(format!("{name}[]"), LocKind::ArrayElem);
            let elem_ref = self.locs.get(elem).ref_term;
            let content = self.locs.get(loc).content;
            self.add(elem_ref, content);
            Some(elem)
        } else {
            None
        }
    }

    /// Routes a declaration initializer: plain expressions write into the
    /// declared location; initializer lists flow element-wise into the
    /// array's collapsed element (or the struct location itself).
    fn init_decl(&mut self, loc: LocId, elem: Option<LocId>, init: &Expr) {
        match init {
            Expr::InitList(items) => {
                let target = elem.unwrap_or(loc);
                let content = self.locs.get(target).content;
                self.init_list_into(content, items);
            }
            _ => {
                let lval: SetExpr = self.locs.get(loc).ref_term.into();
                let rhs = self.expr(init);
                let value = self.rvalue(rhs);
                self.write(lval, value);
            }
        }
    }

    fn init_list_into(&mut self, content: Var, items: &[Expr]) {
        for item in items {
            match item {
                Expr::InitList(nested) => self.init_list_into(content, nested),
                _ => {
                    let lval = self.expr(item);
                    let value = self.rvalue(lval);
                    self.add(value, content);
                }
            }
        }
    }

    fn declare_fn(&mut self, f: &Function) {
        if self.locs.fn_info(&f.name).is_some() {
            return; // redefinition: keep the first
        }
        let loc = self.new_loc(f.name.clone(), LocKind::Function);
        self.bind(&f.name.clone(), loc);
        let mut params = Vec::new();
        let mut param_contents: Vec<SetExpr> = Vec::new();
        for (i, p) in f.params.iter().enumerate() {
            let pname = if p.name.is_empty() { format!("arg{i}") } else { p.name.clone() };
            let ploc =
                self.new_loc(format!("{}::{}", f.name, pname), LocKind::Param(f.name.clone()));
            params.push(ploc);
            param_contents.push(self.locs.get(ploc).content.into());
        }
        let ret = self.solver.fresh_var();
        let lam = self.lam_con(f.params.len());
        let mut args = param_contents;
        args.push(ret.into());
        let lam_term = self.solver.term(lam, args);
        // The function's "contents" hold its lam value, so both `f` (decay)
        // and `&f` produce it.
        let content = self.locs.get(loc).content;
        self.add(lam_term, content);
        self.locs.alias_term(lam_term, loc);
        self.locs.set_fn(&f.name, FnInfo { loc, params, ret, lam_term });
    }

    fn fn_body(&mut self, f: &Function) {
        let info = self.locs.fn_info(&f.name).expect("declared in pass 1").clone();
        self.scopes.push(FxHashMap::default());
        for (p, ploc) in f.params.iter().zip(&info.params) {
            let pname = if p.name.is_empty() { continue } else { p.name.clone() };
            self.bind(&pname, *ploc);
        }
        self.current_ret = Some(info.ret);
        self.current_fn = f.name.clone();
        self.stmts(&f.body);
        self.current_ret = None;
        self.scopes.pop();
    }

    // -- statements ---------------------------------------------------------

    fn stmts(&mut self, body: &[Stmt]) {
        self.scopes.push(FxHashMap::default());
        for s in body {
            self.stmt(s);
        }
        self.scopes.pop();
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Decl(d) => {
                let loc = self.new_loc(
                    format!("{}::{}", self.current_fn, d.name),
                    LocKind::Local(self.current_fn.clone()),
                );
                self.bind(&d.name.clone(), loc);
                let qualified = format!("{}::{}", self.current_fn, d.name);
                let elem = self.array_seed(&d.ty, loc, &qualified);
                if let Some(init) = &d.init {
                    self.init_decl(loc, elem, init);
                }
            }
            Stmt::Expr(e) => {
                self.expr(e);
            }
            Stmt::If(c, t, e) => {
                self.expr(c);
                self.stmts(t);
                self.stmts(e);
            }
            Stmt::While(c, b) => {
                self.expr(c);
                self.stmts(b);
            }
            Stmt::For(i, c, s, b) => {
                for part in [i, c, s].into_iter().flatten() {
                    self.expr(part);
                }
                self.stmts(b);
            }
            Stmt::Return(Some(e)) => {
                let lval = self.expr(e);
                let value = self.rvalue(lval);
                if let Some(ret) = self.current_ret {
                    self.add(value, ret);
                }
            }
            Stmt::DoWhile(b, c) => {
                self.stmts(b);
                self.expr(c);
            }
            Stmt::Switch(e, cases) => {
                self.expr(e);
                for case in cases {
                    self.stmts(&case.body);
                }
            }
            Stmt::Break | Stmt::Continue | Stmt::Goto(_) | Stmt::Label(_) => {}
            Stmt::Return(None) => {}
            Stmt::Block(b) => self.stmts(b),
        }
    }

    // -- expressions ----------------------------------------------------------

    /// Generates constraints for `e` and returns its L-value set expression.
    fn expr(&mut self, e: &Expr) -> SetExpr {
        match e {
            Expr::Id(name) => {
                let loc = self.lookup_or_implicit(name);
                self.locs.get(loc).ref_term.into()
            }
            Expr::Int(_) | Expr::Null => self.literal.into(),
            Expr::Sizeof(inner) => {
                self.expr(inner);
                self.literal.into()
            }
            Expr::Str(_) => {
                // A string is an anonymous char array: its pseudo-L-value
                // R-projects to the element location.
                let id = self.str_count;
                self.str_count += 1;
                let loc = self.new_loc(format!("\"str{id}\""), LocKind::StrLit);
                let r = self.locs.get(loc).ref_term;
                self.holder(r)
            }
            Expr::Unary(UnOp::AddrOf, inner) => {
                // &f for a function designator is f itself.
                if let Expr::Id(name) = inner.as_ref() {
                    if self.locs.fn_info(name).is_some() {
                        return self.expr(inner);
                    }
                }
                let tau = self.expr(inner);
                self.holder(tau)
            }
            Expr::Unary(UnOp::Deref, inner) => {
                let tau = self.expr(inner);
                self.rvalue(tau).into()
            }
            Expr::Unary(UnOp::Neg | UnOp::Not | UnOp::BitNot, inner) => {
                self.expr(inner);
                self.literal.into()
            }
            Expr::Binary(op, a, b) => {
                let ta = self.expr(a);
                let tb = self.expr(b);
                match op {
                    // Pointer arithmetic preserves targets. `ptr ± int` (by
                    // far the common case) keeps the pointer side's set
                    // directly — no merge variable, hence no spurious
                    // constraint cycle for `p = p + 1`.
                    BinOp::Add | BinOp::Sub => {
                        let scalar = |e: &Expr| {
                            matches!(e, Expr::Int(_) | Expr::Null | Expr::Sizeof(_))
                        };
                        match (scalar(a), scalar(b)) {
                            (true, true) => self.literal.into(),
                            (false, true) => {
                                let va = self.rvalue(ta);
                                self.holder(va)
                            }
                            (true, false) => {
                                let vb = self.rvalue(tb);
                                self.holder(vb)
                            }
                            (false, false) => {
                                let t = self.solver.fresh_var();
                                let va = self.rvalue(ta);
                                let vb = self.rvalue(tb);
                                self.add(va, t);
                                self.add(vb, t);
                                self.holder(t)
                            }
                        }
                    }
                    _ => self.literal.into(),
                }
            }
            Expr::Assign(l, r) => {
                let tl = self.expr(l);
                let tr = self.expr(r);
                let value = self.rvalue(tr);
                self.write(tl, value);
                // The value of an assignment is its right-hand side.
                self.holder(value)
            }
            Expr::Call(callee, args) => {
                let tc = self.expr(callee);
                let fval = self.rvalue(tc);
                self.locs.push_call_site(CallSite {
                    caller: self.current_fn.clone(),
                    callee_values: fval,
                    arity: args.len(),
                });
                let mut sink_args: Vec<SetExpr> = Vec::with_capacity(args.len() + 1);
                for a in args {
                    let ta = self.expr(a);
                    sink_args.push(self.rvalue(ta).into());
                }
                let ret = self.solver.fresh_var();
                sink_args.push(ret.into());
                let lam = self.lam_con(args.len());
                let sink = self.solver.term(lam, sink_args);
                self.add(fval, sink);
                self.holder(ret)
            }
            Expr::Index(base, idx) => {
                self.expr(idx);
                let tb = self.expr(base);
                self.rvalue(tb).into()
            }
            Expr::Member(base, _field, arrow) => {
                let tb = self.expr(base);
                if *arrow {
                    self.rvalue(tb).into()
                } else {
                    tb
                }
            }
            Expr::Cast(_, inner) => self.expr(inner),
            Expr::Ternary(c, t, f) => {
                // Both branches' values merge into the result.
                self.expr(c);
                let tt = self.expr(t);
                let tf = self.expr(f);
                let merged = self.solver.fresh_var();
                let vt = self.rvalue(tt);
                let vf = self.rvalue(tf);
                self.add(vt, merged);
                self.add(vf, merged);
                self.holder(merged)
            }
            Expr::Comma(a, b) => {
                self.expr(a);
                self.expr(b)
            }
            Expr::InitList(items) => {
                // Outside a declaration (compound-literal-ish): merge all
                // element values.
                let merged = self.solver.fresh_var();
                for item in items {
                    let lval = self.expr(item);
                    let value = self.rvalue(lval);
                    self.add(value, merged);
                }
                self.holder(merged)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bane_cfront::parse::parse;
    use std::collections::BTreeSet;

    /// Runs the analysis and returns `name → {target names}` for every
    /// location with a non-empty points-to set.
    fn pts(src: &str, config: SolverConfig) -> std::collections::BTreeMap<String, BTreeSet<String>> {
        let program = parse(src).expect("test program parses");
        let mut analysis = analyze(&program, config);
        assert!(
            analysis.solver.inconsistencies().is_empty(),
            "unexpected inconsistencies: {:?}",
            analysis.solver.inconsistencies()
        );
        let graph = analysis.points_to();
        let mut out = std::collections::BTreeMap::new();
        for (id, loc) in analysis.locs.iter() {
            let targets: BTreeSet<String> = graph
                .targets(id)
                .iter()
                .map(|&t| analysis.locs.get(t).name.clone())
                .collect();
            if !targets.is_empty() {
                out.insert(loc.name.clone(), targets);
            }
        }
        out
    }

    fn set(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    /// The paper's Figure 5 example program:
    /// `a = &b; b = &c; a = &c;` — wait, the figure shows a→{b,c}, b→{d}, c→{d}… we
    /// use the canonical variant: a points to b and c; b and c point to d.
    #[test]
    fn figure5_style_graph() {
        let m = pts(
            "int d;\n\
             int *b, *c;\n\
             int **a;\n\
             void main(void) { a = &b; a = &c; b = &d; c = &d; }",
            SolverConfig::if_online(),
        );
        assert_eq!(m["a"], set(&["b", "c"]));
        assert_eq!(m["b"], set(&["d"]));
        assert_eq!(m["c"], set(&["d"]));
    }

    /// All six experiment configurations compute the same points-to graph.
    #[test]
    fn configs_agree_on_points_to() {
        let src = "int x, y;\n\
             int *p, *q, **pp;\n\
             void swap(void) { pp = &p; *pp = &x; q = *pp; q = &y; p = q; }";
        let reference = pts(src, SolverConfig::sf_plain());
        for config in [
            SolverConfig::if_plain(),
            SolverConfig::sf_online(),
            SolverConfig::if_online(),
        ] {
            assert_eq!(pts(src, config), reference, "{config:?}");
        }
    }

    #[test]
    fn assignment_through_deref() {
        let m = pts(
            "int x;\nint *p;\nint **q;\n\
             void f(void) { q = &p; *q = &x; }",
            SolverConfig::if_online(),
        );
        assert_eq!(m["q"], set(&["p"]));
        assert_eq!(m["p"], set(&["x"]));
    }

    #[test]
    fn calls_bind_params_and_returns() {
        let m = pts(
            "int g;\n\
             int *identity(int *p) { return p; }\n\
             int *r;\n\
             void main(void) { r = identity(&g); }",
            SolverConfig::if_online(),
        );
        assert_eq!(m["identity::p"], set(&["g"]));
        assert_eq!(m["r"], set(&["g"]));
    }

    #[test]
    fn function_pointers_flow() {
        let m = pts(
            "int g;\n\
             int *get(void) { return &g; }\n\
             int *(*fp)(void);\n\
             int *r;\n\
             void main(void) { fp = &get; r = fp(); }",
            SolverConfig::if_online(),
        );
        assert_eq!(m["fp"], set(&["get"]));
        assert_eq!(m["r"], set(&["g"]));
    }

    #[test]
    fn function_decay_without_ampersand() {
        let m = pts(
            "int g;\n\
             int *get(void) { return &g; }\n\
             int *(*fp)(void);\n\
             void main(void) { fp = get; g = *fp(); }",
            SolverConfig::if_online(),
        );
        assert_eq!(m["fp"], set(&["get"]));
    }

    #[test]
    fn arrays_collapse_to_element() {
        let m = pts(
            "int x;\n\
             int *arr[4];\n\
             int **p;\n\
             void f(void) { arr[0] = &x; p = arr; p = &arr[1]; }",
            SolverConfig::if_online(),
        );
        assert_eq!(m["arr"], set(&["arr[]"]));
        assert_eq!(m["arr[]"], set(&["x"]));
        assert_eq!(m["p"], set(&["arr[]"]));
    }

    #[test]
    fn struct_members_are_field_insensitive() {
        let m = pts(
            "struct node { struct node *next; int v; };\n\
             struct node a, b;\n\
             struct node *h;\n\
             void f(void) { h = &a; h->next = &b; a.next = h; }",
            SolverConfig::if_online(),
        );
        // h → {a}; a.next collapses onto a: a → {b, a}.
        assert_eq!(m["h"], set(&["a"]));
        assert_eq!(m["a"], set(&["a", "b"]));
    }

    #[test]
    fn string_literals_and_null() {
        let m = pts(
            "char *s;\nvoid f(void) { s = \"hello\"; s = NULL; }",
            SolverConfig::if_online(),
        );
        assert_eq!(m["s"], set(&["\"str0\""]));
    }

    #[test]
    fn pointer_arithmetic_preserves_targets() {
        let m = pts(
            "int x;\nint *p, *q;\nvoid f(void) { p = &x; q = p + 1; }",
            SolverConfig::if_online(),
        );
        assert_eq!(m["q"], set(&["x"]));
    }

    #[test]
    fn cycles_from_copy_loops_collapse() {
        let src = "int x;\n\
             int *a, *b, *c;\n\
             void f(void) { a = &x; b = a; c = b; a = c; }";
        let program = parse(src).unwrap();
        let mut analysis = analyze(&program, SolverConfig::if_online());
        assert!(analysis.solver.stats().vars_eliminated > 0, "copy cycle should collapse");
        let graph = analysis.points_to();
        for name in ["a", "b", "c"] {
            let id = analysis.locs.by_name(name).unwrap();
            assert_eq!(graph.targets(id).len(), 1, "{name}");
        }
    }

    #[test]
    fn oracle_replay_matches() {
        let src = "int x, y;\n\
             int *p, *q;\n\
             void f(void) { p = &x; q = p; p = q; q = &y; }";
        let program = parse(src).unwrap();
        let mut first = analyze(&program, SolverConfig::if_online());
        let reference = first.points_to();
        let partition = first.solver.scc_partition();
        for base in [SolverConfig::sf_plain(), SolverConfig::if_plain()] {
            let mut oracle = analyze_with_oracle(&program, base, partition.clone());
            assert_eq!(oracle.solver.stats().cycles_collapsed, 0);
            let got = oracle.points_to();
            // Compare by name since LocIds are identical across runs.
            assert_eq!(got, reference, "{base:?}");
        }
    }

    #[test]
    fn dot_export_renders_edges() {
        let program = parse("int x;\nint *p;\nvoid f(void) { p = &x; }").unwrap();
        let mut analysis = analyze(&program, SolverConfig::if_online());
        let graph = analysis.points_to();
        let dot = graph.to_dot(&analysis.locs);
        assert!(dot.starts_with("digraph points_to {"));
        assert!(dot.contains("\"p\""), "{dot}");
        assert!(dot.contains(" -> "), "{dot}");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn implicit_globals_are_created() {
        let program = parse("void f(void) { undeclared = 3; }").unwrap();
        let mut solver = Solver::new(SolverConfig::if_online());
        let (_locs, stats) = generate(&program, &mut solver);
        assert_eq!(stats.implicit_globals, 1);
    }

    #[test]
    fn set_variable_counts_are_deterministic() {
        let src = "int *p, x; void f(void) { p = &x; }";
        let program = parse(src).unwrap();
        let mut s1 = Solver::new(SolverConfig::if_online());
        let mut s2 = Solver::new(SolverConfig::if_online());
        generate(&program, &mut s1);
        generate(&program, &mut s2);
        assert_eq!(s1.vars_created(), s2.vars_created());
    }
}
