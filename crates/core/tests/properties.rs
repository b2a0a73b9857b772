//! Property-based tests for the constraint solver.
//!
//! The central invariant of the whole paper is that representation choices
//! (standard vs. inductive form), online cycle elimination, and oracle
//! pre-aliasing are all *semantics-preserving*: every configuration must
//! produce the same least solution. We check that here against randomly
//! generated constraint systems and against an independent naive fixpoint
//! solver, plus the paper's theorem that inductive form exposes part of
//! every non-trivial SCC.

use bane_core::forward::Forwarding;
use bane_core::graph::{Graph, GraphCensus, Insert};
use bane_core::least::Revalidator;
use bane_core::prelude::*;
use bane_util::idx::Idx;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::collections::HashSet;

/// A randomly generated constraint system over `n` variables.
///
/// Uses a nullary source constructor family `c0..`, plus one binary
/// constructor `f(co, contra)` to exercise the resolution rules.
#[derive(Debug, Clone)]
struct Sys {
    n: usize,
    /// `va ⊆ vb`.
    var_edges: Vec<(usize, usize)>,
    /// `ck ⊆ va`.
    src_edges: Vec<(usize, usize)>,
    n_cons: usize,
    /// `f(va, v̄b) ⊆ vc`.
    term_srcs: Vec<(usize, usize, usize)>,
    /// `vc ⊆ f(va, v̄b)`.
    term_snks: Vec<(usize, usize, usize)>,
}

fn sys_strategy() -> impl Strategy<Value = Sys> {
    (3usize..20).prop_flat_map(|n| {
        let var_edge = (0..n, 0..n);
        let src_edge = (0..4usize, 0..n);
        let term = (0..n, 0..n, 0..n);
        (
            Just(n),
            prop::collection::vec(var_edge, 0..50),
            prop::collection::vec(src_edge, 1..8),
            prop::collection::vec(term.clone(), 0..6),
            prop::collection::vec(term, 0..6),
        )
            .prop_map(|(n, var_edges, src_edges, term_srcs, term_snks)| Sys {
                n,
                var_edges,
                src_edges,
                n_cons: 4,
                term_srcs,
                term_snks,
            })
    })
}

/// Feeds `sys` into a solver; returns `(solver, vars, source terms)`.
fn build(sys: &Sys, mut solver: Solver) -> (Solver, Vec<Var>, Vec<TermId>) {
    let vars: Vec<Var> = (0..sys.n).map(|_| solver.fresh_var()).collect();
    let mut srcs = Vec::new();
    for k in 0..sys.n_cons {
        let c = solver.register_nullary(format!("c{k}"));
        srcs.push(solver.term(c, vec![]));
    }
    let f = solver.register_con("f", vec![Variance::Covariant, Variance::Contravariant]);
    for &(a, b) in &sys.var_edges {
        solver.add(vars[a], vars[b]);
    }
    for &(k, a) in &sys.src_edges {
        solver.add(srcs[k], vars[a]);
    }
    for &(a, b, c) in &sys.term_srcs {
        let t = solver.term(f, vec![vars[a].into(), vars[b].into()]);
        solver.add(t, vars[c]);
    }
    for &(a, b, c) in &sys.term_snks {
        let t = solver.term(f, vec![vars[a].into(), vars[b].into()]);
        solver.add(vars[c], t);
    }
    (solver, vars, srcs)
}

/// Solves and returns the least solution of every variable, in order.
fn solutions(sys: &Sys, config: SolverConfig) -> Vec<Vec<TermId>> {
    let (mut s, vars, _) = build(sys, Solver::new(config));
    s.solve();
    let resolved: Vec<Var> = vars.iter().map(|&v| s.find(v)).collect();
    let ls = s.least_solution();
    resolved.iter().map(|&v| ls.get(v).to_vec()).collect()
}

// ---------------------------------------------------------------------------
// An independent naive reference solver.
// ---------------------------------------------------------------------------

/// Reference semantics: a brute-force fixpoint over source sets.
///
/// Terms are `(con, covariant arg var, contravariant arg var)` triples for
/// `f` and plain ids for nullary sources. No graphs, no forms, no cycle
/// tricks — just iterate until nothing changes.
#[derive(Debug, Default)]
struct Naive {
    /// Source sets per variable: nullary constructor index, or a structured
    /// `f` source `(a, b)` identified by its argument vars.
    sets: Vec<BTreeSet<NaiveSrc>>,
    var_edges: BTreeSet<(usize, usize)>,
    snks: BTreeSet<(usize, (usize, usize))>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum NaiveSrc {
    Nullary(usize),
    F(usize, usize),
}

impl Naive {
    fn solve(sys: &Sys) -> Vec<BTreeSet<NaiveSrc>> {
        let mut naive = Naive { sets: vec![BTreeSet::new(); sys.n], ..Default::default() };
        for &(a, b) in &sys.var_edges {
            naive.var_edges.insert((a, b));
        }
        for &(k, a) in &sys.src_edges {
            naive.sets[a].insert(NaiveSrc::Nullary(k));
        }
        for &(a, b, c) in &sys.term_srcs {
            naive.sets[c].insert(NaiveSrc::F(a, b));
        }
        for &(a, b, c) in &sys.term_snks {
            naive.snks.insert((c, (a, b)));
        }
        // Fixpoint: propagate along edges and decompose source/sink meets.
        loop {
            let mut changed = false;
            let edges: Vec<_> = naive.var_edges.iter().copied().collect();
            for (a, b) in edges {
                let add: Vec<_> =
                    naive.sets[a].difference(&naive.sets[b]).copied().collect();
                if !add.is_empty() {
                    changed = true;
                    naive.sets[b].extend(add);
                }
            }
            let snks: Vec<_> = naive.snks.iter().copied().collect();
            for (v, (p, q)) in snks {
                let metas: Vec<_> = naive.sets[v]
                    .iter()
                    .filter_map(|s| match s {
                        NaiveSrc::F(a, b) => Some((*a, *b)),
                        NaiveSrc::Nullary(_) => None, // constructor mismatch, recorded not solved
                    })
                    .collect();
                for (a, b) in metas {
                    // f(a, b̄) ⊆ f(p, q̄)  ⇒  a ⊆ p, q ⊆ b.
                    changed |= naive.var_edges.insert((a, p));
                    changed |= naive.var_edges.insert((q, b));
                }
            }
            if !changed {
                return naive.sets;
            }
        }
    }
}

/// Maps the engine's least solution into the naive domain for comparison.
///
/// Structured `f` sources are identified by the *positions* of their argument
/// variables, normalized through `classes` — under an oracle partition,
/// aliased creation positions intern to the same term, so comparison must be
/// modulo the partition.
fn to_naive(
    solver: &Solver,
    set: &[TermId],
    srcs: &[TermId],
    vars: &[Var],
    classes: &Partition,
) -> BTreeSet<NaiveSrc> {
    // First occurrence of a (possibly repeated) var handle is its class rep.
    let mut var_pos: BTreeMap<Var, usize> = BTreeMap::new();
    for (i, &v) in vars.iter().enumerate() {
        var_pos.entry(v).or_insert(i);
    }
    set.iter()
        .map(|&t| {
            if let Some(k) = srcs.iter().position(|&s| s == t) {
                NaiveSrc::Nullary(k)
            } else {
                let data = solver.term_data(t);
                let a = data.args()[0].as_var().expect("f arg is a var");
                let b = data.args()[1].as_var().expect("f arg is a var");
                NaiveSrc::F(
                    classes.rep_of(var_pos[&a] as u32) as usize,
                    classes.rep_of(var_pos[&b] as u32) as usize,
                )
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// A naive reference for the graph's hybrid adjacency storage.
// ---------------------------------------------------------------------------

/// One random operation against both the real graph and the reference.
#[derive(Debug, Clone, Copy)]
enum AdjOp {
    /// `insert_pred_var(b, a)` / `insert_succ_var(a, b)` / `insert_src(a, t)`
    /// / `insert_snk(a, t)`, selected by `kind % 4`.
    Insert { kind: u8, a: usize, b: usize },
    /// Collapse node `a` into node `b` (skipped when already aliased),
    /// re-asserting the collapsed node's edges like the solver does.
    Collapse { a: usize, b: usize },
    /// Eagerly compact node `a` — must never change anything observable.
    Compact { a: usize },
}

fn adj_ops() -> impl Strategy<Value = (usize, Vec<AdjOp>)> {
    (2usize..28).prop_flat_map(|n| {
        // Weighted op choice via a selector: 0..8 insert (kind = sel % 4),
        // 8 collapse, 9..11 compact. `b` ranges past `n` (it is reduced mod
        // `n` for variable entries, used as-is for term ids) so adjacency
        // lists regularly cross the promotion boundary in either id space.
        let op = (0u8..11, 0..n, 0..4 * n).prop_map(move |(sel, a, b)| match sel {
            0..=7 => AdjOp::Insert { kind: sel % 4, a, b },
            8 => AdjOp::Collapse { a, b: b % n },
            _ => AdjOp::Compact { a },
        });
        (Just(n), prop::collection::vec(op, 0..400))
    })
}

/// Pure-`HashSet` reference model of the graph's adjacency: membership keyed
/// by raw inserted ids, exactly the dedup domain the hybrid storage promises
/// to preserve (see the `graph` module docs).
#[derive(Debug, Clone, Default)]
struct RefNode {
    pred_vars: HashSet<Var>,
    succ_vars: HashSet<Var>,
    pred_srcs: HashSet<TermId>,
    succ_snks: HashSet<TermId>,
}

/// Census over the reference model, mirroring `Graph::census` semantics:
/// canonicalize entries, drop self edges, count distinct canonical edges.
fn ref_census(nodes: &[RefNode], fwd: &Forwarding) -> GraphCensus {
    let mut census = GraphCensus::default();
    let mut var_seen: HashSet<(Var, Var)> = HashSet::new();
    let mut src_seen: HashSet<(Var, TermId)> = HashSet::new();
    let mut snk_seen: HashSet<(Var, TermId)> = HashSet::new();
    for (i, node) in nodes.iter().enumerate() {
        let v = Var::new(i);
        if fwd.find_const(v) != v {
            continue;
        }
        census.live_vars += 1;
        for &u in &node.pred_vars {
            let u = fwd.find_const(u);
            if u != v && var_seen.insert((u, v)) {
                census.var_var_edges += 1;
            }
        }
        for &u in &node.succ_vars {
            let u = fwd.find_const(u);
            if u != v && var_seen.insert((v, u)) {
                census.var_var_edges += 1;
            }
        }
        for &s in &node.pred_srcs {
            if src_seen.insert((v, s)) {
                census.src_edges += 1;
            }
        }
        for &s in &node.succ_snks {
            if snk_seen.insert((v, s)) {
                census.snk_edges += 1;
            }
        }
    }
    census
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hybrid small-degree adjacency storage is observationally identical
    /// to a plain hash-set implementation: same `Insert` classification on
    /// every attempt and same census, across random edge streams that cross
    /// the promotion boundary and interleave collapses and compaction.
    #[test]
    fn hybrid_adjacency_matches_hashset_reference((n, ops) in adj_ops()) {
        let mut graph = Graph::new();
        let mut fwd = Forwarding::new();
        let mut reference: Vec<RefNode> = vec![RefNode::default(); n];
        for _ in 0..n {
            graph.push_node();
            fwd.push();
        }

        for (step, &op) in ops.iter().enumerate() {
            match op {
                AdjOp::Insert { kind, a, b } => {
                    // The solver always works on canonical nodes; raw entry
                    // ids are whatever the constraint mentioned.
                    let v = fwd.find(Var::new(a));
                    let got;
                    let want;
                    match kind {
                        0 => {
                            let x = fwd.find(Var::new(b % n));
                            got = graph.insert_pred_var(v, x);
                            want = reference[v.index()].pred_vars.insert(x);
                        }
                        1 => {
                            let y = fwd.find(Var::new(b % n));
                            got = graph.insert_succ_var(v, y);
                            want = reference[v.index()].succ_vars.insert(y);
                        }
                        2 => {
                            let t = TermId::new(b);
                            got = graph.insert_src(v, t);
                            want = reference[v.index()].pred_srcs.insert(t);
                        }
                        _ => {
                            let t = TermId::new(b);
                            got = graph.insert_snk(v, t);
                            want = reference[v.index()].succ_snks.insert(t);
                        }
                    }
                    let want = if want { Insert::New } else { Insert::Redundant };
                    prop_assert_eq!(got, want, "classification diverged at step {}", step);
                }
                AdjOp::Collapse { a, b } => {
                    let src = fwd.find(Var::new(a));
                    let witness = fwd.find(Var::new(b));
                    if src == witness {
                        continue;
                    }
                    fwd.union_into(src, witness);
                    // Re-assert the collapsed node's edges against the
                    // witness through canonical ids, as the solver's
                    // collapse does via re-queued constraints.
                    let taken = graph.take_edges(src);
                    reference[src.index()] = RefNode::default();
                    for &x in &taken.pred_vars {
                        let x = fwd.find(x);
                        if x != witness {
                            let got = graph.insert_pred_var(witness, x);
                            let want = reference[witness.index()].pred_vars.insert(x);
                            prop_assert_eq!(got == Insert::New, want);
                        }
                    }
                    for &y in &taken.succ_vars {
                        let y = fwd.find(y);
                        if y != witness {
                            let got = graph.insert_succ_var(witness, y);
                            let want = reference[witness.index()].succ_vars.insert(y);
                            prop_assert_eq!(got == Insert::New, want);
                        }
                    }
                    for &t in &taken.pred_srcs {
                        let got = graph.insert_src(witness, t);
                        let want = reference[witness.index()].pred_srcs.insert(t);
                        prop_assert_eq!(got == Insert::New, want);
                    }
                    for &t in &taken.succ_snks {
                        let got = graph.insert_snk(witness, t);
                        let want = reference[witness.index()].succ_snks.insert(t);
                        prop_assert_eq!(got == Insert::New, want);
                    }
                }
                AdjOp::Compact { a } => {
                    graph.compact_node(fwd.find(Var::new(a)), &fwd);
                }
            }
        }
        prop_assert_eq!(graph.census(&fwd), ref_census(&reference, &fwd));
    }

    /// All six experiment configurations produce identical least solutions.
    #[test]
    fn all_configurations_agree(sys in sys_strategy()) {
        let reference = solutions(&sys, SolverConfig::sf_plain());
        for config in [
            SolverConfig::if_plain(),
            SolverConfig::sf_online(),
            SolverConfig::if_online(),
            SolverConfig::if_online().with_order(OrderPolicy::Creation),
            SolverConfig::if_online().with_order(OrderPolicy::ReverseCreation),
            SolverConfig::if_online().with_order(OrderPolicy::Random { seed: 123 }),
        ] {
            prop_assert_eq!(&solutions(&sys, config), &reference, "{:?}", config);
        }
    }

    /// Oracle pre-aliasing (from an IF-Online run's partition) preserves the
    /// least solution in both forms and leaves no cycles to collapse.
    #[test]
    fn oracle_agrees_and_is_acyclic(sys in sys_strategy()) {
        let (mut first, vars, srcs) = build(&sys, Solver::new(SolverConfig::if_online()));
        first.solve();
        let partition = first.scc_partition();
        let reference: Vec<BTreeSet<NaiveSrc>> = {
            let resolved: Vec<Var> = vars.iter().map(|&v| first.find(v)).collect();
            let ls = first.least_solution();
            resolved
                .iter()
                .map(|&v| to_naive(&first, ls.get(v), &srcs, &vars, &partition))
                .collect()
        };

        for base in [SolverConfig::sf_plain(), SolverConfig::if_plain()] {
            let (mut s, vars, srcs) =
                build(&sys, Solver::with_oracle(base, partition.clone()));
            s.solve();
            prop_assert_eq!(s.stats().cycles_collapsed, 0);
            let resolved: Vec<Var> = vars.iter().map(|&v| s.find(v)).collect();
            let ls = s.least_solution();
            let got: Vec<BTreeSet<NaiveSrc>> = resolved
                .iter()
                .map(|&v| to_naive(&s, ls.get(v), &srcs, &vars, &partition))
                .collect();
            prop_assert_eq!(&got, &reference, "{:?}", base);
            // The oracle run's final graph must be acyclic on variables.
            prop_assert_eq!(s.var_var_scc_stats().vars_in_cycles, 0);
        }
    }

    /// The engine agrees with an independent naive fixpoint solver.
    #[test]
    fn engine_matches_naive_reference(sys in sys_strategy()) {
        let naive = Naive::solve(&sys);
        let (mut s, vars, srcs) = build(&sys, Solver::new(SolverConfig::if_online()));
        s.solve();
        let identity = Partition::identity(sys.n);
        let resolved: Vec<Var> = vars.iter().map(|&v| s.find(v)).collect();
        let ls = s.least_solution();
        for (i, &v) in resolved.iter().enumerate() {
            let got = to_naive(&s, ls.get(v), &srcs, &vars, &identity);
            prop_assert_eq!(&got, &naive[i], "variable {}", i);
        }
    }

    /// Theorem (Section 2.5): under inductive form, online elimination
    /// removes at least one variable from every non-trivial SCC.
    #[test]
    fn if_online_eliminates_part_of_every_scc(sys in sys_strategy(), seed in 0u64..1000) {
        // Ground truth SCCs from a logged plain run.
        let (mut plain, vars, _) = build(
            &sys,
            Solver::new(SolverConfig::if_plain().with_log(true)),
        );
        plain.solve();
        let partition = plain.scc_partition();

        let config = SolverConfig::if_online().with_order(OrderPolicy::Random { seed });
        let (mut online, online_vars, _) = build(&sys, Solver::new(config));
        online.solve();

        // Group variables by ground-truth class; within each non-trivial
        // class, at least two members must share a representative.
        let mut classes: BTreeMap<u32, Vec<Var>> = BTreeMap::new();
        for (i, &v) in online_vars.iter().enumerate() {
            classes.entry(partition.rep_of(i as u32)).or_default().push(v);
        }
        let _ = vars;
        for (class, members) in classes {
            if members.len() < 2 {
                continue;
            }
            let mut reps = BTreeSet::new();
            for &m in &members {
                reps.insert(online.find(m));
            }
            prop_assert!(
                reps.len() < members.len(),
                "class {} of size {} had no member eliminated (seed {})",
                class,
                members.len(),
                seed
            );
        }
    }

    /// Work accounting: work = new edges + redundant attempts, and the
    /// census never reports more edges than were inserted.
    #[test]
    fn work_accounting_is_consistent(sys in sys_strategy()) {
        for config in [SolverConfig::sf_plain(), SolverConfig::if_online()] {
            let (mut s, _, _) = build(&sys, Solver::new(config));
            s.solve();
            let stats = *s.stats();
            prop_assert_eq!(stats.new_edges(), stats.work - stats.redundant);
            let census = s.census();
            prop_assert!((census.total_edges() as u64) <= stats.new_edges());
        }
    }

    /// Least-solution storage: every canonical span is sorted and distinct
    /// and equals the union equation (1) recomputes from the frozen CSR,
    /// however many spans share storage; the arena stores no more than the
    /// logical entries; and a revalidated solution after growth and after
    /// removal is byte-equal to a cold pass.
    #[test]
    fn least_solution_spans_are_exact_and_revalidate_byte_equal(
        sys in sys_strategy(),
        held in 0usize..12,
        seed in 0u64..1000,
    ) {
        let order = OrderPolicy::Random { seed };
        for config in [
            SolverConfig::if_online().with_order(order),
            SolverConfig::if_plain().with_order(order),
            SolverConfig::sf_online(),
        ] {
            let mut small = sys.clone();
            let grown = small.var_edges.split_off(small.var_edges.len().saturating_sub(held));
            let (mut s, vars, _) = build(&small, Solver::new(config));
            s.solve();
            let ls = s.least_solution();
            let csr = s.least_csr();
            for (i, &r) in ls.raw_parts().0.iter().enumerate() {
                let v = Var::new(i);
                if r != v {
                    continue;
                }
                let set = ls.get(v);
                prop_assert!(set.windows(2).all(|w| w[0] < w[1]), "{:?}: unsorted {}", config, v);
                let mut union = csr.srcs(v).to_vec();
                for &u in csr.preds(v) {
                    union.extend_from_slice(ls.get(u));
                }
                union.sort_unstable();
                union.dedup();
                prop_assert_eq!(set, union.as_slice(), "{:?}: LS({}) != equation (1)", config, v);
            }
            prop_assert!(ls.stored_entries() <= ls.total_entries());

            let mut rv = Revalidator::new();
            rv.run(&s.least_parts());
            prop_assert_eq!(rv.solution(), Some(&ls));
            // Growth through the live solver.
            for &(a, b) in &grown {
                s.add(vars[a], vars[b]);
            }
            s.solve();
            rv.run(&s.least_parts());
            prop_assert_eq!(rv.solution(), Some(&s.least_solution()), "{:?}: grown", config);
            // Removal: a fresh solver without the grown edges, against the
            // grown baseline.
            let (mut fresh, _, _) = build(&small, Solver::new(config));
            fresh.solve();
            rv.run(&fresh.least_parts());
            prop_assert_eq!(rv.solution(), Some(&fresh.least_solution()), "{:?}: shrunk", config);
        }
    }
}
