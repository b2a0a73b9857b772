//! The least-solution pass's contract: a [`Revalidator`] run against the
//! previous run's baseline is byte-identical to the cold
//! `Solver::least_solution` pass, however the system changed in between.
//!
//! Three layers of evidence:
//!
//! - tests over randomized synthetic constraint systems (chains, cycles,
//!   term structure, sources, sinks) in every form and cycle-elimination
//!   mode, including `CycleElim::Periodic`. Each system is fed to the
//!   solver in batches of `K` constraints with a solve after every batch;
//!   after each one, a revalidator carrying its baseline across batches
//!   must be byte-identical to the cold pass. A second test checks that the
//!   batched runs agree *semantically* with one-shot solving (the collapse
//!   schedule legitimately differs, so representatives may differ, but
//!   resolved sets and inconsistency sets must not);
//! - a property test over random grow/remove histories, where removals
//!   rebuild a fresh solver the way `bane-serve`'s replay does;
//! - golden runs on the paper-suite `povray-2.2` stand-in program through
//!   the real Andersen front end, checking the CSR snapshot the pass reads
//!   and the pass's output.

use bane_core::least::Revalidator;
use bane_core::prelude::*;
use bane_points_to::andersen;
use bane_synth::suite::{suite_program, PAPER_SUITE};
use bane_util::SplitMix64;
use proptest::prelude::*;
/// Constraints per solve; `usize::MAX` emits the whole system at once.
const BATCH_SIZES: [usize; 3] = [8, 64, usize::MAX];

/// A randomized constraint system, emitted into a fresh solver per
/// configuration.
struct SynthSystem {
    n_vars: usize,
    n_cons: usize,
    edges: Vec<(usize, usize)>,
    srcs: Vec<(usize, usize)>,
    snks: Vec<(usize, usize)>,
    pairs: Vec<(usize, usize, usize)>,
}

impl SynthSystem {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let n_vars = 80;
        let n_cons = 6;
        let mut edges = Vec::new();
        // Forward chains with a sprinkle of back edges: plenty of cycles.
        for i in 0..n_vars {
            for j in (i + 1)..n_vars {
                if rng.next_bool(0.04) {
                    edges.push((i, j));
                }
            }
        }
        for _ in 0..12 {
            let a = rng.next_below(n_vars as u64) as usize;
            let b = rng.next_below(n_vars as u64) as usize;
            edges.push((a, b));
        }
        let srcs =
            (0..10).map(|k| (k % n_cons, rng.next_below(n_vars as u64) as usize)).collect();
        let snks =
            (0..6).map(|k| (k % n_cons, rng.next_below(n_vars as u64) as usize)).collect();
        // Constructed terms meeting through a middle variable, exercising
        // variance decomposition (and the occasional constructor mismatch).
        let pairs = (0..8)
            .map(|_| {
                (
                    rng.next_below(n_vars as u64) as usize,
                    rng.next_below(n_vars as u64) as usize,
                    rng.next_below(n_vars as u64) as usize,
                )
            })
            .collect();
        SynthSystem { n_vars, n_cons, edges, srcs, snks, pairs }
    }

    /// Registers this system's variables, constructors and terms in `s`
    /// and returns its constraints in emission order.
    fn emit(&self, s: &mut Solver) -> Vec<(SetExpr, SetExpr)> {
        let vs: Vec<Var> = (0..self.n_vars).map(|_| s.fresh_var()).collect();
        let cons: Vec<_> =
            (0..self.n_cons).map(|k| s.register_nullary(format!("c{k}"))).collect();
        let pair_con =
            s.register_con("pair", vec![Variance::Covariant, Variance::Contravariant]);
        let mut out = Vec::new();
        for &(a, b) in &self.edges {
            out.push((vs[a].into(), vs[b].into()));
        }
        for &(k, at) in &self.srcs {
            let t = s.term(cons[k], vec![]);
            out.push((t.into(), vs[at].into()));
        }
        for &(k, at) in &self.snks {
            let t = s.term(cons[k], vec![]);
            out.push((vs[at].into(), t.into()));
        }
        for &(a, b, mid) in &self.pairs {
            let src = s.term(pair_con, vec![vs[a].into(), vs[b].into()]);
            let snk = s.term(pair_con, vec![vs[b].into(), vs[a].into()]);
            out.push((src.into(), vs[mid].into()));
            out.push((vs[mid].into(), snk.into()));
        }
        out
    }

    /// Solves this system under `config`, adding `batch` constraints at a
    /// time and calling `after_batch` after the solve that follows each
    /// batch. Returns the fully solved solver.
    fn solve_batched(
        &self,
        config: SolverConfig,
        batch: usize,
        mut after_batch: impl FnMut(&mut Solver),
    ) -> Solver {
        let mut s = Solver::new(config);
        let constraints = self.emit(&mut s);
        for chunk in constraints.chunks(batch) {
            for &(lhs, rhs) in chunk {
                s.add(lhs, rhs);
            }
            s.solve();
            after_batch(&mut s);
        }
        s
    }
}

fn property_configs() -> [SolverConfig; 6] {
    [
        SolverConfig::if_online(),
        SolverConfig::sf_online(),
        SolverConfig::if_plain(),
        SolverConfig::sf_plain(),
        SolverConfig {
            cycle_elim: CycleElim::Periodic { interval: 16 },
            ..SolverConfig::if_plain()
        },
        SolverConfig {
            cycle_elim: CycleElim::Periodic { interval: 64 },
            ..SolverConfig::if_online()
        },
    ]
}

#[test]
fn synthetic_systems_revalidate_byte_identically_at_every_batch_size() {
    for config in property_configs() {
        for seed in 0..5u64 {
            let sys = SynthSystem::new(seed);
            for &batch in &BATCH_SIZES {
                // One revalidator per batch size, carrying its baseline
                // from one batch to the next.
                let mut rv = Revalidator::new();
                let mut solves = 0;
                sys.solve_batched(config, batch, |solver| {
                    solves += 1;
                    let cold = solver.least_solution();
                    rv.run(&solver.least_parts());
                    assert_eq!(
                        rv.solution(),
                        Some(&cold),
                        "{config:?} seed {seed} K={batch} solve {solves}: \
                         revalidated least solution not byte-identical"
                    );
                    assert_eq!(rv.csr().raw_parts(), solver.least_csr().raw_parts());
                });
                assert!(solves > 0, "every batch size solves at least once");
            }
        }
    }
}

#[test]
fn synthetic_systems_agree_semantically_with_sequential_solver() {
    let periodic = SolverConfig {
        cycle_elim: CycleElim::Periodic { interval: 16 },
        ..SolverConfig::if_plain()
    };
    for config in [SolverConfig::if_online(), SolverConfig::sf_online(), periodic] {
        for seed in 0..5u64 {
            let sys = SynthSystem::new(seed);
            let mut seq = sys.solve_batched(config, usize::MAX, |_| {});
            let n = seq.graph_len();
            let seq_ls = seq.least_solution();
            // Compare the *sets* of inconsistencies: how many times the same
            // mismatch is re-derived is a schedule artifact.
            let mut seq_errors = seq.inconsistencies().to_vec();
            seq_errors.sort_by_key(error_key);
            seq_errors.dedup();

            let mut rv = Revalidator::new();
            let batched = sys.solve_batched(config, 8, |solver| {
                rv.run(&solver.least_parts());
            });
            assert_eq!(batched.graph_len(), n, "{config:?} seed {seed}: variable count");
            let mut batched_errors = batched.inconsistencies().to_vec();
            batched_errors.sort_by_key(error_key);
            batched_errors.dedup();
            assert_eq!(batched_errors, seq_errors, "{config:?} seed {seed}: inconsistency sets");
            let batched_ls = rv.solution().expect("at least one batch");
            for i in 0..n {
                let v = Var::new(i);
                assert_eq!(
                    batched_ls.get(v),
                    seq_ls.get(v),
                    "{config:?} seed {seed}: LS(v{i}) diverged from one-shot sequential"
                );
            }
        }
    }
}

/// A stable sort key for inconsistency set comparison (schedules may
/// discover the same errors in different orders).
fn error_key(e: &Inconsistency) -> (u8, u32, u32) {
    match *e {
        Inconsistency::ConstructorMismatch { lhs, rhs } => (0, lhs.raw(), rhs.raw()),
        Inconsistency::NonEmptyInZero { lhs } => (1, lhs.map_or(u32::MAX, |t| t.raw()), 0),
        Inconsistency::OneInTerm { rhs } => (2, rhs.raw(), 0),
    }
}

/// The paper-suite stand-in used by the goldens: `povray-2.2` scaled down to
/// test size, through the real Andersen C front end.
fn povray_solver() -> Solver {
    let entry = PAPER_SUITE
        .iter()
        .find(|e| e.name == "povray-2.2")
        .expect("povray-2.2 in the paper suite");
    let program = suite_program(entry, 0.04);
    let mut solver = Solver::new(SolverConfig::if_online());
    let (_locs, gen) = andersen::generate(&program, &mut solver);
    assert!(gen.constraints > 500, "stand-in should be non-trivial");
    solver
}

/// The CSR snapshot the least-solution kernel traverses must agree
/// entry-for-entry with a direct canonicalizing walk of the adjacency
/// lists on the paper-suite stand-in (a real front-end workload with
/// collapses, stale entries, and promoted adjacency lists).
#[test]
fn csr_snapshot_matches_adjacency_on_povray_standin() {
    use bane_core::least::CsrSnapshot;
    let mut solver = povray_solver();
    solver.solve();
    let parts = solver.least_parts();
    let (mut rep, mut layout) = (Vec::new(), Vec::new());
    parts.rep_map_into(&mut rep);
    parts.layout_order_into(&rep, &mut layout);
    let mut csr = CsrSnapshot::new();
    csr.build(&parts, &layout);
    assert!(csr.src_entries() > 0, "stand-in has sources");
    let mut pred_total = 0;
    for &v in &layout {
        let node = parts.graph.node(v);
        let mut srcs: Vec<TermId> = node.pred_srcs().to_vec();
        srcs.sort_unstable();
        srcs.dedup();
        assert_eq!(csr.srcs(v), srcs.as_slice(), "src row of {v:?}");
        let mut preds: Vec<Var> = node
            .pred_vars()
            .iter()
            .map(|&raw| parts.fwd.find_const(raw))
            .filter(|&u| u != v)
            .collect();
        preds.sort_unstable();
        preds.dedup();
        assert_eq!(csr.preds(v), preds.as_slice(), "pred row of {v:?}");
        pred_total += preds.len();
    }
    assert_eq!(csr.pred_entries(), pred_total);
    assert!(pred_total > 0, "stand-in has canonical pred edges");
}

#[test]
fn revalidated_least_solution_is_byte_identical_on_povray_standin() {
    let mut solver = povray_solver();
    solver.solve();
    let cold = solver.least_solution();
    let mut rv = Revalidator::new();
    let first = rv.run(&solver.least_parts());
    assert_eq!(rv.solution(), Some(&cold), "povray stand-in: cold run");
    assert_eq!(first.reused_vars, 0);
    let again = rv.run(&solver.least_parts());
    assert_eq!(rv.solution(), Some(&cold), "povray stand-in: baseline run");
    assert_eq!((again.dirty_vars, again.reused_vars), (0, first.dirty_vars));
    assert_eq!(again.total_levels, first.total_levels);
}

/// One step of a random edit history over a fixed variable set: grow the
/// live system by some constraints, or remove some and re-solve from
/// scratch.
#[derive(Clone, Debug)]
enum Edit {
    Grow(Vec<(usize, usize)>),
    Remove(Vec<usize>),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over random grow/remove histories, in both forms, the pass with a
    /// baseline is byte-identical to the cold pass after every step, and
    /// so is the CSR it froze.
    #[test]
    fn baseline_pass_is_byte_identical_to_cold_pass(seed in 0u64..1_000_000, steps in 2usize..10) {
        let mut rng = SplitMix64::new(seed);
        let n = 40usize;
        let edits: Vec<Edit> = (0..steps)
            .map(|_| {
                if rng.next_bool(0.4) {
                    Edit::Remove((0..3).map(|_| rng.next_below(1 << 16) as usize).collect())
                } else {
                    let k = 1 + rng.next_below(12) as usize;
                    Edit::Grow(
                        (0..k)
                            .map(|_| (rng.next_below(n as u64 + 4) as usize, rng.next_below(n as u64) as usize))
                            .collect(),
                    )
                }
            })
            .collect();
        for config in [SolverConfig::if_online(), SolverConfig::sf_online(), SolverConfig::if_plain()] {
            // Constraint `(a, b)`: `a ⊆ b` over variables, or source
            // `c(a - n)` into `b` when `a >= n`.
            let build = |live: &[(usize, usize)]| {
                let mut s = Solver::new(config);
                let vs: Vec<Var> = (0..n).map(|_| s.fresh_var()).collect();
                let ts: Vec<TermId> = (0..4)
                    .map(|k| {
                        let c = s.register_nullary(format!("c{k}"));
                        s.term(c, vec![])
                    })
                    .collect();
                let add = move |s: &mut Solver, (a, b): (usize, usize)| {
                    if a < n {
                        s.add(vs[a], vs[b]);
                    } else {
                        s.add(ts[a - n], vs[b]);
                    }
                };
                for &c in live {
                    add(&mut s, c);
                }
                s.solve();
                (s, add)
            };
            let mut live: Vec<(usize, usize)> = Vec::new();
            let (mut solver, mut add) = build(&live);
            let mut rv = Revalidator::new();
            rv.run(&solver.least_parts());
            for (step, edit) in edits.iter().enumerate() {
                match edit {
                    Edit::Grow(cs) => {
                        for &c in cs {
                            live.push(c);
                            add(&mut solver, c);
                        }
                        solver.solve();
                    }
                    Edit::Remove(picks) => {
                        for &p in picks {
                            if !live.is_empty() {
                                live.remove(p % live.len());
                            }
                        }
                        (solver, add) = build(&live);
                    }
                }
                let outcome = rv.run(&solver.least_parts());
                let cold = solver.least_solution();
                prop_assert_eq!(rv.solution(), Some(&cold), "{:?} step {}", config, step);
                prop_assert_eq!(rv.csr().raw_parts(), solver.least_csr().raw_parts());
                prop_assert!(outcome.dirty_levels <= outcome.total_levels);
            }
        }
    }
}
