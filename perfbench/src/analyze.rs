//! `analyze`: the paper's whole-program use. Each pass takes every program
//! of the synthesized Table 1 suite from C text to answered reads:
//! `cfront::parse` → `andersen::generate` into an IF-Online solver →
//! `solve` → `least_solution` → `encode_solver` → `QueryIndex` cold load →
//! a seeded batch of points-to/alias reads. It never enters `bane-serve`.
//!
//! Reference: the same programs, generated from the synthesized AST (not
//! the parsed text) into an SF-Online solver (standard form instead of the
//! timed path's inductive form); every recorded read answer is compared by
//! fingerprint after the timed loop.

use std::time::Instant;

use bane_cfront::program_to_c;
use bane_core::prelude::*;
use bane_points_to::andersen;
use bane_snap::{encode_solver, QueryIndex};
use bane_synth::{suite_program, PAPER_SUITE};
use bane_util::rng::SplitMix64;

use crate::calib::Calibration;
use crate::stats::{self, bool_fp, derive, median, query, set_fp, Answer, Samples};
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// Reads per timed batch; reads are timed in batches because one
/// `QueryIndex` read is shorter than the timer's own overhead.
const READ_BATCH: usize = 32;
/// Read batches per program and pass.
const READ_BATCHES: usize = 2;

/// One recorded read batch: its pass, program, and answer fingerprints.
struct Reads {
    pass: u64,
    program: usize,
    var_count: usize,
    fps: Vec<u64>,
}

pub fn run(args: &Args) -> Outcome {
    let scale = if args.smoke { 0.02 } else { 0.2 };
    let entries = if args.smoke {
        &PAPER_SUITE[..6]
    } else {
        PAPER_SUITE
    };
    let mut out = Outcome::default();
    let mut tr = Tracer::new(false);

    // Set-up: synthesize the suite and render it to C. An untraced run
    // repeats it after every measured pass, so that its samples meet the
    // same machine drift as the passes; `setup_s` is their median.
    let build = || {
        let programs: Vec<_> = entries.iter().map(|e| suite_program(e, scale)).collect();
        let texts: Vec<String> = programs.iter().map(program_to_c).collect();
        (programs, texts)
    };
    let mut e2e = Samples::default();
    let mut cal = Calibration::new();
    let t = Instant::now();
    let (programs, texts) = build();
    e2e.setup_s.push((cal.now(), t.elapsed().as_secs_f64()));
    cal.run();
    let c_bytes: usize = texts.iter().map(String::len).sum();
    let mut rss_warm = None;

    // Per-pass wall seconds split by whether the pass was traced.
    let (mut untraced_pass, mut traced_pass) = (Vec::new(), Vec::new());
    let mut recorded: Vec<Reads> = Vec::new();
    let mut broken_programs = 0u64;
    let mut report: Option<bane_obs::RunReport> = None;
    let mut layer = LayerTotals::default();

    let min_passes = if args.smoke {
        1
    } else {
        stats::MIN_TAIL_SAMPLES.div_ceil(entries.len())
    };
    let warmup_passes = 1;
    let start = Instant::now();
    let mut pass = 0u64;
    let mut request = 0u64;
    loop {
        let measured = pass as usize >= warmup_passes;
        if measured && rss_warm.is_none() {
            // Memory the kernel freed may stay resident: it runs right
            // before the sample, so the sample does not depend on whether
            // it happened to run just before.
            cal.run();
            rss_warm = Some(stats::rss_mb());
        }
        let timed_s = start.elapsed().as_secs_f64();
        if measured && timed_s >= args.seconds && pass as usize >= warmup_passes + min_passes {
            break;
        }
        // A traced run alternates traced and untraced passes after the
        // warm-up, so the machine's drift weighs on both sides alike.
        tr.set_enabled(args.trace && measured && pass.is_multiple_of(2));
        let traced = tr.enabled();
        // The solvers' own recorders run on the first traced pass only: they
        // time every edge insertion, which would swamp the spans' numbers.
        let obs_pass = traced && report.is_none();
        let pass_start = Instant::now();
        let mut pass_bytes = 0usize;
        for (p, text) in texts.iter().enumerate() {
            request += 1;
            tr.request(request);
            let root = tr.begin("bench", "program");
            let t0 = Instant::now();
            let s = tr.begin("cfront", "parse");
            let parsed = bane_cfront::parse(text);
            tr.end(s);
            let Ok(program) = parsed else {
                broken_programs += 1;
                tr.end(root);
                continue;
            };
            let s = tr.begin("pointsto", "generate");
            let mut solver = Solver::new(SolverConfig::if_online());
            if obs_pass {
                solver.enable_obs();
            }
            let (_, gen) = andersen::generate(&program, &mut solver);
            tr.end(s);
            let s = tr.begin("core", "solve");
            solver.solve();
            tr.end(s);
            let s = tr.begin("core", "least");
            let ls = solver.least_solution();
            tr.end(s);
            drop(ls);
            let s = tr.begin("snap", "encode");
            let encoded = encode_solver(&mut solver);
            tr.end(s);
            let t_commit = t0.elapsed();
            let Ok(bytes) = encoded else {
                broken_programs += 1;
                tr.end(root);
                continue;
            };
            let s = tr.begin("snap", "load");
            let loaded = QueryIndex::from_bytes(&bytes);
            tr.end(s);
            let t_fresh = t0.elapsed();
            let Ok(index) = loaded else {
                broken_programs += 1;
                tr.end(root);
                continue;
            };
            pass_bytes += bytes.len();

            let n = index.var_count();
            let mut rng = SplitMix64::new(derive(args.seed, pass, p as u64));
            let queries: Vec<(Var, Option<Var>)> = (0..READ_BATCH * READ_BATCHES)
                .map(|_| query(&mut rng, n))
                .collect();
            let mut answers: Vec<Answer<'_>> = Vec::with_capacity(queries.len());
            for batch in queries.chunks(READ_BATCH) {
                let s = tr.begin("snap", "read");
                let t = Instant::now();
                for &(a, b) in batch {
                    answers.push(match b {
                        None => Answer::Set(index.points_to(a)),
                        Some(b) => Answer::Alias(index.alias(a, b)),
                    });
                }
                let ns = t.elapsed().as_nanos() as f64;
                tr.end(s);
                if measured && !traced {
                    e2e.read_us.push((cal.now(), ns / batch.len() as f64 / 1e3));
                }
            }
            tr.end(root);
            let fps = answers.iter().map(Answer::fp).collect();
            recorded.push(Reads {
                pass,
                program: p,
                var_count: n,
                fps,
            });

            if measured && !traced {
                e2e.commit_ms
                    .push((cal.now(), t_commit.as_secs_f64() * 1e3));
                e2e.fresh_ms.push((cal.now(), t_fresh.as_secs_f64() * 1e3));
            }
            if traced {
                layer.add(&program, &gen, solver.stats(), bytes.len(), p == 0);
                if let Some(mut r) = solver.run_report("analyze") {
                    r.events.clear();
                    match &mut report {
                        Some(all) => all.merge(&r),
                        None => report = Some(r),
                    }
                }
            }
        }
        let wall = pass_start.elapsed().as_secs_f64();
        if measured {
            // The recorders' cost on the first traced pass is not the spans'
            // overhead, so that pass counts on neither side.
            if traced && !obs_pass {
                traced_pass.push(wall);
            } else if !traced {
                untraced_pass.push(wall);
                e2e.pass_s.push((cal.now(), wall));
                e2e.snapshot_mb.push(pass_bytes as f64 / 1e6);
            }
            if !args.trace {
                let t = Instant::now();
                let again = build();
                e2e.setup_s.push((cal.now(), t.elapsed().as_secs_f64()));
                drop(again);
            }
        }
        cal.run_if_due();
        pass += 1;
    }
    let passes = pass;

    // Reference check, outside every reported time.
    if args.corrupt {
        if let Some(r) = recorded.first_mut() {
            r.fps[0] ^= 1;
        }
    }
    let mut wrong = 0u64;
    for (p, program) in programs.iter().enumerate() {
        let mut reference = Solver::new(SolverConfig::sf_online());
        andersen::generate(program, &mut reference);
        reference.solve();
        let ls = reference.least_solution();
        let n = reference.graph_len();
        for r in recorded.iter().filter(|r| r.program == p) {
            if r.var_count != n {
                wrong += r.fps.len() as u64;
                continue;
            }
            let mut rng = SplitMix64::new(derive(args.seed, r.pass, p as u64));
            for &fp in &r.fps {
                let expect = match query(&mut rng, n) {
                    (a, None) => set_fp(ls.get(reference.find(a))),
                    (a, Some(b)) => {
                        let sa = ls.get(reference.find(a));
                        let sb = ls.get(reference.find(b));
                        bool_fp(stats::intersects(sa, sb))
                    }
                };
                wrong += (fp != expect) as u64;
            }
        }
    }
    let reads: u64 = recorded.iter().map(|r| r.fps.len() as u64).sum();
    out.attempted = passes * entries.len() as u64 + reads;
    out.failed = broken_programs + wrong;
    out.notes.push(format!(
        "analyze: {} programs at scale {scale} ({:.2} MB of C), {passes} passes ({warmup_passes} warm-up), {} reads checked against SF-Online",
        entries.len(),
        c_bytes as f64 / 1e6,
        reads
    ));

    if args.trace {
        let requests = tr.requests().max(1) as f64;
        layer.emit(&mut out, &tr, requests);
        out.put(
            "trace.overhead_pct",
            (median(&traced_pass) / median(&untraced_pass) - 1.0) * 100.0,
            "%",
        );
        tr.dump(&args.work_dir, "analyze", report.iter());
    } else {
        e2e.rss_mb = rss_warm.unwrap_or(0.0);
        e2e.emit(&mut out, &cal);
    }
    out
}

/// Per-pass counts gathered over the traced passes.
#[derive(Default)]
struct LayerTotals {
    passes: u64,
    ast_nodes: u64,
    constraints: u64,
    work: u64,
    redundant: u64,
    vars_eliminated: u64,
    search_visits: u64,
    snap_bytes: u64,
}

impl LayerTotals {
    fn add(
        &mut self,
        program: &bane_cfront::Program,
        gen: &andersen::GenStats,
        s: &Stats,
        bytes: usize,
        first: bool,
    ) {
        self.passes += first as u64;
        self.ast_nodes += program.ast_nodes() as u64;
        self.constraints += gen.constraints;
        self.work += s.work;
        self.redundant += s.redundant;
        self.vars_eliminated += s.vars_eliminated;
        self.search_visits += s.search.nodes_visited;
        self.snap_bytes += bytes as u64;
    }

    fn emit(&self, out: &mut Outcome, tr: &Tracer, requests: f64) {
        let passes = self.passes.max(1) as f64;
        let ms = |m, n| tr.mean_ns(m, n) / 1e6;
        out.put("cfront.parse_ms", ms("cfront", "parse"), "ms");
        out.put("cfront.ast_nodes", self.ast_nodes as f64 / passes, "count");
        out.put("pointsto.gen_ms", ms("pointsto", "generate"), "ms");
        out.put(
            "pointsto.constraints",
            self.constraints as f64 / passes,
            "count",
        );
        out.put("core.solve_ms", ms("core", "solve"), "ms");
        out.put("core.least_ms", ms("core", "least"), "ms");
        out.put("core.work", self.work as f64 / passes, "count");
        out.put(
            "core.redundant_ratio",
            self.redundant as f64 / self.work.max(1) as f64,
            "ratio",
        );
        out.put(
            "core.vars_eliminated",
            self.vars_eliminated as f64 / passes,
            "count",
        );
        out.put(
            "core.search.visits",
            self.search_visits as f64 / passes,
            "count",
        );
        out.put("snap.encode_ms", ms("snap", "encode"), "ms");
        out.put("snap.load_ms", ms("snap", "load"), "ms");
        out.put(
            "snap.read_ns",
            tr.mean_ns("snap", "read") / READ_BATCH as f64,
            "ns",
        );
        out.put("snap.bytes", self.snap_bytes as f64 / passes, "bytes");
        for (module, ns) in tr.self_ns_by_module() {
            out.put(
                format!("self_ms.{module}"),
                ns as f64 / 1e6 / requests,
                "ms",
            );
        }
    }
}
