//! `bench_json`: the benchmark **regression driver**.
//!
//! Runs the synthetic suite across all six Table 4 solver configurations and
//! emits a machine-readable `BENCH_<n>.json` snapshot — wall time, Work,
//! peak edges, and live variables per benchmark × experiment. Successive
//! snapshots (`BENCH_1.json`, `BENCH_2.json`, …) give every future change a
//! performance trajectory: diff two snapshots to see where time or Work
//! moved.
//!
//! Usage:
//!
//! ```text
//! bench_json [--scale f] [--max-ast n] [--reps n] [--limit n] [--only s]
//!            [--fast] [--out path] [--label s] [--report path]
//! ```
//!
//! Without `--out`, the snapshot is written to `BENCH_<n>.json` in the
//! current directory, where `<n>` is one past the highest existing index
//! (starting at 1). `--label` tags the snapshot (e.g. `seed`, `hybrid-adj`)
//! so a directory of snapshots stays self-describing.
//!
//! In addition to the six timed configurations, one *observed* `IF-Online`
//! run per benchmark records the `bane-obs` layer (phase timers, unified
//! counters, event tail; see `docs/OBSERVABILITY.md`). Its `RunReport` is
//! embedded in the snapshot as the benchmark's `obs` field, the merged
//! aggregate is rendered as a phase/counter table on stderr, and `--report
//! <path>` additionally writes the aggregate as standalone `bane-obs/1`
//! JSON. Observed runs are separate solver instances: they never contribute
//! to the regression timing fields.
//!
//! Field definitions (all times in nanoseconds):
//!
//! - `wall_ns` — resolution time, best of `--reps` runs; includes the
//!   least-solution pass for inductive form (paper methodology).
//! - `ls_ns` — the least-solution portion of `wall_ns` (0 for standard form).
//! - `work` — edge-addition attempts including redundant ones (Table 4's
//!   "Work" column).
//! - `edges` — edges in the final graph (canonical census).
//! - `peak_edges` — distinct edges ever inserted (monotone; collapses
//!   reclaim graph storage but never decrease this).
//! - `live_vars` — variables not forwarded into a cycle witness at the end.
//! - `finished` — `false` when the `--limit` work bound stopped a `Plain`
//!   run early; its numbers then reflect the truncated run.
//!
//! Since `bane-bench/3` the header also records the parallel context —
//! `threads` (the `--threads` value), `git_revision`, and `logical_cpus` —
//! and a `par_ls` section holds the `bane-par` scaling table: the largest
//! selected benchmark's sequential baselines plus, for each thread count in
//! {1, 2, 4, 8} ∪ {`--threads`}, the parallel least-solution wall time with
//! its determinism check (`ls_identical`, which must read `true`; it is
//! measured, not assumed). Every field that existed in `bane-bench/2` is
//! emitted byte-identically; consumers of the old schema keep working
//! unchanged.
//!
//! `bane-bench/4` adds `single_cpu` to the header: `true` when the machine
//! exposes a single logical CPU, warning that parallel *speedups* in this
//! snapshot are meaningless even though the determinism checks remain in
//! force.
//!
//! `bane-bench/5` surfaces the search-kernel unified counters
//! (`epoch.resets`, `csr.build`, and the hit/miss pair of the since-deleted
//! negative-search memo) in the observed runs' `obs` reports.
//!
//! `bane-bench/6` adds the **solution-set backend** axis:
//!
//! - `--solset <sorted-span|bitmap|hybrid>` selects the backend used by the
//!   six timed configurations' least-solution passes (header field
//!   `solset`). Backends are byte-identical by contract, so every stable
//!   field must match across `--solset` values — only `ls_ns`/`wall_ns`
//!   may move.
//! - each experiment row gains `redundant_ratio` — `redundant / work`, the
//!   fraction of edge-addition attempts that were redundant (the quantity
//!   online cycle elimination attacks; derived, so the stable-field
//!   contract is unchanged).
//! - a `solset` section measures the largest selected benchmark under every
//!   backend × difference-propagation mode: a cold least pass over a ~99.5%
//!   constraint prefix, then the pass after feeding the held-back tail —
//!   with the `ls.delta.in`/`ls.delta.fresh` traffic, payload
//!   bytes-per-variable, and a per-row byte-identity check
//!   (`matches_reference`, must always read `true`).
//!
//! Every field that existed in `bane-bench/5` is emitted byte-identically.
//!
//! `bane-bench/7` adds the **snapshot serving** table (`snap_queries`): the
//! largest selected benchmark is solved once, written to a `bane-snap`
//! snapshot file (docs/SNAPSHOT_FORMAT.md), and — with the solver dropped —
//! cold-reloaded per reader-thread count in {1, 2, 4, 8}. Each
//! (mix × threads) row drives a deterministic SplitMix64-seeded workload of
//! `points-to` / `alias` / `reachable` / `mixed` queries through the shared
//! read-only `QueryIndex` from scoped reader threads and reports queries per
//! second plus `answers_match` — an order-independent fingerprint of every
//! answer compared against one precomputed from the live `LeastSolution`
//! (must always read `true`). The section header carries the file size,
//! write and cold-load times, and the `snap.loads` / `snap.queries`
//! unified-counter totals. Every field that existed in `bane-bench/6` is
//! emitted byte-identically; serving runs never touch the timed solver
//! configurations.
//!
//! `bane-bench/8` adds the **incremental re-solve** table (`incremental`;
//! see docs/INCREMENTAL.md): the largest selected benchmark's constraint
//! system is split into 64 groups behind a `bane-serve` session, one
//! mid-program group is edited (the "re-parse one function" workload), and
//! a seeded `bane-synth` `DeltaScript` of mixed adds/edits/removals/growth
//! drives a second session — each row comparing `Session::apply` wall time
//! against a from-scratch solve of the identical live system, with the
//! dirty/total condensation-level counts and reused-variable tallies from
//! the revalidation pass, and a `matches_reference` verdict (set equality
//! per variable; full byte parity after non-monotone deltas — must always
//! read `true`, like the suite edit's `byte_identical`). The section
//! header carries the `serve.delta.*` unified-counter totals and the
//! aggregate `reuse_ratio`. Apply times are one-shot (applying mutates the
//! session); the from-scratch times are best-of-`--reps`. Every field that
//! existed in `bane-bench/7` is emitted byte-identically; incremental runs
//! never touch the timed solver configurations.
//!
//! `bane-bench/9` adds the **fleet serving** table (`fleet`; see
//! docs/SERVING.md): one partitioned `bane-synth` `DeltaScript`
//! (`partitions = 4`, so ownership composes over every measured width) is
//! driven through an unsharded baseline `Session` and then through a
//! `bane-serve` `ShardManager` at shard widths 1, 2, and 4 — each row
//! carrying the fleet's total apply wall time, the `fleet.delta.routed` /
//! `fleet.vars.fanout` unified-counter totals, the per-shard constraint
//! balance (`min`/`max_shard_constraints`), and a `matches_single` verdict
//! comparing every variable's routed answer against the baseline after the
//! full script (must always read `true`). Apply times are one-shot
//! (applying mutates the fleet); the section header carries the baseline's
//! total apply time. Every field that existed in `bane-bench/8` is emitted
//! byte-identically; fleet runs never touch the timed solver
//! configurations.
//!
//! `bane-bench/10` adds the **provenance fast-apply** columns to the
//! `incremental` section (see docs/INCREMENTAL.md, "The two-tier
//! contract"): every measured delta is also applied to an
//! `ApplyMode::Fast` twin session, adding `fast_apply_ns` /
//! `fast_repaired` / `fast_set_equal` per row, the same (plus
//! `fast_byte_identical`) on `suite_edit`, and the `serve.fast.repaired` /
//! `serve.fast.fallback` / `serve.fast.retracted-edges` unified-counter
//! totals to the section header. `fast_set_equal` must always read `true`;
//! `fast_byte_identical` is *expected* to read `false` after an in-place
//! repair — Fast trades byte-parity of the work counters for not
//! replaying the world — and `true` only when the edit fell back to
//! replay. Every field that existed in `bane-bench/9` is emitted
//! byte-identically; the Exact sessions and timed solver configurations
//! are untouched.
//!
//! `bane-bench/11` removes everything the deleted round-parallel closure
//! engine reported: its rounds-per-dispatch header field, the `par_batch`
//! section, and the `par_ls` section's `seq_solve_ns` and per-row
//! `frontier_*` and memo hit/miss columns. Every other field is emitted
//! byte-identically.
//!
//! `bane-bench/12` removes what the deleted parallel and alternative
//! least-solution machinery reported: the `par_ls` and `solset_scaling`
//! sections, the header's `threads` and `solset` fields (the `--threads` and
//! `--solset` flags are gone), and the `fleet` section's `threads` field.
//! `logical_cpus` and `single_cpu` stay, describing the machine the
//! `snap_queries` reader threads ran on. Every other field is emitted
//! byte-identically.
//!
//! Still `bane-bench/12`: with the negative-search memo deleted, the
//! observed runs' `obs` reports (and the `--report` aggregate) no longer
//! carry its hit/miss counters. The stable fields are unchanged.
//!
//! The JSON is hand-rolled (the build environment has no serde); the format
//! is plain nested objects with no NaNs and no trailing commas, so any JSON
//! parser can read it.

use bane_bench::cli::Options;
use bane_bench::experiment::{
    analyze_bench, run_fleet, run_incremental, run_observed, run_one, run_snap_queries,
    ExperimentKind, FleetScaling, IncrementalScaling, Measurement, SnapScaling,
};
use bane_obs::RunReport;
use std::fmt::Write as _;
use std::time::SystemTime;

/// Groups the incremental table splits the largest benchmark into (the
/// "functions" of the one-function-edit workload).
const INCR_GROUPS: usize = 64;
/// Steps in the incremental table's generated `DeltaScript`.
const INCR_STEPS: usize = 24;
/// Seed of the incremental table's `DeltaScript` — fixed so successive
/// snapshots measure the identical edit history.
const INCR_SEED: u64 = 0xba9e_0008;
/// Steps in the fleet table's partitioned `DeltaScript`.
const FLEET_STEPS: usize = 24;
/// Seed of the fleet table's `DeltaScript` — fixed so successive snapshots
/// measure the identical edit history.
const FLEET_SEED: u64 = 0xba9e_0009;

fn main() {
    // Split the driver-specific flags off before handing the rest to the
    // shared parser.
    let mut out_path: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut label = String::from("unlabeled");
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(v) => out_path = Some(v),
                None => die("--out expects a value"),
            },
            "--report" => match args.next() {
                Some(v) => report_path = Some(v),
                None => die("--report expects a value"),
            },
            "--label" => match args.next() {
                Some(v) => label = v,
                None => die("--label expects a value"),
            },
            "--help" | "-h" => die(
                "options: --scale <f> --max-ast <n> --reps <n> --limit <n> \
                 --only <substr> --fast --out <path> --label <s> --report <path>",
            ),
            _ => rest.push(arg),
        }
    }
    let opts = match Options::defaults(true).parse(rest) {
        Ok(opts) => opts,
        Err(msg) => die(&msg),
    };

    let selected = opts.selected();
    eprintln!(
        "bench_json: {} benchmarks, scale {}, reps {}, limit {}",
        selected.len(),
        opts.scale,
        opts.reps,
        opts.limit
    );

    let mut aggregate = RunReport { label: "aggregate".to_string(), ..RunReport::default() };
    let mut benchmarks = String::new();
    for (i, (entry, program)) in selected.iter().enumerate() {
        let (info, partition, mut if_online) = analyze_bench(entry.name, program);
        if opts.reps > 1 {
            if_online = run_one(program, ExperimentKind::IfOnline, None, u64::MAX, opts.reps);
        }
        let mut experiments = String::new();
        for (j, kind) in ExperimentKind::ALL.into_iter().enumerate() {
            let m = if kind == ExperimentKind::IfOnline {
                if_online
            } else {
                let limit = if kind.is_plain() { opts.limit } else { u64::MAX };
                run_one(program, kind, Some(&partition), limit, opts.reps)
            };
            if j > 0 {
                experiments.push(',');
            }
            experiments.push_str(&measurement_json(&m));
            eprintln!(
                "  {:<24} {:<10} wall={:>12}ns work={:<12} edges={:<9} live_vars={}{}",
                entry.name,
                kind.name(),
                m.time.as_nanos(),
                m.work,
                m.edges,
                m.live_vars,
                if m.finished { "" } else { "  [work limit]" },
            );
        }
        // One recorded IF-Online run on top of the timed ones: phase timings
        // and unified counters for this benchmark, merged into the aggregate.
        let obs_label = format!("{}/IF-Online", entry.name);
        let (_, obs_report) =
            run_observed(program, ExperimentKind::IfOnline, None, u64::MAX, &obs_label);
        aggregate.merge(&obs_report);

        if i > 0 {
            benchmarks.push(',');
        }
        let _ = write!(
            benchmarks,
            "\n    {{\"name\": {}, \"ast_nodes\": {}, \"loc\": {}, \"set_vars\": {}, \
             \"initial_edges\": {}, \"collapsible\": {}, \"experiments\": [{}],\n     \
             \"obs\": {}}}",
            json_string(&info.name),
            info.ast_nodes,
            info.loc,
            info.set_vars,
            info.initial_edges,
            info.collapsible,
            experiments,
            obs_report.to_json(),
        );
    }

    eprintln!("{}", aggregate.render_table());

    // Reader-thread counts of the snapshot serving table.
    let thread_counts = [1usize, 2, 4, 8];
    let largest = selected.iter().max_by_key(|(e, _)| e.ast_nodes);

    // The snapshot serving table: the largest selected benchmark written to a
    // bane-snap file, cold-reloaded, and queried concurrently per mix.
    let snap_json = match largest {
        Some((entry, program)) => {
            eprintln!(
                "bench_json: snap queries on {} (threads {:?})",
                entry.name, thread_counts
            );
            let scaling = run_snap_queries(program, &thread_counts, opts.reps);
            eprintln!(
                "  snap {:<23} {} bytes, write={}ns cold-load={}ns",
                entry.name, scaling.file_bytes, scaling.write_ns, scaling.cold_load_ns
            );
            for row in &scaling.rows {
                eprintln!(
                    "  snap {:<23} {:<10} threads={} queries={:<8} wall={:>12}ns \
                     q/s={:<12.0} match={}",
                    entry.name,
                    row.mix.name(),
                    row.threads,
                    row.queries,
                    row.wall_ns,
                    row.queries_per_sec,
                    row.answers_match,
                );
            }
            snap_queries_json(entry.name, &scaling)
        }
        None => "null".to_string(),
    };

    // The incremental re-solve table: the same largest benchmark grouped
    // behind a bane-serve session (one-function edit), plus a seeded
    // DeltaScript edit history — each delta timed against a from-scratch
    // solve of the identical live system.
    let incremental_json = match largest {
        Some((entry, program)) => {
            eprintln!("bench_json: incremental re-solve on {}", entry.name);
            let scaling =
                run_incremental(program, INCR_GROUPS, INCR_STEPS, INCR_SEED, opts.reps);
            let e = &scaling.suite_edit;
            eprintln!(
                "  incr {:<23} edit apply={:>12}ns scratch={:>12}ns dirty-levels={}/{} \
                 reused={} identical={}",
                entry.name,
                e.apply_ns,
                e.scratch_ns,
                e.dirty_levels,
                e.total_levels,
                e.reused_vars,
                e.byte_identical,
            );
            for row in &scaling.rows {
                eprintln!(
                    "  incr {:<23} step={:<3} {:<12} apply={:>12}ns scratch={:>12}ns \
                     dirty-levels={}/{} reused={:<6} match={}",
                    entry.name,
                    row.step,
                    row.kind,
                    row.apply_ns,
                    row.scratch_ns,
                    row.dirty_levels,
                    row.total_levels,
                    row.reused_vars,
                    row.matches_reference,
                );
            }
            incremental_json_section(entry.name, &scaling)
        }
        None => "null".to_string(),
    };

    // The fleet serving table: one partitioned edit history through a
    // ShardManager at widths 1/2/4, against the unsharded baseline. The
    // script is synthetic, so this runs even with no benchmark selected.
    let fleet_json = {
        eprintln!("bench_json: fleet serving, widths 1/2/4");
        let scaling = run_fleet(FLEET_STEPS, FLEET_SEED);
        for row in &scaling.rows {
            eprintln!(
                "  fleet shards={} apply={:>12}ns single={:>12}ns routed={:<4} fanout={:<6} \
                 balance={}..{} match={}",
                row.shards,
                row.apply_ns,
                scaling.single_apply_ns,
                row.deltas_routed,
                row.vars_fanout,
                row.min_shard_constraints,
                row.max_shard_constraints,
                row.matches_single,
            );
        }
        fleet_json_section(&scaling)
    };

    let created_unix = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let logical_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"schema\": \"bane-bench/12\",\n  \"label\": {},\n  \
         \"created_unix\": {},\n  \"scale\": {},\n  \"max_ast\": {},\n  \
         \"reps\": {},\n  \"limit\": {},\n  \"git_revision\": {},\n  \
         \"logical_cpus\": {},\n  \"single_cpu\": {},\n  \
         \"snap_queries\": {},\n  \"incremental\": {},\n  \"fleet\": {},\n  \
         \"benchmarks\": [{}\n  ]\n}}\n",
        json_string(&label),
        created_unix,
        json_f64(opts.scale),
        opts.max_ast,
        opts.reps,
        opts.limit,
        json_string(&git_revision()),
        logical_cpus,
        logical_cpus == 1,
        snap_json,
        incremental_json,
        fleet_json,
        benchmarks,
    );

    let path = out_path.unwrap_or_else(next_snapshot_path);
    if let Err(e) = std::fs::write(&path, &json) {
        die(&format!("writing {path}: {e}"));
    }
    if let Some(rpath) = report_path {
        let mut body = aggregate.to_json();
        body.push('\n');
        if let Err(e) = std::fs::write(&rpath, body) {
            die(&format!("writing {rpath}: {e}"));
        }
        eprintln!("aggregate report: {rpath}");
    }
    println!("{path}");
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The checkout's `HEAD` revision, or `"unknown"` outside a git worktree.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `snap_queries` section: one row per (thread count × query mix) on the
/// shared cold-loaded `QueryIndex`, with the load counters under their
/// unified names.
fn snap_queries_json(benchmark: &str, scaling: &SnapScaling) -> String {
    let mut rows = String::new();
    for (i, row) in scaling.rows.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        let _ = write!(
            rows,
            "\n      {{\"mix\": {}, \"threads\": {}, \"queries\": {}, \
             \"wall_ns\": {}, \"queries_per_sec\": {}, \"answers_match\": {}}}",
            json_string(row.mix.name()),
            row.threads,
            row.queries,
            row.wall_ns,
            json_f64(row.queries_per_sec),
            row.answers_match,
        );
    }
    format!(
        "{{\"benchmark\": {}, \"var_count\": {}, \"file_bytes\": {}, \
         \"write_ns\": {}, \"cold_load_ns\": {}, \"snap.loads\": {}, \
         \"snap.queries\": {}, \"rows\": [{}\n    ]}}",
        json_string(benchmark),
        scaling.var_count,
        scaling.file_bytes,
        scaling.write_ns,
        scaling.cold_load_ns,
        scaling.snap_loads,
        scaling.snap_queries,
        rows,
    )
}

/// The `incremental` section: the suite one-function edit plus one row per
/// `DeltaScript` step, with the delta traffic under its unified-counter
/// names.
fn incremental_json_section(benchmark: &str, scaling: &IncrementalScaling) -> String {
    let e = &scaling.suite_edit;
    let suite_edit = format!(
        "{{\"apply_ns\": {}, \"scratch_ns\": {}, \"dirty_levels\": {}, \
         \"total_levels\": {}, \"dirty_vars\": {}, \"reused_vars\": {}, \
         \"byte_identical\": {}, \"fast_apply_ns\": {}, \"fast_repaired\": {}, \
         \"fast_set_equal\": {}, \"fast_byte_identical\": {}}}",
        e.apply_ns, e.scratch_ns, e.dirty_levels, e.total_levels, e.dirty_vars, e.reused_vars,
        e.byte_identical, e.fast_apply_ns, e.fast_repaired, e.fast_set_equal,
        e.fast_byte_identical,
    );
    let mut rows = String::new();
    for (i, row) in scaling.rows.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        let _ = write!(
            rows,
            "\n      {{\"step\": {}, \"kind\": {}, \"monotone\": {}, \"apply_ns\": {}, \
             \"scratch_ns\": {}, \"dirty_levels\": {}, \"total_levels\": {}, \
             \"dirty_vars\": {}, \"reused_vars\": {}, \"matches_reference\": {}, \
             \"fast_apply_ns\": {}, \"fast_repaired\": {}, \"fast_set_equal\": {}}}",
            row.step,
            json_string(row.kind),
            row.monotone,
            row.apply_ns,
            row.scratch_ns,
            row.dirty_levels,
            row.total_levels,
            row.dirty_vars,
            row.reused_vars,
            row.matches_reference,
            row.fast_apply_ns,
            row.fast_repaired,
            row.fast_set_equal,
        );
    }
    format!(
        "{{\"benchmark\": {}, \"groups\": {}, \"initial_solve_ns\": {}, \
         \"suite_edit\": {},\n    \"script_seed\": {}, \"script_steps\": {}, \
         \"serve.delta.applied\": {}, \"serve.delta.monotone\": {}, \
         \"serve.delta.replayed\": {}, \"serve.fast.repaired\": {}, \
         \"serve.fast.fallback\": {}, \"serve.fast.retracted-edges\": {}, \
         \"reuse_ratio\": {}, \"rows\": [{}\n    ]}}",
        json_string(benchmark),
        scaling.groups,
        scaling.initial_solve_ns,
        suite_edit,
        scaling.script_seed,
        scaling.script_steps,
        scaling.deltas_applied,
        scaling.deltas_monotone,
        scaling.deltas_replayed,
        scaling.fast_repaired,
        scaling.fast_fallbacks,
        scaling.fast_retracted_edges,
        json_f64(scaling.reuse_ratio),
        rows,
    )
}

/// The `fleet` section: one row per shard width, with the routing traffic
/// under its unified-counter names and the unsharded baseline's apply time
/// in the header.
fn fleet_json_section(scaling: &FleetScaling) -> String {
    let mut rows = String::new();
    for (i, row) in scaling.rows.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        let _ = write!(
            rows,
            "\n      {{\"shards\": {}, \"apply_ns\": {}, \"fleet.delta.routed\": {}, \
             \"fleet.vars.fanout\": {}, \"max_shard_constraints\": {}, \
             \"min_shard_constraints\": {}, \"matches_single\": {}}}",
            row.shards,
            row.apply_ns,
            row.deltas_routed,
            row.vars_fanout,
            row.max_shard_constraints,
            row.min_shard_constraints,
            row.matches_single,
        );
    }
    format!(
        "{{\"script_seed\": {}, \"script_steps\": {}, \"partitions\": {}, \
         \"single_apply_ns\": {}, \"rows\": [{}\n    ]}}",
        scaling.script_seed,
        scaling.script_steps,
        scaling.partitions,
        scaling.single_apply_ns,
        rows,
    )
}

/// `BENCH_<n>.json` with `<n>` one past the highest index already present in
/// the current directory (so repeated runs never clobber a snapshot).
fn next_snapshot_path() -> String {
    let mut max = 0u32;
    if let Ok(entries) = std::fs::read_dir(".") {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(n) = name
                .strip_prefix("BENCH_")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|idx| idx.parse::<u32>().ok())
            {
                max = max.max(n);
            }
        }
    }
    format!("BENCH_{}.json", max + 1)
}

fn measurement_json(m: &Measurement) -> String {
    let redundant = m.work - m.peak_edges;
    let redundant_ratio =
        if m.work == 0 { 0.0 } else { redundant as f64 / m.work as f64 };
    format!(
        "\n      {{\"experiment\": {}, \"finished\": {}, \"wall_ns\": {}, \
         \"ls_ns\": {}, \"work\": {}, \"redundant\": {}, \
         \"redundant_ratio\": {}, \"edges\": {}, \
         \"peak_edges\": {}, \"live_vars\": {}, \"vars_eliminated\": {}, \
         \"mean_search_visits\": {}}}",
        json_string(m.kind.name()),
        m.finished,
        m.time.as_nanos(),
        m.ls_time.as_nanos(),
        m.work,
        redundant,
        json_f64(redundant_ratio),
        m.edges,
        m.peak_edges,
        m.live_vars,
        m.vars_eliminated,
        json_f64(m.mean_search_visits),
    )
}

/// Escapes `s` as a JSON string literal (suite names are ASCII, but be
/// strict anyway).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float as a JSON number (finite; NaN/inf become 0 — they can
/// only arise from a zero-search run anyway).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
