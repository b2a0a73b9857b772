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
//! - `redundant` — `work − peak_edges`, the redundant attempts;
//!   `redundant_ratio` is `redundant / work`, the share online cycle
//!   elimination attacks.
//! - `vars_eliminated` — variables removed by online cycle elimination.
//! - `mean_search_visits` — mean nodes visited per online cycle search.
//!
//! The header records `schema` (`bane-bench/13`), `label`, `created_unix`,
//! the run options (`scale`, `max_ast`, `reps`, `limit`) and the checkout's
//! `git_revision`; the `benchmarks` array holds, per benchmark, Table 1's
//! static columns, the six experiment rows and the observed run's `obs`
//! report. The paper's observables (`finished`, `work`, `redundant`,
//! `edges`, `peak_edges`, `live_vars`, `vars_eliminated`) are stable:
//! they must not move unless the algorithm deliberately changes, and CI
//! diffs them against the committed snapshot. Serving and editing timings
//! (snapshot loads, incremental and fleet applies) belong to `perfbench`,
//! which measures them with noise bands.
//!
//! The JSON is hand-rolled (the build environment has no serde); the format
//! is plain nested objects with no NaNs and no trailing commas, so any JSON
//! parser can read it.

use bane_bench::cli::Options;
use bane_bench::experiment::{analyze_bench, run_observed, run_one, ExperimentKind, Measurement};
use bane_obs::RunReport;
use std::fmt::Write as _;
use std::time::SystemTime;

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

    let created_unix = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let json = format!(
        "{{\n  \"schema\": \"bane-bench/13\",\n  \"label\": {},\n  \
         \"created_unix\": {},\n  \"scale\": {},\n  \"max_ast\": {},\n  \
         \"reps\": {},\n  \"limit\": {},\n  \"git_revision\": {},\n  \
         \"benchmarks\": [{}\n  ]\n}}\n",
        json_string(&label),
        created_unix,
        json_f64(opts.scale),
        opts.max_ast,
        opts.reps,
        opts.limit,
        json_string(&git_revision()),
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
