//! The repository benchmark: three workloads over the bane stack, every
//! answer checked against an independent reference.
//!
//! Run through `perfbench/run.py`, which builds this binary and forwards
//! its arguments:
//!
//! ```text
//! perfbench --workload <analyze|edit-exact|edit-fast> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke] [--corrupt]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A `--trace 1` run leaves
//! out the per-layer metrics of layers the workload never called; `run.py`
//! fills those in as 0 from `BENCHMARK.json`. See `perfbench/README.md` for
//! the metric definitions.

mod analyze;
mod calib;
mod edit;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs and short runs, for the benchmark's own tests.
    pub smoke: bool,
    /// Flip one recorded answer before the check (self-test of the check).
    pub corrupt: bool,
    /// Scratch directory for snapshot files and trace dumps.
    pub work_dir: PathBuf,
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), Metric { value, unit });
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <analyze|edit-exact|edit-fast> --seed <n> \
         --seconds <s> --trace <0|1> [--smoke] [--corrupt]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut corrupt = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = Some(it.next()?),
            "--seed" => seed = Some(it.next()?.parse().ok()?),
            "--seconds" => seconds = Some(it.next()?.parse::<f64>().ok().filter(|s| *s > 0.0)?),
            "--trace" => {
                trace = Some(match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            "--smoke" => smoke = true,
            "--corrupt" => corrupt = true,
            _ => return None,
        }
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    Some(Args {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
        smoke,
        corrupt,
        work_dir: PathBuf::from(target).join("perfbench-work"),
    })
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(1);
    }
    let outcome = match args.workload.as_str() {
        "analyze" => analyze::run(&args),
        "edit-exact" => edit::run(&args, bane_serve::ApplyMode::Exact),
        "edit-fast" => edit::run(&args, bane_serve::ApplyMode::Fast),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return usage();
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// A JSON number with every digit kept (non-finite values become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
