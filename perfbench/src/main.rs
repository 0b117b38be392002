//! `perfbench` — the end-to-end and per-layer benchmark of the DiffusionPipe
//! planner and its HTTP server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan_cold|serve_hit|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! The benchmark generates every input from `--seed`, measures for
//! `--seconds` split over a few trials (each sets the system up afresh),
//! checks every output against an oracle outside the timed windows, and
//! prints a human-readable report followed by one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones. With `--trace 1` untraced and traced
//! trials alternate, and the metrics are the per-layer ones, folded from
//! the spans the program itself records through `dpipe_trace`.
//!
//! Every end-to-end timing is reported at a reference host speed: the
//! benchmark times a fixed kernel of its own beside the program's ops and
//! scales each half-second stretch by it (see `calib`). The raw figures are
//! printed in the report beside the reported ones.

mod calib;
mod fold;
mod plan_cold;
mod serve;
mod specs;
mod stats;

use dpipe_spec::json::JsonValue;
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let workload = get("--workload")?.clone();
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    let trace = match get("--trace").map(String::as_str) {
        Ok("0") | Err(_) => false,
        Ok("1") => true,
        Ok(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Trials per run. Each trial sets the system up afresh and measures
/// `1/trials` of `--seconds`, so `setup_s` is a median over set-ups spread
/// across the run, not over set-ups taken back to back in one host phase.
pub fn trials(trace: bool) -> usize {
    if trace {
        4
    } else {
        5
    }
}

/// Whether a trial is traced: traced runs alternate untraced and traced
/// trials, so both halves see the same host phases.
pub fn traced_trial(trace: bool, trial: usize) -> bool {
    trace && trial % 2 == 1
}

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the figure, where it summarises samples.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: Option<usize>) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted in the timed window(s).
    pub attempted: u64,
    /// Non-200 answers, transport errors and oracle mismatches.
    pub failed: u64,
    /// Why the run is not correct, one line each (capped when printed).
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Workload-specific run-record entries.
    pub record: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }
}

fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| format!("unresolved ({r})")),
        None if !head.is_empty() => head.to_owned(),
        None => "unavailable (not a git checkout)".to_owned(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unavailable".to_owned())
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {:<26} {:>14.4} {:<6}{n}", m.name, m.value, m.unit);
    }
}

fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let correct = outcome.failed == 0
        && outcome.errors.is_empty()
        && outcome.attempted > 0
        && metrics.iter().all(|m| m.value.is_finite());
    JsonValue::Object(vec![
        ("correct".to_owned(), JsonValue::Bool(correct)),
        ("attempted".to_owned(), JsonValue::UInt(outcome.attempted)),
        ("failed".to_owned(), JsonValue::UInt(outcome.failed)),
        (
            "metrics".to_owned(),
            JsonValue::Object(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_owned(),
                            JsonValue::Object(vec![
                                ("value".to_owned(), JsonValue::Num(m.value)),
                                ("unit".to_owned(), JsonValue::Str(m.unit.to_owned())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "plan_cold" => plan_cold::run(&args),
        "serve_hit" => serve::run_hit(&args),
        "serve_mix" => serve::run_mix(&args),
        other => Err(format!(
            "unknown workload `{other}` (plan_cold, serve_hit, serve_mix)"
        )),
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    println!("== run record ==");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut record: Vec<(&str, String)> = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("git_commit", git_commit()),
        ("rustc", rustc_version()),
    ];
    record.extend(outcome.record.iter().map(|(k, v)| (*k, v.clone())));
    for (k, v) in &record {
        println!("  {k:<14} {v}");
    }
    println!(
        "ops: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    for e in outcome.errors.iter().take(20) {
        println!("  FAILED: {e}");
    }
    if outcome.errors.len() > 20 {
        println!("  ... and {} more", outcome.errors.len() - 20);
    }
    if !outcome.end_to_end.is_empty() {
        let title = if args.trace {
            "== end-to-end (untraced half) =="
        } else {
            "== end-to-end =="
        };
        print_metrics(title, &outcome.end_to_end);
    }
    if !outcome.per_layer.is_empty() {
        print_metrics("== per-layer (traced half; per op) ==", &outcome.per_layer);
    }
    println!("{}", result_line(&outcome, args.trace));
    ExitCode::SUCCESS
}
