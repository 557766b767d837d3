//! The repository benchmark.
//!
//! ```text
//! perfbench --workload {kvs-serve|minizk-serve|chaos-sim} --seed N --seconds S --trace {0|1}
//! ```
//!
//! Every workload pairs a serving cost with a detection outcome, so a
//! watchdog that gets cheaper by checking less shows up as worse
//! detection on the same workload:
//!
//! - `kvs-serve` / `minizk-serve`: boot the target, arm the full watchdog
//!   and drive the request mix open-loop at a fixed rate below the knee,
//!   in windows with sim-chaos fault schedules of the same target replayed
//!   between them.
//! - `chaos-sim`: replay sim-chaos fault schedules against kvs, minizk and
//!   miniblock; no client load goes through the request path.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` attaches a
//! telemetry registry, records spans around every call into the program,
//! climbs a rate ladder for capacity, runs the armed-vs-disarmed reference
//! and the layer calibrations, and prints the per-layer table; the spans
//! are written to `perfbench/out/<workload>.spans.tsv`. The last stdout
//! line is one JSON object `{correct, attempted, failed, metrics}`; the
//! process exits non-zero when an output check fails. See
//! `perfbench/README.md` for every metric's definition.

mod chaos;
mod layers;
mod profile;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// Named metrics with units, printed in name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets `name` (non-finite values are stored as 0).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.to_owned(), (v, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (printed with `--trace 0`).
    pub e2e: Metrics,
    /// Per-layer metrics (printed with `--trace 1`).
    pub layers: Metrics,
    /// Units of work attempted (requests plus replays).
    pub attempted: u64,
    /// Units of work that failed.
    pub failed: u64,
    /// Output-check failures.
    pub problems: Vec<String>,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Per-layer traced run.
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload {kvs-serve|minizk-serve|chaos-sim} --seed N --seconds S --trace {0|1}";

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        kv.insert(flag, value);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or(format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let args = Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    };
    if kv.len() != 4 {
        return Err("unknown flag".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let tracer = trace::Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "kvs-serve" => profile::serve_workload(&profile::KVS, &args, &tracer),
        "minizk-serve" => profile::serve_workload(&profile::MINIZK, &args, &tracer),
        "chaos-sim" => profile::chaos_workload(&args, &tracer),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if args.trace {
        print_layers(&outcome.layers);
        print_self_times(&tracer);
        let path = Path::new("perfbench/out").join(format!("{}.spans.tsv", args.workload));
        match tracer.write(&path) {
            Ok(()) => eprintln!("[spans written: {}]", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    for p in &outcome.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let correct = outcome.problems.is_empty();
    let metrics = if args.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.json()
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The per-layer table, on stderr (stdout ends with the JSON line).
fn print_layers(m: &Metrics) {
    eprintln!("{:<48} {:>16} unit", "layer metric", "value");
    for (k, (v, u)) in &m.0 {
        eprintln!("{k:<48} {v:>16.3} {u}");
    }
}

/// Span totals and self times by layer boundary, on stderr.
fn print_self_times(tracer: &trace::Tracer) {
    eprintln!(
        "{:<32} {:>10} {:>14} {:>14}",
        "span", "count", "total ms", "self ms"
    );
    for (name, t) in trace::by_name(&tracer.spans()) {
        eprintln!(
            "{name:<32} {:>10} {:>14.3} {:>14.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

/// Whole seconds as a `Duration` fraction.
pub fn share(seconds: u64, frac: f64) -> Duration {
    Duration::from_secs_f64(seconds as f64 * frac)
}
