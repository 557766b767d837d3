//! Experiment E1 — the paper's Table 1, measured.
//!
//! Table 1 compares three abstractions (crash failure detector, error
//! handler, watchdog) on scope, execution, goal, and checked properties.
//! This experiment makes the comparison empirical: every scenario from the
//! gray-failure catalogue runs against all detectors at once, and the
//! matrix records who detected what, how fast, and at what granularity.
//!
//! Expected shape: the heartbeat FD catches only the process crash; error
//! handlers catch only faults with explicit error signals; the watchdog
//! catches the gray failures — and pinpoints them.

use serde::{Deserialize, Serialize};

use wdog_base::error::BaseResult;
use wdog_target::WatchdogTarget;

use crate::fmt::Table;
use crate::scenario::{run_scenario, RunnerOptions, ScenarioResult};

/// The full E1 result set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Result {
    /// Target the campaign ran against.
    pub target: String,
    /// One entry per scenario.
    pub rows: Vec<ScenarioResult>,
}

/// Runs E1 over the target's whole catalogue.
pub fn run(target: &dyn WatchdogTarget, opts: &RunnerOptions) -> BaseResult<Table1Result> {
    let mut rows = Vec::new();
    for scenario in &target.catalog() {
        eprintln!(
            "[table1/{}] running scenario {} ...",
            target.name(),
            scenario.id
        );
        rows.push(run_scenario(target, Some(scenario), opts)?);
    }
    Ok(Table1Result {
        target: target.name().to_owned(),
        rows,
    })
}

fn cell(row: &ScenarioResult, detector: &str) -> String {
    match row.outcome(detector) {
        Some(o) if o.detected => match o.latency_ms {
            Some(ms) => format!("Y {ms}ms"),
            None => "Y".into(),
        },
        _ => "-".into(),
    }
}

/// Renders the E1 matrix in the paper's row order.
pub fn render(result: &Table1Result) -> String {
    let mut t = Table::new(&[
        "scenario",
        "expected",
        "heartbeat",
        "probe",
        "observer",
        "err-handler",
        "watchdog",
        "wd class",
        "wd pinpoint",
        "blame ok",
    ]);
    for row in &result.rows {
        let wd = row.outcome("watchdog");
        t.row_owned(vec![
            row.scenario.clone(),
            row.expected_class.clone(),
            cell(row, "heartbeat"),
            cell(row, "probe"),
            cell(row, "observer"),
            cell(row, "error-handler"),
            cell(row, "watchdog"),
            wd.and_then(|o| o.class.clone())
                .unwrap_or_else(|| "-".into()),
            wd.map(|o| o.granularity.clone())
                .unwrap_or_else(|| "-".into()),
            wd.and_then(|o| o.correct_blame)
                .map(|b| if b { "yes" } else { "no" }.to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    let mut out = format!(
        "E1 / Table 1 — detection matrix: abstraction x failure class [target: {}]\n\
         (Y = detected within the window, with detection latency)\n\n",
        result.target
    );
    out.push_str(&t.render());
    out
}

/// Gray-failure cells, as `(target, scenario)`, that the watchdog detects
/// but blames on the wrong component; each has an open ROADMAP item.
///
/// kvs state-corruption: the `handle_request#index_put` mimic replays the
/// listener's last `probe_val`, which is empty after a GET or DEL and reads
/// back unchanged under the corruption toggle, so only the `kvs.api` probe
/// sees the corruption.
const KNOWN_MISBLAMES: &[(&str, &str)] = &[("kvs", "state-corruption")];

/// Checks the paper-shape expectations on a result set; returns a list of
/// violated expectations (empty = shape holds).
pub fn shape_violations(result: &Table1Result) -> Vec<String> {
    let mut v = Vec::new();
    for r in &result.rows {
        let wd = r.outcome("watchdog");
        let misblamed = wd.is_some_and(|o| o.detected && o.correct_blame == Some(false));
        let known = KNOWN_MISBLAMES.contains(&(result.target.as_str(), r.scenario.as_str()));
        if misblamed && !known {
            v.push(format!(
                "watchdog blamed the wrong component for {}",
                r.scenario
            ));
        }
    }
    let gray_detected_by_watchdog = result
        .rows
        .iter()
        .filter(|r| r.scenario != "process-crash")
        .filter(|r| r.outcome("watchdog").is_some_and(|o| o.detected))
        .count();
    let gray_total = result
        .rows
        .iter()
        .filter(|r| r.scenario != "process-crash")
        .count();
    if gray_detected_by_watchdog * 10 < gray_total * 7 {
        v.push(format!(
            "watchdog detected only {gray_detected_by_watchdog}/{gray_total} gray failures"
        ));
    }
    let hb_gray_detections = result
        .rows
        .iter()
        .filter(|r| r.scenario != "process-crash" && r.scenario != "runtime-pause")
        .filter(|r| r.outcome("heartbeat").is_some_and(|o| o.detected))
        .count();
    if hb_gray_detections > 0 {
        v.push(format!(
            "heartbeat detected {hb_gray_detections} gray failures — it should catch only crashes"
        ));
    }
    if let Some(crash) = result.rows.iter().find(|r| r.scenario == "process-crash") {
        if !crash.outcome("heartbeat").is_some_and(|o| o.detected) {
            v.push("heartbeat missed the crash".into());
        }
    }
    v
}
