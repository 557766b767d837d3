//! Experiment E4 — the §4.2 preliminary result: ZOOKEEPER-2201.
//!
//! Drives the [`minizk::bug2201`] rig through the campaign [`Testbed`],
//! with rendering and shape checks. The paper's configuration detected the
//! fault "in around seven seconds"; detection latency here is bounded by
//! `checker_interval + checker_timeout`, so the default 2 s / 3 s
//! configuration lands in the same ballpark. Virtual time makes the whole
//! reproduction one answer per configuration.

use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use minizk::bug2201::{Bug2201, Bug2201Options, Bug2201Report};
use wdog_base::error::BaseResult;
use wdog_core::report::{FailureKind, FailureReport};

use crate::fmt::Table;
use crate::testbed::Testbed;

/// Healthy steady state before the fault.
const WARMUP: Duration = Duration::from_secs(1);

/// Location fragments of the wedged snapshot region a pinpoint must name.
const WEDGED: [&str; 3] = ["serialize_node", "tree_write_lock", "final_apply"];

/// E4 result: the scenario report plus the configuration used.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Zk2201Result {
    /// Checker interval used, in milliseconds.
    pub checker_interval_ms: u64,
    /// Checker timeout used, in milliseconds.
    pub checker_timeout_ms: u64,
    /// The scenario measurements.
    pub report: Bug2201Report,
}

/// Runs E4 with paper-comparable timing (2 s interval, 3 s timeout).
pub fn run() -> BaseResult<Zk2201Result> {
    run_with(&Bug2201Options::default())
}

/// The watchdog's detection in the sealed report log: the first stuck
/// report at or after `injected_ms` fixes the latency; the pinpoint is the
/// first stuck report inside the wedged snapshot region, if any arrived
/// (several checkers share the wedged link, and any of them may fire
/// first).
fn detection(reports: &[FailureReport], injected_ms: u64) -> Option<(u64, FailureReport)> {
    let stuck: Vec<&FailureReport> = reports
        .iter()
        .filter(|r| r.kind == FailureKind::Stuck && r.at_ms >= injected_ms)
        .collect();
    let first = stuck.first()?;
    let best = stuck
        .iter()
        .find(|r| WEDGED.iter().any(|w| r.location.to_string().contains(w)))
        .unwrap_or(first);
    Some((first.at_ms - injected_ms, (*best).clone()))
}

/// Runs E4 with the given tunables on a fresh virtual clock.
pub fn run_with(opts: &Bug2201Options) -> BaseResult<Zk2201Result> {
    let mut bed = Testbed::boot_with("zk2201-main", |clock| Bug2201::boot(clock, opts))?;
    let clock = Arc::clone(bed.clock());
    let driver = bed.rig.build_watchdog()?;
    bed.start_watchdog(driver)?;
    bed.rig.start_workload();
    clock.sleep(WARMUP);

    bed.rig.inject();
    let injected_at = clock.now();
    bed.observe(injected_at + opts.observe_for, |_| {
        bed.rig.sample();
        false
    });

    let (rig, reports) = bed.teardown(|| {});
    let report = rig.report(detection(&reports, injected_at.as_millis() as u64));
    Ok(Zk2201Result {
        checker_interval_ms: opts.checker_interval.as_millis() as u64,
        checker_timeout_ms: opts.checker_timeout.as_millis() as u64,
        report,
    })
}

/// Renders the E4 summary.
pub fn render(result: &Zk2201Result) -> String {
    let r = &result.report;
    let mut t = Table::new(&["observable", "value"]);
    t.row_owned(vec![
        "watchdog detection latency".into(),
        r.watchdog_detection_ms
            .map(|ms| format!("{:.1} s", ms as f64 / 1000.0))
            .unwrap_or_else(|| "NOT DETECTED".into()),
    ]);
    t.row_owned(vec![
        "watchdog pinpoint".into(),
        r.pinpoint.clone().unwrap_or_else(|| "-".into()),
    ]);
    t.row_owned(vec![
        "captured context".into(),
        r.payload
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(", "),
    ]);
    t.row_owned(vec![
        "heartbeat verdict throughout".into(),
        if r.heartbeat_green_throughout {
            "healthy (never suspected)".into()
        } else {
            "suspected".into()
        },
    ]);
    t.row_owned(vec![
        "admin ruok throughout".into(),
        if r.ruok_green_throughout {
            "imok (always)".into()
        } else {
            "failed".into()
        },
    ]);
    t.row_owned(vec![
        "writes before fault".into(),
        r.writes_before.to_string(),
    ]);
    t.row_owned(vec![
        "writes completed during fault".into(),
        r.writes_during.to_string(),
    ]);
    t.row_owned(vec![
        "write timeouts during fault".into(),
        r.write_timeouts.to_string(),
    ]);
    t.row_owned(vec![
        "reads during fault".into(),
        if r.reads_ok_during {
            "healthy".into()
        } else {
            "failing".into()
        },
    ]);
    let mut out = format!(
        "E4 / §4.2 — ZOOKEEPER-2201 reproduction\n\
         (checker interval {} ms, checker timeout {} ms; the paper reports ~7 s detection\n\
         with heartbeats and the admin command green throughout)\n\n",
        result.checker_interval_ms, result.checker_timeout_ms
    );
    out.push_str(&t.render());
    out
}

/// Shape checks for E4. Returns violations.
pub fn shape_violations(result: &Zk2201Result) -> Vec<String> {
    let r = &result.report;
    let mut v = Vec::new();
    if r.write_timeouts == 0 {
        v.push("writes never hung — the failure was not induced".into());
    }
    if !r.reads_ok_during {
        v.push("reads failed — the failure is not gray".into());
    }
    if !r.heartbeat_green_throughout {
        v.push("heartbeat suspected the leader — it should stay green".into());
    }
    if !r.ruok_green_throughout {
        v.push("ruok failed — it should stay green".into());
    }
    match r.watchdog_detection_ms {
        None => v.push("watchdog never detected the hang".into()),
        Some(ms) => {
            let bound = (result.checker_interval_ms + result.checker_timeout_ms) * 2 + 2000;
            if ms > bound {
                v.push(format!(
                    "detection took {ms} ms, beyond the {bound} ms bound"
                ));
            }
        }
    }
    let pin = r.pinpoint.as_deref().unwrap_or("nothing");
    if !WEDGED.iter().any(|w| pin.contains(w)) {
        v.push(format!("pinpoint {pin} is outside the wedged region"));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full §4.2 reproduction, scaled down: the watchdog detects
    /// within seconds and pinpoints the wedged region while heartbeat and
    /// ruok stay green, and the same configuration gives the same answer
    /// twice.
    #[test]
    fn reproduces_the_gray_failure_deterministically() {
        let opts = Bug2201Options {
            checker_interval: Duration::from_millis(300),
            checker_timeout: Duration::from_millis(600),
            observe_for: Duration::from_secs(5),
            tree_size: 10,
            write_period: Duration::from_millis(30),
        };
        let result = run_with(&opts).unwrap();
        assert!(result.report.writes_before > 0, "workload never got going");
        let violations = shape_violations(&result);
        assert!(violations.is_empty(), "{violations:?}: {result:#?}");

        let again = run_with(&opts).unwrap();
        assert_eq!(
            serde_json::to_string(&result).unwrap(),
            serde_json::to_string(&again).unwrap(),
            "ZK-2201 diverged across runs of one configuration"
        );
    }
}
