//! The shared scenario runner behind experiments E1 and E2.
//!
//! One run = a booted [`WatchdogTarget`] testbed + steady workload + a
//! detector set + (optionally) one injected fault from the target's
//! catalogue. The runner is fully generic: everything target-specific
//! (testbed wiring, watchdog assembly, fault surfaces, the workload mix,
//! the API probe) comes through the [`WatchdogTarget`]/[`TargetInstance`]
//! traits, so `kvs`, `minizk`, and `miniblock` all campaign through this
//! one code path. The runner samples every detector through the
//! observation window and scores what each one said: detected or not, how
//! fast, with what failure class, at what localization granularity, and
//! whether the blame landed in the right place.
//!
//! Every run boots on a fresh `SimClock` through the campaign
//! [`Testbed`], and the extrinsic detectors are actors of that clock, so a
//! `(target, scenario, seed)` triple gives one [`ScenarioResult`],
//! latencies included.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use detectors::{ExternalProbe, HeartbeatDetector, ObserverHub};
use faults::{ArmedFault, Scenario};
use wdog_base::error::BaseResult;
use wdog_base::rng::derive_seed;
use wdog_core::prelude::*;
use wdog_target::{WatchdogTarget, WdOptions, WorkloadObserver, WorkloadProfile};

use crate::testbed::Testbed;

/// What one detector said about one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectorOutcome {
    /// Detector name (`heartbeat`, `probe`, `observer`, `error-handler`,
    /// `watchdog`, or a checker-family name).
    pub detector: String,
    /// Whether the detector reported the failure within the window.
    pub detected: bool,
    /// Milliseconds from injection to first report.
    pub latency_ms: Option<u64>,
    /// Failure class of the first report (watchdog only).
    pub class: Option<String>,
    /// Localization granularity: `operation`, `function`, `resource`,
    /// `api`, or `process`.
    pub granularity: String,
    /// Rendered location of the first report.
    pub blamed: Option<String>,
    /// Whether the blame matched the scenario's expectation.
    pub correct_blame: Option<bool>,
    /// First report's human detail.
    pub detail: String,
}

/// The full record of one scenario run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Scenario id, or `control` for fault-free runs.
    pub scenario: String,
    /// Expected failure class (empty for control runs).
    pub expected_class: String,
    /// Per-detector outcomes.
    pub outcomes: Vec<DetectorOutcome>,
    /// Workload totals over the run.
    pub workload_ok: u64,
    /// Workload failures over the run.
    pub workload_failed: u64,
}

impl ScenarioResult {
    /// Looks up one detector's outcome.
    pub fn outcome(&self, detector: &str) -> Option<&DetectorOutcome> {
        self.outcomes.iter().find(|o| o.detector == detector)
    }
}

/// Runner knobs.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Watchdog checker configuration (families, interval, timeouts).
    /// The default is campaign tuning for the simulated testbeds, not any
    /// target's production defaults: short rounds so detection latency is
    /// measurable inside the observation window.
    pub wd: WdOptions,
    /// Also run the extrinsic baselines (heartbeat, probe, observer) and
    /// the error-handler signal.
    pub extrinsic: bool,
    /// Steady-state period before injection.
    pub warmup: Duration,
    /// Observation window after injection.
    pub observe: Duration,
    /// Workload shape.
    pub workload: WorkloadProfile,
    /// Base seed.
    pub seed: u64,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        Self {
            wd: WdOptions {
                interval: Duration::from_millis(200),
                checker_timeout: Duration::from_millis(800),
                // Mimicked I/O at simulated-SSD latencies: tens of
                // milliseconds means the volume is orders of magnitude off.
                slow_threshold: Duration::from_millis(10),
                memory_watermark: 2 << 20,
                ..WdOptions::default()
            },
            extrinsic: true,
            warmup: Duration::from_millis(800),
            observe: Duration::from_secs(5),
            workload: WorkloadProfile {
                period: Duration::from_millis(5),
                ..WorkloadProfile::default()
            },
            seed: 42,
        }
    }
}

/// Classifies a report location into a granularity label.
pub fn granularity_of(loc: &FaultLocation) -> &'static str {
    if loc.operation.is_some() {
        "operation"
    } else if loc.function.starts_with("indicator:") {
        "resource"
    } else if loc.component.as_str().ends_with(".api") {
        "api"
    } else {
        "function"
    }
}

/// Runs one scenario (or a fault-free control run when `scenario` is
/// `None`) against `target` and scores every detector.
pub fn run_scenario(
    target: &dyn WatchdogTarget,
    scenario: Option<&Scenario>,
    opts: &RunnerOptions,
) -> BaseResult<ScenarioResult> {
    let label = scenario
        .map(|s| s.id.clone())
        .unwrap_or_else(|| "control".into());
    let seed = derive_seed(opts.seed, &label);
    let mut bed = Testbed::boot(target, seed, "scenario-main")?;
    let clock = Arc::clone(bed.clock());

    // Fault injection plumbing: the instance wires its own surfaces; the
    // runner only records whether the crash hook fired.
    let crashed = Arc::new(AtomicBool::new(false));
    let crash_flag = Arc::clone(&crashed);
    let injector = bed.rig.injector(Arc::new(move || {
        crash_flag.store(true, Ordering::Relaxed);
    }));

    // Extrinsic baselines, fed by the steady workload's outcomes.
    let hub = ObserverHub::new(Arc::clone(&clock), Duration::from_secs(2), 8, 0.5);
    if opts.extrinsic {
        let heartbeat = HeartbeatDetector::start(
            Arc::clone(&clock),
            Duration::from_millis(50),
            Duration::from_millis(300),
            bed.rig.liveness_probe(),
        );
        let probe = ExternalProbe::start(
            Arc::clone(&clock),
            Duration::from_millis(100),
            2,
            bed.rig.api_probe(),
        );
        bed.add_detector(Box::new(heartbeat));
        bed.add_detector(Box::new(probe));
        bed.add_detector(Box::new(hub.clone()));
    }
    let observer: Option<WorkloadObserver> = opts
        .extrinsic
        .then(|| Arc::new(move |ok: bool| hub.report(ok)) as WorkloadObserver);

    // The intrinsic watchdog and the steady workload.
    bed.start(
        &opts.wd,
        &WorkloadProfile {
            seed,
            ..opts.workload.clone()
        },
        observer,
    )?;

    clock.sleep(opts.warmup);
    let errors_handled_before = bed.rig.errors_handled();

    // Inject.
    let mut armed: Option<ArmedFault> = None;
    if let Some(s) = scenario {
        armed = Some(injector.inject(&s.kind)?);
    }
    let injected_at = clock.now();
    // Arm end-to-end detection-latency tracking: the first report the
    // driver emits at-or-after this instant closes the sample.
    if let Some(t) = &opts.wd.telemetry {
        if let Some(s) = scenario {
            let at_ms = injected_at.as_millis() as u64;
            t.arm_fault(&s.id, at_ms);
            t.flight(at_ms, "inject", &s.id);
        }
    }

    // Observe.
    let mut extrinsic_first: Vec<Option<(u64, String)>> = vec![None; bed.detectors().len()];
    let mut handler_first: Option<u64> = None;
    bed.observe(injected_at + opts.observe, |now| {
        let now_ms = now.saturating_sub(injected_at).as_millis() as u64;
        for (first, d) in extrinsic_first.iter_mut().zip(bed.detectors()) {
            if first.is_none() {
                if let detectors::Verdict::Suspected { reason } = d.verdict() {
                    *first = Some((now_ms, reason));
                }
            }
        }
        if handler_first.is_none() && bed.rig.errors_handled() > errors_handled_before {
            handler_first = Some(now_ms);
        }
        false
    });
    let (workload_ok, workload_failed) = bed.rig.workload_counters();
    let extrinsic_names: Vec<String> = bed
        .detectors()
        .iter()
        .map(|d| d.name().to_owned())
        .collect();

    let (_inst, reports) = bed.teardown(|| {
        if let Some(a) = &armed {
            injector.clear(a);
        }
    });
    if let Some(t) = &opts.wd.telemetry {
        t.disarm_fault();
    }

    // Score.
    let crash_run = crashed.load(Ordering::Relaxed);
    let mut outcomes = Vec::new();
    for (name, first) in extrinsic_names.into_iter().zip(&extrinsic_first) {
        outcomes.push(DetectorOutcome {
            detector: name,
            detected: first.is_some(),
            latency_ms: first.as_ref().map(|(ms, _)| *ms),
            class: None,
            granularity: "process".into(),
            blamed: None,
            correct_blame: None,
            detail: first.as_ref().map(|(_, r)| r.clone()).unwrap_or_default(),
        });
    }
    if opts.extrinsic {
        outcomes.push(DetectorOutcome {
            detector: "error-handler".into(),
            detected: handler_first.is_some(),
            latency_ms: handler_first,
            class: Some("error".into()),
            granularity: "function".into(),
            blamed: None,
            correct_blame: None,
            detail: if handler_first.is_some() {
                "explicit error caught in place".into()
            } else {
                String::new()
            },
        });
    }

    // Watchdog scoring: the first report after injection gives the
    // detection latency and class; localization is judged over *all*
    // reports in the window (operators see every report, so the most
    // precise, correctly-blamed one is what diagnosis would use).
    let injected_at_ms = injected_at.as_millis() as u64;
    let in_window: Vec<_> = reports
        .iter()
        .filter(|r| r.at_ms >= injected_at_ms || scenario.is_none())
        .collect();
    let first_report = in_window.first().copied();
    let wd_outcome = match (first_report, crash_run) {
        (_, true) => DetectorOutcome {
            detector: "watchdog".into(),
            detected: false,
            latency_ms: None,
            class: None,
            granularity: "none".into(),
            blamed: None,
            correct_blame: None,
            detail: "process crashed; intrinsic watchdog died with it".into(),
        },
        (Some(r), false) => {
            let hint = scenario.map(|s| s.expected.component_hint.clone());
            // Best granularity achieved across the window.
            let rank = |g: &str| match g {
                "operation" => 3,
                "function" => 2,
                "resource" => 1,
                _ => 0,
            };
            let best = in_window
                .iter()
                .max_by_key(|r| rank(granularity_of(&r.location)))
                .copied()
                .unwrap_or(r);
            let correct_blame = hint.as_ref().map(|h| {
                in_window
                    .iter()
                    .any(|r| r.location.to_string().contains(h.as_str()))
            });
            DetectorOutcome {
                detector: "watchdog".into(),
                detected: true,
                latency_ms: Some(r.at_ms.saturating_sub(injected_at_ms)),
                class: Some(r.kind.label().to_owned()),
                granularity: granularity_of(&best.location).to_owned(),
                correct_blame,
                blamed: Some(best.location.to_string()),
                detail: r.detail.clone(),
            }
        }
        (None, false) => DetectorOutcome {
            detector: "watchdog".into(),
            detected: false,
            latency_ms: None,
            class: None,
            granularity: "none".into(),
            blamed: None,
            correct_blame: None,
            detail: String::new(),
        },
    };
    outcomes.push(wd_outcome);

    Ok(ScenarioResult {
        scenario: label,
        expected_class: scenario
            .map(|s| s.expected.failure_class.clone())
            .unwrap_or_default(),
        outcomes,
        workload_ok,
        workload_failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvs::target::KvsTarget;
    use miniblock::target::DnTarget;
    use minizk::target::ZkTarget;

    fn quick_opts() -> RunnerOptions {
        RunnerOptions {
            warmup: Duration::from_millis(300),
            observe: Duration::from_millis(700),
            ..RunnerOptions::default()
        }
    }

    fn control_run_is_clean(target: &dyn WatchdogTarget) {
        let result = run_scenario(target, None, &quick_opts()).unwrap();
        assert_eq!(result.scenario, "control");
        assert!(
            result.workload_ok > 0,
            "{}: workload never succeeded",
            target.name()
        );
        let wd = result.outcome("watchdog").unwrap();
        assert!(
            !wd.detected,
            "{}: false alarm on control run: {:?}",
            target.name(),
            wd
        );
    }

    #[test]
    fn control_runs_are_clean_for_every_target() {
        control_run_is_clean(&KvsTarget);
        control_run_is_clean(&ZkTarget);
        control_run_is_clean(&DnTarget);
    }

    #[test]
    fn crash_scenario_fells_watchdog_but_not_heartbeat() {
        let target = KvsTarget;
        let scenario = target
            .catalog()
            .into_iter()
            .find(|s| s.id == "process-crash")
            .unwrap();
        let opts = RunnerOptions {
            observe: Duration::from_secs(2),
            ..quick_opts()
        };
        let result = run_scenario(&target, Some(&scenario), &opts).unwrap();
        let hb = result.outcome("heartbeat").unwrap();
        assert!(hb.detected, "heartbeat must catch the crash");
        let wd = result.outcome("watchdog").unwrap();
        assert!(
            !wd.detected,
            "the in-process watchdog dies with the process"
        );
    }
}
