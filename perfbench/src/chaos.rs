//! Sim-chaos replays: seeded fault schedules replayed through
//! `harness::chaos::run_schedule` on the discrete-event `SimClock`, with a
//! fixed schedule count per target and no shrinking.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use faults::schedule::{compose_schedule, ComposeOptions, FaultSchedule};
use harness::chaos::{
    self, ChaosOptions, ScheduleOutcome, CLEAN, DETECTED, MISSED, WRONG_COMPONENT,
};
use simio::SimClock;
use wdog_base::clock::Clock;
use wdog_base::error::BaseResult;
use wdog_target::WatchdogTarget;
use wdog_telemetry::{ChaosMetrics, TelemetryRegistry, TelemetrySnapshot};

use crate::stats;
use crate::trace::Tracer;

/// One replay's facts: verdicts plus detection latencies, all in virtual
/// time and therefore identical on every replay of the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// The scored outcome.
    pub outcome: ScheduleOutcome,
    /// `(fault kind, virtual ms)` from each detected fault's onset to its
    /// first blaming report, from the replay's own `chaos_detection_ms`
    /// histogram.
    pub detect_ms: Vec<(String, f64)>,
}

/// Everything a sweep measured.
#[derive(Debug)]
pub struct Sweep {
    /// Every replay's counters summed (driver, checker, chaos and sim-I/O
    /// families).
    pub metrics: ChaosMetrics,
    /// Wall time per replay, µs, one list per target.
    pub replay_us: Vec<Vec<f64>>,
    /// Wall time spent replaying, s.
    pub wall_s: f64,
    /// Schedules replayed without error.
    pub replayed: u64,
    /// Replays that returned `Err`.
    pub errors: u64,
    /// Harmful faults.
    pub harmful: u64,
    /// Harmful faults detected.
    pub detected: u64,
    /// Benign schedules.
    pub benign: u64,
    /// Benign schedules that fired a checker.
    pub false_pos: u64,
    /// Faults in every schedule.
    pub faults: u64,
    /// Detection latencies, virtual ms, per `target/fault-kind`.
    pub detect_ms: BTreeMap<String, Vec<f64>>,
    /// Virtual seconds simulated.
    pub virtual_s: f64,
    /// Problems the output checks found.
    pub problems: Vec<String>,
    /// Replays kept for the spot re-replay check: `(target index,
    /// schedule, first result)`.
    pub spot: Vec<(usize, FaultSchedule, Replay)>,
}

/// The campaign options every replay uses.
fn options(seed: u64, metrics: ChaosMetrics) -> ChaosOptions {
    ChaosOptions {
        seed,
        sim: true,
        metrics: Some(metrics),
        ..ChaosOptions::default()
    }
}

/// Detection latencies recorded in one replay's registry. A kind detected
/// once or twice in a schedule is exact (from min/max); beyond that the
/// rest share the histogram mean.
fn detections(snap: &TelemetrySnapshot) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for h in snap
        .histograms
        .iter()
        .filter(|h| h.name == wdog_telemetry::chaos::CHAOS_DETECTION_MS)
    {
        let s = h.summary;
        let mut push = |v: f64| out.push((h.label.clone(), v));
        match s.count {
            0 => {}
            1 => push(s.max as f64),
            n => {
                push(s.min as f64);
                push(s.max as f64);
                let rest =
                    (s.mean as f64 * n as f64 - s.min as f64 - s.max as f64) / (n - 2) as f64;
                for _ in 2..n {
                    push(rest);
                }
            }
        }
    }
    out
}

/// Replays one schedule with a fresh metrics registry and adds its
/// counters into `merged`.
pub fn replay(
    target: &dyn WatchdogTarget,
    schedule: &FaultSchedule,
    seed: u64,
    merged: Option<&ChaosMetrics>,
) -> BaseResult<Replay> {
    let metrics = ChaosMetrics::new(TelemetryRegistry::shared());
    let outcome = chaos::run_schedule(target, schedule, &options(seed, metrics.clone()))?;
    let snap = metrics.registry().snapshot();
    if let Some(m) = merged {
        merge(m.registry(), &snap);
    }
    Ok(Replay {
        outcome,
        detect_ms: detections(&snap),
    })
}

/// Adds a snapshot's counters into `into`.
fn merge(into: &TelemetryRegistry, snap: &TelemetrySnapshot) {
    for c in &snap.counters {
        into.counter(&c.name, &c.label).add(c.value);
    }
}

/// The stratified schedules of `seed` for `target`: `per_scenario`
/// harmful schedules for every catalogue scenario (by first fault) plus a
/// third as many benign ones, each taken in index order from the seed's
/// `compose_schedule` sequence. An even split keeps the seed's draw of
/// fault kinds from moving the detection figures; only onsets, durations,
/// severities and second faults vary with the seed.
pub fn compose(target: &dyn WatchdogTarget, seed: u64, per_scenario: u64) -> Vec<FaultSchedule> {
    let pool = chaos::chaos_pool(target);
    // Harmful schedules draw their faults from the gray scenarios only.
    let scenarios = pool.iter().filter(|s| s.kind.is_gray()).count();
    let benign_quota = (per_scenario * scenarios as u64).div_ceil(3);
    let mut taken: BTreeMap<String, u64> = BTreeMap::new();
    let mut benign = 0;
    let mut out = Vec::new();
    // Each scenario is drawn first with probability 1/scenarios, so the
    // quotas fill long before this cap.
    for i in 0..100_000 {
        let Some(s) = compose_schedule(&pool, seed, i, &ComposeOptions::default()) else {
            continue;
        };
        let keep = if s.benign {
            benign += 1;
            benign <= benign_quota
        } else {
            let first = taken.entry(s.faults[0].scenario.clone()).or_default();
            *first += 1;
            *first <= per_scenario
        };
        if keep {
            out.push(s);
        }
        if benign >= benign_quota
            && taken.len() == scenarios
            && taken.values().all(|&k| k >= per_scenario)
        {
            break;
        }
    }
    out
}

/// One warm boot and teardown on a fresh `SimClock`: `start_on`, build and
/// start the campaign watchdog, then the same stop sequence a replay uses.
pub fn boot(
    target: &dyn WatchdogTarget,
    seed: u64,
    tracer: &Tracer,
    parent: u64,
) -> BaseResult<()> {
    let sim = Arc::new(SimClock::new());
    let guard = sim.actor("perfbench-boot").adopt();
    let mut inst = tracer.span("wdog-target.start_on", parent, seed, |_| {
        target.start_on(seed, sim.clone())
    })?;
    let wd = ChaosOptions::default().wd;
    let (mut driver, _plan) = tracer.span("wdog-target.build_watchdog", parent, seed, |_| {
        inst.build_watchdog(&wd)
    })?;
    driver.start()?;
    tracer.span("wdog-target.teardown", parent, seed, |_| {
        inst.clear_faults();
        inst.request_stop();
        driver.request_stop();
        guard.retire();
        inst.stop_workload();
        driver.stop();
        inst.teardown();
    });
    Ok(())
}

impl Sweep {
    /// An empty sweep over `targets` targets.
    pub fn new(targets: usize) -> Self {
        Self {
            metrics: ChaosMetrics::new(TelemetryRegistry::shared()),
            replay_us: vec![Vec::new(); targets],
            wall_s: 0.0,
            replayed: 0,
            errors: 0,
            harmful: 0,
            detected: 0,
            benign: 0,
            false_pos: 0,
            faults: 0,
            detect_ms: BTreeMap::new(),
            virtual_s: 0.0,
            problems: Vec::new(),
            spot: Vec::new(),
        }
    }

    /// Replays every `(target index, index, schedule)` of `batch` in
    /// order, recording one `chaos.replay` span per schedule keyed by its
    /// index within the target's list.
    pub fn replay(
        &mut self,
        targets: &[Box<dyn WatchdogTarget>],
        batch: &[(usize, u64, FaultSchedule)],
        seed: u64,
        tracer: &Tracer,
    ) {
        for (t, index, schedule) in batch {
            let target = targets[*t].as_ref();
            let t0 = Instant::now();
            let result = tracer.span("chaos.replay", 0, *index, |_| {
                replay(target, schedule, seed, Some(&self.metrics))
            });
            let wall = t0.elapsed().as_secs_f64();
            self.wall_s += wall;
            self.replay_us[*t].push(wall * 1e6);
            let r = match result {
                Ok(r) => r,
                Err(e) => {
                    self.errors += 1;
                    self.problems.push(format!(
                        "{} {}: replay failed: {e}",
                        target.name(),
                        schedule.id
                    ));
                    continue;
                }
            };
            self.replayed += 1;
            self.faults += schedule.faults.len() as u64;
            let opts = ChaosOptions::default();
            self.virtual_s += (opts.warmup + schedule.horizon + opts.grace).as_secs_f64();
            check_verdicts(target.name(), schedule, &r.outcome, &mut self.problems);
            if schedule.benign {
                self.benign += 1;
                if r.outcome.verdict != CLEAN {
                    self.false_pos += 1;
                }
            } else {
                self.harmful += r.outcome.verdicts.len() as u64;
                self.detected += r
                    .outcome
                    .verdicts
                    .iter()
                    .filter(|v| v.verdict == DETECTED)
                    .count() as u64;
            }
            for (kind, ms) in &r.detect_ms {
                self.detect_ms
                    .entry(format!("{}/{kind}", target.name()))
                    .or_default()
                    .push(*ms);
            }
            // Spot-check the first harmful and the first benign schedule
            // of every target.
            if !self
                .spot
                .iter()
                .any(|(st, sc, _)| st == t && sc.benign == schedule.benign)
            {
                self.spot.push((*t, schedule.clone(), r));
            }
        }
    }
}

/// Every harmful fault must carry a harmful verdict and every benign
/// schedule a benign one. (A benign schedule that fires is a measured
/// false positive, not an output failure.)
fn check_verdicts(
    target: &str,
    schedule: &FaultSchedule,
    o: &ScheduleOutcome,
    problems: &mut Vec<String>,
) {
    if o.verdicts.len() != schedule.faults.len() {
        problems.push(format!(
            "{target} {}: {} verdicts for {} faults",
            schedule.id,
            o.verdicts.len(),
            schedule.faults.len()
        ));
    }
    let allowed: &[&str] = if schedule.benign {
        &[CLEAN, chaos::FALSE_POSITIVE]
    } else {
        &[DETECTED, MISSED, WRONG_COMPONENT]
    };
    for v in &o.verdicts {
        if !allowed.contains(&v.verdict.as_str()) {
            problems.push(format!(
                "{target} {}: fault {} has verdict {:?}",
                schedule.id, v.fault, v.verdict
            ));
        }
    }
}

/// Re-replays the spot-check schedules and reports any whose verdicts or
/// detection latencies differ from the first replay.
pub fn spot_check(targets: &[Box<dyn WatchdogTarget>], sweep: &mut Sweep, seed: u64) {
    for (t, schedule, first) in std::mem::take(&mut sweep.spot) {
        let target = targets[t].as_ref();
        match replay(target, &schedule, seed, None) {
            Ok(again) if again == first => {}
            Ok(_) => sweep.problems.push(format!(
                "{} {}: re-replay diverged",
                target.name(),
                schedule.id
            )),
            Err(e) => sweep.problems.push(format!(
                "{} {}: re-replay failed: {e}",
                target.name(),
                schedule.id
            )),
        }
    }
}

impl Sweep {
    /// Share of benign schedules that stayed silent.
    pub fn benign_clean_frac(&self) -> f64 {
        (self.benign - self.false_pos) as f64 / self.benign.max(1) as f64
    }

    /// Detected share of harmful faults.
    pub fn detected_frac(&self) -> f64 {
        self.detected as f64 / self.harmful.max(1) as f64
    }

    /// Mean detection latency, virtual ms: the mean over `target/fault
    /// kind` of each kind's mean. Each kind's latency is set by the
    /// checker that catches it, so weighting kinds equally keeps the
    /// seed's draw of kinds from moving the figure.
    pub fn detect_ms_mean(&self) -> f64 {
        let per: Vec<f64> = self.detect_ms.values().map(|v| stats::mean(v)).collect();
        stats::mean(&per)
    }

    /// Median detection latency, virtual ms: the mean over `target/fault
    /// kind` of each kind's median, for the same reason as
    /// [`Sweep::detect_ms_mean`].
    pub fn detect_ms_p50(&self) -> f64 {
        let per: Vec<f64> = self.detect_ms.values().map(|v| stats::median(v)).collect();
        stats::mean(&per)
    }

    /// Mean over every detection, virtual ms.
    pub fn detect_ms_pooled_mean(&self) -> f64 {
        stats::mean(
            &self
                .detect_ms
                .values()
                .flatten()
                .copied()
                .collect::<Vec<_>>(),
        )
    }

    /// Largest detection latency, virtual ms.
    pub fn detect_ms_max(&self) -> f64 {
        self.detect_ms
            .values()
            .flatten()
            .copied()
            .fold(0.0, f64::max)
    }

    /// The mean over targets of each target's median replay wall time, µs.
    /// Replay cost differs threefold between targets, so a pooled median
    /// would jump between targets with the schedule mix.
    pub fn replay_us_p50(&self) -> f64 {
        let per: Vec<f64> = self
            .replay_us
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| stats::median(v))
            .collect();
        stats::mean(&per)
    }
}
