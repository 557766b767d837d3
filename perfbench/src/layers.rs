//! Per-layer numbers: calibration loops over the `wdog-core` hook and
//! context API, and readers over counters the program already keeps
//! (`DriverStats`, telemetry snapshots, simulated-I/O tables).

use std::hint::black_box;
use std::time::Instant;

use wdog_base::clock::RealClock;
use wdog_core::{ContextTable, CtxValue, DriverStats, Hooks, TraceRecorder};
use wdog_telemetry::{checker_family, TelemetryRegistry, TelemetrySnapshot};

use crate::Metrics;

/// Checker families reported per layer. The `inferred` family is empty
/// unless mined specs are supplied, which no default watchdog does.
const FAMILIES: [&str; 3] = ["mimic", "probe", "signal"];

/// Median ns per call of `f` over `rounds` timed batches of `batch` calls.
fn ns_per_call(rounds: usize, batch: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut per = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let t = Instant::now();
        for i in 0..batch {
            f(r as u64 * batch + i);
        }
        per.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    crate::stats::median(&per)
}

/// Hook-fire and context calibration loops (`wdog-core.hooks`,
/// `wdog-core.context`).
pub fn calibrate(m: &mut Metrics) {
    const ROUNDS: usize = 15;
    const BATCH: u64 = 20_000;
    let table = ContextTable::new(RealClock::shared());
    let hooks = Hooks::new(table.clone());
    let site = hooks.site("perfbench.site");
    let fire = |i: u64| {
        if let Some(mut g) = site.fire() {
            g.field("path", "wal/segment-7").field("len", black_box(i));
        }
    };
    hooks.set_enabled(false);
    m.put(
        "wdog-core.hooks.fire_disarmed_ns",
        ns_per_call(ROUNDS, BATCH, fire),
        "ns",
    );
    hooks.set_enabled(true);
    m.put(
        "wdog-core.hooks.fire_armed_ns",
        ns_per_call(ROUNDS, BATCH, fire),
        "ns",
    );
    hooks.attach_telemetry(TelemetryRegistry::shared());
    m.put(
        "wdog-core.hooks.fire_telemetry_ns",
        ns_per_call(ROUNDS, BATCH, fire),
        "ns",
    );
    hooks.attach_trace(TraceRecorder::new(RealClock::shared()));
    m.put(
        "wdog-core.hooks.fire_trace_ns",
        ns_per_call(ROUNDS, BATCH, fire),
        "ns",
    );
    hooks.detach_trace();

    let slot = table.register("perfbench.ctx");
    let publish = |i: u64| {
        slot.publish(vec![
            ("path".to_owned(), CtxValue::Str("wal/segment-7".to_owned())),
            ("len".to_owned(), CtxValue::U64(i)),
        ])
    };
    m.put(
        "wdog-core.context.publish_ns",
        ns_per_call(ROUNDS, BATCH, publish),
        "ns",
    );
    let reader = table.reader();
    let read = |_| {
        black_box(reader.read("perfbench.ctx"));
    };
    m.put(
        "wdog-core.context.read_ns",
        ns_per_call(ROUNDS, BATCH, read),
        "ns",
    );
}

/// Sum of a counter family over every label satisfying `keep`, as the
/// change from `before` to `after`.
fn counter_delta(
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
    name: &str,
    keep: impl Fn(&str) -> bool,
) -> f64 {
    let sum = |snap: &TelemetrySnapshot| -> u64 {
        snap.counters
            .iter()
            .filter(|c| c.name == name && keep(&c.label))
            .map(|c| c.value)
            .sum()
    };
    sum(after).saturating_sub(sum(before)) as f64
}

/// `(count, sum)` of a histogram family over every label satisfying
/// `keep`, as the change from `before` to `after`, each clamped at 0.
///
/// A snapshot carries no histogram sum, only `mean = sum / count` in
/// integer division, so each label's sum is read as `mean × count`: it
/// falls short of the true sum by less than one unit per sample, and a
/// label whose samples average under one unit adds nothing.
fn hist_delta(
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
    name: &str,
    keep: impl Fn(&str) -> bool,
) -> (f64, f64) {
    let sum = |snap: &TelemetrySnapshot| -> (f64, f64) {
        snap.histograms
            .iter()
            .filter(|h| h.name == name && keep(&h.label))
            .fold((0.0, 0.0), |(n, s), h| {
                let c = h.summary.count as f64;
                (n + c, s + h.summary.mean as f64 * c)
            })
    };
    let ((n0, s0), (n1, s1)) = (sum(before), sum(after));
    ((n1 - n0).max(0.0), (s1 - s0).max(0.0))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Hook fires per request and the sampled fire cost between two
/// snapshots of a traced run's registry.
pub fn hook_metrics(
    m: &mut Metrics,
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
    requests: u64,
) {
    let fires = counter_delta(before, after, "hook_fires_total", |_| true);
    m.put(
        "wdog-core.hooks.fires_per_req",
        ratio(fires, requests as f64),
        "count",
    );
    let (n, sum) = hist_delta(before, after, "hook_fire_ns", |_| true);
    m.put("wdog-core.hooks.fire_ns_mean", ratio(sum, n), "ns");
}

/// Checker-family rows between two snapshots `seconds` apart: checker
/// wall time per second of the stage, runs per second, and the failing
/// share of finished runs. `checker_wall_ms` records whole milliseconds
/// and [`hist_delta`] reads sums as `floor(mean) × runs` per checker, so
/// busy time is a lower bound and a checker that averages under 1 ms per
/// run adds nothing to it.
pub fn checker_metrics(
    m: &mut Metrics,
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
    seconds: f64,
) {
    for fam in FAMILIES {
        let is = |label: &str| checker_family(label) == fam;
        let (runs, wall) = hist_delta(before, after, "checker_wall_ms", is);
        let pass = counter_delta(before, after, "checker_pass_total", is);
        let fail = counter_delta(before, after, "checker_fail_total", is);
        m.put(
            &format!("wdog-checkers.{fam}.busy_ms_per_s"),
            ratio(wall, seconds),
            "ms/s",
        );
        m.put(
            &format!("wdog-checkers.{fam}.runs_per_s"),
            ratio(runs, seconds),
            "1/s",
        );
        m.put(
            &format!("wdog-checkers.{fam}.fail_frac"),
            ratio(fail, pass + fail),
            "frac",
        );
    }
}

/// Driver rows from two `DriverStats` readings `seconds` apart.
pub fn driver_metrics(m: &mut Metrics, before: &DriverStats, after: &DriverStats, seconds: f64) {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    m.put(
        "wdog-core.driver.rounds_per_s",
        ratio(d(after.rounds, before.rounds), seconds),
        "1/s",
    );
    m.put(
        "wdog-core.driver.runs_per_s",
        ratio(d(after.runs, before.runs), seconds),
        "1/s",
    );
    m.put(
        "wdog-core.driver.not_ready_frac",
        ratio(
            d(after.not_ready, before.not_ready),
            d(after.runs, before.runs),
        ),
        "frac",
    );
    m.put(
        "wdog-core.driver.timeouts",
        d(after.timeouts, before.timeouts),
        "count",
    );
    m.put(
        "wdog-core.driver.reports_dropped",
        d(after.reports_dropped, before.reports_dropped),
        "count",
    );
}

/// Total simulated disk and network calls in an `io_stats` reading
/// (zeros for an instance on no simulated I/O).
pub fn io_calls(stats: &Option<(simio::disk::DiskOpStats, simio::net::NetOpStats)>) -> (u64, u64) {
    stats.as_ref().map_or((0, 0), |(disk, net)| {
        (
            disk.rows().iter().map(|(_, s)| s.calls).sum(),
            net.rows().iter().map(|(_, s)| s.calls).sum(),
        )
    })
}
