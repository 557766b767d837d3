//! Workload drivers: boot, serve, climb the ladder, replay chaos, check
//! outputs, and turn the raw samples into named metrics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use faults::schedule::FaultSchedule;
use wdog_base::error::{BaseError, BaseResult};
use wdog_core::{DriverStats, WatchdogDriver};
use wdog_gen::plan::WatchdogPlan;
use wdog_gen::reduce::{reduce_program, ReductionConfig};
use wdog_target::{RequestFn, TargetInstance, WatchdogTarget, WdOptions};
use wdog_telemetry::{TelemetryRegistry, TelemetrySnapshot};

use crate::chaos::{self, Sweep};
use crate::layers;
use crate::serve::{self, Rung, StageResult, StageSpec};
use crate::stats::{self, Summary};
use crate::trace::{self, Tracer};
use crate::{share, Args, Outcome};

/// How one target is served.
#[derive(Debug)]
pub struct ServeConfig {
    /// Target name (`harness::select_targets`).
    pub target: &'static str,
    /// The fixed offered rate, below the knee.
    pub rate: u64,
    /// Ascending ladder rates for the capacity search, from the fixed rate.
    pub ladder: &'static [u64],
    /// p99 limit a ladder rung must stay under, µs.
    pub p99_limit_us: f64,
}

/// kvs: ~15–25 µs per request, knee 108–131k req/s on 2 cores. The fixed
/// rate is ~1/7 of the knee: at 32k req/s the median flipped between ~14
/// and ~22 µs from stage to stage on a 2-core host, at 16k it held ±5%.
pub const KVS: ServeConfig = ServeConfig {
    target: "kvs",
    rate: 16_000,
    ladder: &[
        16_000, 32_000, 48_000, 64_000, 80_000, 96_000, 112_000, 128_000, 144_000,
    ],
    p99_limit_us: 10_000.0,
};

/// minizk: ~200 µs per write, knee ~12.7k req/s on 2 cores. The fixed
/// rate is ~1/3 of the knee: at 6k req/s a burst of host steal time
/// pushed minizk past its knee (window medians of ~2 ms instead of
/// ~100 µs).
pub const MINIZK: ServeConfig = ServeConfig {
    target: "minizk",
    rate: 4_000,
    ladder: &[
        4_000, 6_000, 8_000, 9_000, 10_000, 11_000, 12_000, 13_000, 14_000,
    ],
    p99_limit_us: 20_000.0,
};

/// miniblock: knee ~17k req/s; served only in the chaos-sim traced run,
/// so the request-path layers have a reading on that workload too.
pub const MINIBLOCK: ServeConfig = ServeConfig {
    target: "miniblock",
    rate: 4_000,
    ladder: &[4_000, 8_000, 12_000, 14_000, 16_000, 18_000, 20_000],
    p99_limit_us: 20_000.0,
};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Windows the fixed-rate stage is measured in; `p50_us` is the median of
/// the window medians. On a 2-core host the request path drops into a
/// faster scheduling mode for a second at a time (window medians of 12 vs
/// 20 µs on kvs), so a median over windows is steadier than one pooled
/// median. A serve workload replays a share of its chaos schedules after
/// each window, which spreads the windows over the whole run.
const WINDOWS: usize = 15;

/// Generator threads: at most the core count, at most two.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn target_named(name: &str) -> Box<dyn WatchdogTarget> {
    harness::select_targets(name)
        .and_then(|mut v| v.pop())
        .expect("built-in target")
}

/// Harmful schedules per catalogue scenario for a run of `seconds`:
/// `per_s` per measured second, at least one.
fn per_scenario(seconds: u64, per_s: f64) -> u64 {
    ((seconds as f64 * per_s).round() as u64).max(1)
}

/// The stratified schedules of every target (see [`chaos::compose`]) as
/// `(target index, index within the target, schedule)`, dealt round-robin
/// across targets so a burst of host noise lands on every target alike.
fn compose_all(
    targets: &[Box<dyn WatchdogTarget>],
    seed: u64,
    per_scenario: u64,
) -> Vec<(usize, u64, FaultSchedule)> {
    let lists: Vec<Vec<FaultSchedule>> = targets
        .iter()
        .map(|t| chaos::compose(t.as_ref(), seed, per_scenario))
        .collect();
    let longest = lists.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| {
            lists
                .iter()
                .enumerate()
                .filter_map(move |(t, l)| l.get(i).map(|s| (t, i as u64, s.clone())))
        })
        .collect()
}

/// A booted, armed serve target.
struct Booted {
    inst: Box<dyn TargetInstance>,
    request: RequestFn,
    driver: WatchdogDriver,
    plan: WatchdogPlan,
}

impl Booted {
    fn shutdown(mut self) {
        self.driver.stop();
        self.inst.clear_faults();
        self.inst.teardown();
    }

    /// Reports filed after the first `since`, split into `(signal,
    /// other)`. Signal checkers watch load-coupled resource levels (queue
    /// depth, memory), so the repository's campaigns measure their reports
    /// but never score them (`harness::chaos::is_signal_checker`); the
    /// benchmark follows the same rule.
    fn reports_since(&self, since: usize) -> (u64, u64) {
        let reports = self.driver.log().reports();
        let (signal, other): (Vec<_>, Vec<_>) = reports
            .iter()
            .skip(since)
            .partition(|r| harness::chaos::is_signal_checker(r.checker.as_str()));
        (signal.len() as u64, other.len() as u64)
    }
}

/// Per-step boot timings, ms.
#[derive(Default)]
struct BootTimes {
    start: Vec<f64>,
    load_surface: Vec<f64>,
    build_watchdog: Vec<f64>,
    driver_start: Vec<f64>,
}

fn timed<T>(
    tracer: &Tracer,
    name: &'static str,
    parent: u64,
    key: u64,
    out: &mut Vec<f64>,
    f: impl FnOnce() -> T,
) -> T {
    let t = Instant::now();
    let v = tracer.span(name, parent, key, |_| f());
    out.push(t.elapsed().as_secs_f64() * 1e3);
    v
}

/// `start` + `load_surface` + `build_watchdog` + `driver.start`.
fn boot(
    target: &dyn WatchdogTarget,
    seed: u64,
    opts: &WdOptions,
    tracer: &Tracer,
    parent: u64,
    bt: &mut BootTimes,
) -> BaseResult<Booted> {
    let inst = timed(
        tracer,
        "wdog-target.start",
        parent,
        seed,
        &mut bt.start,
        || target.start(seed),
    )?;
    let request = timed(
        tracer,
        "wdog-target.load_surface",
        parent,
        seed,
        &mut bt.load_surface,
        || inst.load_surface(serve::KEYS),
    )
    .ok_or_else(|| BaseError::InvalidState(format!("{} has no load surface", target.name())))?;
    inst.set_hooks_enabled(true);
    let (mut driver, plan) = timed(
        tracer,
        "wdog-target.build_watchdog",
        parent,
        seed,
        &mut bt.build_watchdog,
        || inst.build_watchdog(opts),
    )?;
    timed(
        tracer,
        "wdog-core.driver.start",
        parent,
        seed,
        &mut bt.driver_start,
        || driver.start(),
    )?;
    Ok(Booted {
        inst,
        request,
        driver,
        plan,
    })
}

/// One open-loop stage against `b`, recorded as a span named `name` that
/// parents the stage's request spans.
fn stage(
    b: &Booted,
    rate: u64,
    duration: Duration,
    seed: u64,
    overrun: f64,
    tracer: &Tracer,
    name: &'static str,
) -> StageResult {
    let spec = StageSpec {
        rate,
        duration,
        threads: threads(),
        seed,
        overrun,
    };
    tracer.span(name, 0, rate, |id| {
        serve::run_stage(&b.request, &spec, tracer, id)
    })
}

/// The fixed-rate stage with the counters read around it.
struct FixedRun {
    /// Every window's samples.
    result: StageResult,
    /// [`StageResult::class_p50`] of each valid window.
    window_p50: Vec<f64>,
    /// Windows in which the generator fell behind its schedule.
    invalid_windows: usize,
    /// Time spent serving, s.
    serve_s: f64,
    /// First window start to last window end, s (includes the work done
    /// between windows, while the watchdog kept running).
    span_s: f64,
    stats: (DriverStats, DriverStats),
    io: ((u64, u64), (u64, u64)),
    snaps: Option<(TelemetrySnapshot, TelemetrySnapshot)>,
    signal_reports: u64,
    other_reports: u64,
}

/// Runs the fixed-rate stage as [`WINDOWS`] windows, calling `between(w)`
/// after window `w`. A window whose generator lag p99 exceeds
/// [`serve::MAX_GEN_LAG_P99_US`] measured the generator, not the target:
/// it is marked invalid and left out of `window_p50`.
fn fixed_stage(
    b: &Booted,
    cfg: &ServeConfig,
    args: &Args,
    tracer: &Tracer,
    registry: Option<&Arc<TelemetryRegistry>>,
    between: &mut dyn FnMut(usize),
) -> FixedRun {
    let snap = || registry.map(|r| r.snapshot());
    let (stats0, io0, snap0) = (
        b.driver.stats(),
        layers::io_calls(&b.inst.io_stats()),
        snap(),
    );
    let reports0 = b.driver.log().len();
    let began = Instant::now();
    let mut result = StageResult::default();
    let mut window_p50 = Vec::with_capacity(WINDOWS);
    let mut invalid_windows = 0;
    let mut serve_s = 0.0;
    for w in 0..WINDOWS {
        let t = Instant::now();
        let seed = args.seed.wrapping_add(w as u64);
        let r = stage(
            b,
            cfg.rate,
            share(args.seconds, 0.04),
            seed,
            10.0,
            tracer,
            "serve.stage_fixed",
        );
        serve_s += t.elapsed().as_secs_f64();
        if r.gen_lag_p99() <= serve::MAX_GEN_LAG_P99_US {
            window_p50.push(r.class_p50());
        } else {
            invalid_windows += 1;
            eprintln!(
                "[perfbench] {} window {w}: generator lag p99 {:.0} us, window invalid",
                cfg.target,
                r.gen_lag_p99()
            );
        }
        result.merge(r);
        between(w);
    }
    let (signal_reports, other_reports) = b.reports_since(reports0);
    FixedRun {
        result,
        window_p50,
        invalid_windows,
        serve_s,
        span_s: began.elapsed().as_secs_f64(),
        stats: (stats0, b.driver.stats()),
        io: (io0, layers::io_calls(&b.inst.io_stats())),
        snaps: snap0.zip(snap()),
        signal_reports,
        other_reports,
    }
}

/// The output checks of a serve run.
fn check_serve(b: &Booted, cfg: &ServeConfig, run: &FixedRun, out: &mut Outcome) {
    let r = &run.result;
    if run.invalid_windows * 2 > WINDOWS {
        out.problems.push(format!(
            "{}: the generator fell behind its schedule in {} of {WINDOWS} windows",
            cfg.target, run.invalid_windows
        ));
    }
    if r.failed > 0 {
        out.problems.push(format!(
            "{}: {} of {} requests failed at the fixed rate",
            cfg.target, r.failed, r.attempted
        ));
    }
    if run.other_reports > 0 {
        out.problems.push(format!(
            "{}: {} watchdog reports during the fault-free fixed-rate stage",
            cfg.target, run.other_reports
        ));
    }
    if b.driver.stats().log_evictions > 0 {
        out.problems.push(format!(
            "{}: the report log evicted reports; false alarms cannot be counted",
            cfg.target
        ));
    }
    if let Err(e) = (b.inst.api_probe())() {
        out.problems.push(format!(
            "{}: api_probe failed after the run: {e}",
            cfg.target
        ));
    }
    if !(b.inst.liveness_probe())() {
        out.problems.push(format!(
            "{}: liveness_probe failed after the run",
            cfg.target
        ));
    }
}

/// The capacity ladder: climb until the first valid rung that fails and
/// return the capacity (0 when even the first rung fails).
fn ladder(b: &Booted, cfg: &ServeConfig, args: &Args) -> f64 {
    let quiet = Tracer::new(false);
    let mut rungs = Vec::new();
    for &rate in cfg.ladder {
        std::thread::sleep(Duration::from_millis(100));
        let r = stage(
            b,
            rate,
            share(args.seconds, 0.05),
            args.seed ^ rate,
            0.5,
            &quiet,
            "serve.rung",
        );
        let rung = Rung {
            offered: rate,
            achieved: r.achieved(),
            p99_us: r.latency().p99,
            valid: r.gen_lag_p99() <= serve::MAX_GEN_LAG_P99_US,
        };
        eprintln!(
            "[perfbench] {} rung {rate}/s: achieved {:.0}/s p99 {:.0} us{}",
            cfg.target,
            rung.achieved,
            rung.p99_us,
            if rung.valid {
                ""
            } else {
                " (invalid: generator behind)"
            }
        );
        rungs.push(rung);
        if rung.valid && !rung.passes(cfg.p99_limit_us) {
            break;
        }
    }
    std::thread::sleep(Duration::from_millis(200));
    serve::capacity(&rungs, cfg.p99_limit_us).unwrap_or(0) as f64
}

/// Armed vs disarmed at the fixed rate, interleaved A B A B, without
/// spans, on a fresh instance with no telemetry attached: A has hooks on
/// and one freshly built watchdog running, B has hooks off and no driver.
/// The traced instance must be shut down first, so that its driver takes
/// no CPU from either leg. Returns the pooled armed stages, the untraced
/// reference for `trace.overhead_pct`.
fn watchdog_reference(
    target: &dyn WatchdogTarget,
    cfg: &ServeConfig,
    args: &Args,
    out: &mut Outcome,
) -> BaseResult<StageResult> {
    let mut inst = target.start(args.seed)?;
    let request = inst
        .load_surface(serve::KEYS)
        .ok_or_else(|| BaseError::InvalidState(format!("{} has no load surface", target.name())))?;
    let spec = |round: u64| StageSpec {
        rate: cfg.rate,
        duration: share(args.seconds, 0.075),
        threads: threads(),
        seed: args.seed ^ round,
        overrun: 10.0,
    };
    let quiet = Tracer::new(false);
    // Warm caches and lazy state, untimed.
    let warm = StageSpec {
        duration: Duration::from_millis(500),
        ..spec(0x5eed)
    };
    serve::run_stage(&request, &warm, &quiet, 0);
    let (mut armed, mut disarmed) = (StageResult::default(), StageResult::default());
    for round in 0..2u64 {
        let (mut d, _) = inst.build_watchdog(&target.default_options())?;
        d.start()?;
        inst.set_hooks_enabled(true);
        let a = serve::run_stage(&request, &spec(round), &quiet, 0);
        d.stop();
        inst.set_hooks_enabled(false);
        let z = serve::run_stage(&request, &spec(round), &quiet, 0);
        out.attempted += a.attempted + z.attempted;
        out.failed += a.failed + z.failed;
        armed.merge(a);
        disarmed.merge(z);
    }
    inst.clear_faults();
    inst.teardown();
    out.layers
        .put("watchdog.disarmed_p50_us", disarmed.class_p50(), "us");
    out.layers.put(
        "watchdog.cost_p50_us",
        armed.class_p50() - disarmed.class_p50(),
        "us",
    );
    out.layers.put(
        "watchdog.cost_p99_us",
        armed.latency().p99 - disarmed.latency().p99,
        "us",
    );
    Ok(armed)
}

/// Median wall ms of `f` over five calls, each inside a span `name`.
fn median_ms(tracer: &Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    let mut ms = Vec::new();
    for i in 0..5 {
        let t = Instant::now();
        tracer.span(name, 0, i, |_| f());
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&ms)
}

/// The per-layer rows of a traced serve run.
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    out: &mut Outcome,
    plan_checkers: usize,
    target: &dyn WatchdogTarget,
    run: &FixedRun,
    bt: &BootTimes,
    capacity: f64,
    reference: &StageResult,
    registry: &TelemetryRegistry,
    tracer: &Tracer,
) {
    let m = &mut out.layers;
    let med = stats::median;
    m.put("wdog-target.start_ms", med(&bt.start), "ms");
    m.put("wdog-target.load_surface_ms", med(&bt.load_surface), "ms");
    m.put(
        "wdog-target.build_watchdog_ms",
        med(&bt.build_watchdog),
        "ms",
    );
    m.put("wdog-target.driver_start_ms", med(&bt.driver_start), "ms");
    let fixed = &run.result;
    let lat = fixed.latency();
    let svc = fixed.service();
    m.put("request.samples", lat.count as f64, "count");
    m.put("request.p99_us", lat.p99, "us");
    m.put("request.tail_pct", lat.resolved_pct.unwrap_or(0.0), "%");
    m.put("request.tail_us", lat.resolved_value, "us");
    m.put("request.service_us_p50", svc.p50, "us");
    m.put("request.service_us_p99", svc.p99, "us");
    m.put("request.get_us_p50", med(&fixed.service_us[0]), "us");
    m.put("request.set_us_p50", med(&fixed.service_us[1]), "us");
    m.put("request.capacity_rps", capacity, "1/s");
    m.put("gen.lag_us_p99", fixed.gen_lag_p99(), "us");
    // Queue wait is the self time of each request span: latency minus
    // the RequestFn call.
    let spans = tracer.spans();
    let own = trace::self_times(&spans);
    let waits: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "serve.request")
        .map(|s| own[&s.id] as f64 / 1e3)
        .collect();
    m.put("request.queue_wait_us_p50", med(&waits), "us");
    // Traced (telemetry on the hooks, a span per request) against the
    // untraced armed legs of the reference.
    m.put(
        "trace.overhead_pct",
        (fixed.class_p50() / reference.class_p50().max(1e-9) - 1.0) * 100.0,
        "%",
    );
    m.put(
        "watchdog.signal_reports",
        run.signal_reports as f64,
        "count",
    );
    layers::driver_metrics(m, &run.stats.0, &run.stats.1, run.span_s);
    let reqs = fixed.attempted.max(1) as f64;
    let ((d0, n0), (d1, n1)) = run.io;
    m.put(
        "simio.disk_calls_per_req",
        d1.saturating_sub(d0) as f64 / reqs,
        "count",
    );
    m.put(
        "simio.net_calls_per_req",
        n1.saturating_sub(n0) as f64 / reqs,
        "count",
    );
    let (snap0, snap1) = run.snaps.as_ref().expect("traced run keeps snapshots");
    layers::hook_metrics(m, snap0, snap1, fixed.attempted);
    layers::checker_metrics(m, snap0, snap1, run.span_s);
    m.put(
        "wdog-telemetry.snapshot_ms",
        median_ms(tracer, "wdog-telemetry.snapshot", || {
            std::hint::black_box(registry.snapshot());
        }),
        "ms",
    );
    let ir = target.describe_ir();
    m.put(
        "wdog-gen.reduce_ms",
        median_ms(tracer, "wdog-gen.reduce_program", || {
            std::hint::black_box(reduce_program(&ir, &ReductionConfig::default()));
        }),
        "ms",
    );
    m.put("wdog-gen.plan_checkers", plan_checkers as f64, "count");
    layers::calibrate(m);
}

/// The serve half of a workload: boot ×[`SETUP_REPS`] (the last instance
/// serves), warm up, run the fixed-rate stage and check outputs. A traced
/// run adds the capacity ladder, the armed-vs-disarmed reference and every
/// request-path, boot, driver, checker, simio, telemetry and generator
/// layer row. Returns the fixed-rate run and the set-up times.
fn serve_profile(
    cfg: &ServeConfig,
    args: &Args,
    tracer: &Tracer,
    out: &mut Outcome,
    between: &mut dyn FnMut(usize),
) -> BaseResult<(FixedRun, Vec<f64>)> {
    let target = target_named(cfg.target);
    let registry = args.trace.then(TelemetryRegistry::shared);
    let mut opts = target.default_options();
    opts.telemetry = registry.clone();

    let mut bt = BootTimes::default();
    let mut setup_s = Vec::new();
    let mut booted = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let b = tracer.span("perfbench.setup", 0, rep as u64, |id| {
            boot(target.as_ref(), args.seed, &opts, tracer, id, &mut bt)
        })?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(prev) = booted.replace(b) {
            prev.shutdown();
        }
    }
    let b = booted.expect("at least one set-up");

    // Warm caches and lazy state at the fixed rate, untimed.
    stage(
        &b,
        cfg.rate,
        Duration::from_millis(500),
        args.seed ^ 0x5eed,
        10.0,
        &Tracer::new(false),
        "serve.warmup",
    );
    let run = fixed_stage(&b, cfg, args, tracer, registry.as_ref(), between);
    out.attempted += run.result.attempted;
    out.failed += run.result.failed;
    check_serve(&b, cfg, &run, out);
    let capacity = registry.as_ref().map(|_| ladder(&b, cfg, args));
    let plan_checkers = b.plan.checkers.len();
    b.shutdown();
    if let (Some(registry), Some(capacity)) = (&registry, capacity) {
        let reference = watchdog_reference(target.as_ref(), cfg, args, out)?;
        serve_layers(
            out,
            plan_checkers,
            target.as_ref(),
            &run,
            &bt,
            capacity,
            &reference,
            registry,
            tracer,
        );
    }
    Ok((run, setup_s))
}

/// Spot-checks a finished sweep and puts its detection metrics and chaos
/// layer rows.
fn chaos_finish(
    targets: &[Box<dyn WatchdogTarget>],
    mut sweep: Sweep,
    args: &Args,
    out: &mut Outcome,
    boot_ms: &[f64],
) -> Sweep {
    chaos::spot_check(targets, &mut sweep, args.seed);
    out.problems.append(&mut sweep.problems);
    out.attempted += sweep.replayed + sweep.errors;
    out.failed += sweep.errors;
    out.e2e.put("detected_frac", sweep.detected_frac(), "frac");
    out.e2e.put("detect_ms_mean", sweep.detect_ms_mean(), "ms");
    out.e2e
        .put("benign_clean_frac", sweep.benign_clean_frac(), "frac");
    let m = &mut out.layers;
    let replay_ms = Summary::of(
        sweep
            .replay_us
            .iter()
            .flatten()
            .map(|us| us / 1e3)
            .collect(),
    );
    let per = sweep.replayed.max(1) as f64;
    let snap = sweep.metrics.registry().snapshot();
    let calls = |name: &str| -> f64 {
        snap.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value as f64)
            .sum::<f64>()
    };
    m.put(
        "harness.chaos.replay_ms_p50",
        sweep.replay_us_p50() / 1e3,
        "ms",
    );
    m.put("harness.chaos.replay_ms_max", replay_ms.max, "ms");
    m.put("harness.chaos.boot_ms", stats::median(boot_ms), "ms");
    m.put(
        "harness.chaos.faults_per_schedule",
        sweep.faults as f64 / per,
        "count",
    );
    m.put(
        "harness.chaos.schedules_per_s",
        sweep.replayed as f64 / sweep.wall_s.max(1e-9),
        "1/s",
    );
    m.put("harness.chaos.false_pos", sweep.false_pos as f64, "count");
    m.put("harness.chaos.detect_ms_max", sweep.detect_ms_max(), "ms");
    m.put(
        "harness.chaos.detect_ms_pooled_mean",
        sweep.detect_ms_pooled_mean(),
        "ms",
    );
    m.put(
        "simio.disk_calls_per_schedule",
        calls(wdog_telemetry::chaos::SIM_IO_DISK_CALLS) / per,
        "count",
    );
    m.put(
        "simio.net_calls_per_schedule",
        calls(wdog_telemetry::chaos::SIM_IO_NET_CALLS) / per,
        "count",
    );
    m.put(
        "sim.virtual_s_per_wall_s",
        sweep.virtual_s / sweep.wall_s.max(1e-9),
        "ratio",
    );
    sweep
}

/// Wall ms of one warm sim boot and teardown per target.
fn sim_boots(
    targets: &[Box<dyn WatchdogTarget>],
    args: &Args,
    tracer: &Tracer,
    parent: u64,
) -> BaseResult<Vec<f64>> {
    let mut ms = Vec::new();
    for t in targets {
        let s = Instant::now();
        chaos::boot(t.as_ref(), args.seed, tracer, parent)?;
        ms.push(s.elapsed().as_secs_f64() * 1e3);
    }
    Ok(ms)
}

/// `kvs-serve` / `minizk-serve`: the serve target's fixed-rate windows,
/// with the same target's chaos schedules replayed in between.
pub fn serve_workload(cfg: &ServeConfig, args: &Args, tracer: &Tracer) -> BaseResult<Outcome> {
    let mut out = Outcome::default();
    let targets = vec![target_named(cfg.target)];
    let schedules = compose_all(&targets, args.seed, per_scenario(args.seconds, 0.4));
    let chunk = schedules.len().div_ceil(WINDOWS);
    let mut sweep = Sweep::new(targets.len());
    let (run, setup_s) = serve_profile(cfg, args, tracer, &mut out, &mut |w| {
        let batch = schedules.chunks(chunk).nth(w).unwrap_or_default();
        sweep.replay(&targets, batch, args.seed, tracer);
    })?;
    let boot_ms = if args.trace {
        sim_boots(&targets, args, tracer, 0)?
    } else {
        Vec::new()
    };
    chaos_finish(&targets, sweep, args, &mut out, &boot_ms);
    out.e2e.put("setup_s", stats::median(&setup_s), "s");
    out.e2e.put("p50_us", stats::median(&run.window_p50), "us");
    let fixed = &run.result;
    let lat = fixed.latency();
    eprintln!(
        "[perfbench] {} fixed {}/s: {} requests in {:.1} s, read p50 {:.1} us, write p50 {:.1} us, p99 {:.1} us, p{} {:.1} us, gen lag p99 {:.1} us",
        cfg.target,
        cfg.rate,
        lat.count,
        run.serve_s,
        stats::median(&fixed.latency_us[0]),
        stats::median(&fixed.latency_us[1]),
        lat.p99,
        lat.resolved_pct.unwrap_or(0.0),
        lat.resolved_value,
        fixed.gen_lag_p99()
    );
    Ok(out)
}

/// `chaos-sim`: every target's chaos schedules, no client load. The traced
/// run adds a miniblock serve profile for the request-path layer rows.
pub fn chaos_workload(args: &Args, tracer: &Tracer) -> BaseResult<Outcome> {
    let mut out = Outcome::default();
    let targets = harness::select_targets("all").expect("built-in targets");
    let per = per_scenario(args.seconds, 0.25);
    // One set-up before each of WINDOWS chunks of replays, so the set-up
    // samples spread over the run like the serve windows.
    let mut setup_s = Vec::new();
    let mut boot_ms = Vec::new();
    let mut schedules = Vec::new();
    let mut sweep = Sweep::new(targets.len());
    for w in 0..WINDOWS {
        let t = Instant::now();
        tracer.span("perfbench.setup", 0, w as u64, |id| -> BaseResult<()> {
            schedules = compose_all(&targets, args.seed, per);
            boot_ms.extend(sim_boots(&targets, args, tracer, id)?);
            Ok(())
        })?;
        setup_s.push(t.elapsed().as_secs_f64());
        let chunk = schedules.len().div_ceil(WINDOWS);
        let batch = schedules.chunks(chunk).nth(w).unwrap_or_default();
        sweep.replay(&targets, batch, args.seed, tracer);
    }
    let sweep = chaos_finish(&targets, sweep, args, &mut out, &boot_ms);
    out.e2e.put("setup_s", stats::median(&setup_s), "s");
    // The unit of work here is a detection. Replay cost is not the
    // end-to-end latency: on a shared 2-core host its wall time moved by
    // a third between runs, so it stays in the per-layer rows.
    out.e2e.put("p50_us", sweep.detect_ms_p50() * 1e3, "us");
    eprintln!(
        "[perfbench] chaos-sim: {} schedules, {}/{} harmful faults detected, {} benign ({} fired), detect mean {:.1} ms",
        sweep.replayed,
        sweep.detected,
        sweep.harmful,
        sweep.benign,
        sweep.false_pos,
        sweep.detect_ms_mean()
    );
    if args.trace {
        serve_profile(&MINIBLOCK, args, tracer, &mut out, &mut |_| {})?;
    }
    Ok(out)
}
