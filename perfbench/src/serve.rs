//! The open-loop request generator for the serve workloads.
//!
//! Each generator thread follows a fixed arrival schedule (request `n` is
//! due at `phase + n × threads / rate`). Latency runs from the *scheduled*
//! arrival to completion, so a stall charges its delay to every request it
//! held up. Every sample is kept raw; quantiles are exact.

use std::time::{Duration, Instant};

use rand::Rng;
use wdog_base::rng::{derive_seed, seeded};
use wdog_target::{RequestFn, WorkloadTicket};

use crate::stats::{self, Summary};
use crate::trace::{Span, Tracer};

/// Fraction of requests that are writes (set/append/del on kvs, set on
/// minizk).
pub const WRITE_FRACTION: f64 = 0.5;

/// Key-space size handed to `load_surface`.
pub const KEYS: usize = 256;

/// One stage's shape.
#[derive(Debug, Clone, Copy)]
pub struct StageSpec {
    /// Offered arrival rate, requests/second.
    pub rate: u64,
    /// Scheduled length; the stage issues exactly `rate × duration`
    /// requests unless it overruns.
    pub duration: Duration,
    /// Generator threads.
    pub threads: usize,
    /// Ticket seed.
    pub seed: u64,
    /// Past `duration × (1 + overrun)` the generator stops issuing (a
    /// rung above the knee); the fixed-rate stage uses a large value so it
    /// always issues every request.
    pub overrun: f64,
}

/// Raw samples from one stage.
#[derive(Debug, Default)]
pub struct StageResult {
    /// Requests issued.
    pub attempted: u64,
    /// Requests that returned an error.
    pub failed: u64,
    /// First scheduled arrival to last completion, seconds.
    pub wall_s: f64,
    /// Scheduled arrival → completion, µs, per op class (`[reads,
    /// writes]`).
    pub latency_us: [Vec<f64>; 2],
    /// Around the `RequestFn` call, µs, per op class.
    pub service_us: [Vec<f64>; 2],
    /// How late the generator issued a request it was free to issue: issue
    /// time minus the later of its schedule and the previous completion on
    /// the same thread, µs.
    pub gen_lag_us: Vec<f64>,
}

impl StageResult {
    /// Completed requests per second.
    pub fn achieved(&self) -> f64 {
        self.attempted as f64 / self.wall_s.max(1e-9)
    }

    /// Exact latency summary over both op classes.
    pub fn latency(&self) -> Summary {
        Summary::of(self.latency_us.concat())
    }

    /// Exact service-time summary over both op classes.
    pub fn service(&self) -> Summary {
        Summary::of(self.service_us.concat())
    }

    /// The mean of the read and the write latency medians, µs. Reads and
    /// writes cost very different amounts on some targets (minizk: a
    /// local read vs a quorum commit), so with a 50/50 mix the pooled
    /// median falls in the gap between the two modes and jumps between
    /// them from run to run; each class median is stable.
    pub fn class_p50(&self) -> f64 {
        let per: Vec<f64> = self
            .latency_us
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| stats::median(v))
            .collect();
        stats::mean(&per)
    }

    /// Folds `other`'s samples and counts into `self`.
    pub fn merge(&mut self, other: StageResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s = self.wall_s.max(other.wall_s);
        for (class, (lat, svc)) in other
            .latency_us
            .into_iter()
            .zip(other.service_us)
            .enumerate()
        {
            self.latency_us[class].extend(lat);
            self.service_us[class].extend(svc);
        }
        self.gen_lag_us.extend(other.gen_lag_us);
    }

    /// p99 of the generator lag, µs.
    pub fn gen_lag_p99(&self) -> f64 {
        stats::quantile(&stats::sorted(self.gen_lag_us.clone()), 0.99)
    }
}

/// Generator lag above which a below-knee stage is invalid: the generator,
/// not the target, fell behind the schedule.
pub const MAX_GEN_LAG_P99_US: f64 = 1_000.0;

/// Drives `request` open-loop per `spec`. With tracing on, each request
/// records a `serve.request` span (scheduled arrival → completion) with a
/// `target.request_fn` child around the call, keyed by request index.
pub fn run_stage(
    request: &RequestFn,
    spec: &StageSpec,
    tracer: &Tracer,
    parent: u64,
) -> StageResult {
    let threads = spec.threads.max(1);
    let interval = Duration::from_secs_f64(threads as f64 / spec.rate.max(1) as f64);
    let cutoff = spec.duration.mul_f64(1.0 + spec.overrun);
    let per_thread =
        (spec.rate as f64 * spec.duration.as_secs_f64() / threads as f64).ceil() as usize;
    let start = Instant::now() + Duration::from_millis(2);
    let parts: Vec<(StageResult, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let request = request.clone();
                scope.spawn(move || {
                    let mut rng =
                        seeded(derive_seed(spec.seed, &format!("serve-{}-{t}", spec.rate)));
                    let phase = interval.mul_f64(t as f64 / threads as f64);
                    let mut r = StageResult {
                        gen_lag_us: Vec::with_capacity(per_thread),
                        ..StageResult::default()
                    };
                    let mut spans = Vec::new();
                    let mut prev_done = Duration::ZERO;
                    let mut last_done = Duration::ZERO;
                    for n in 0..per_thread {
                        let scheduled = phase + interval * n as u32;
                        wait_until(start, scheduled);
                        let issue = start.elapsed();
                        if issue > cutoff {
                            break;
                        }
                        let ticket = WorkloadTicket {
                            key: rng.gen_range(0..KEYS),
                            write: rng.gen_bool(WRITE_FRACTION),
                            roll: rng.gen_range(0..10u32),
                            value: rng.gen(),
                        };
                        let ok = request(&ticket).is_ok();
                        let done = start.elapsed();
                        r.attempted += 1;
                        if !ok {
                            r.failed += 1;
                        }
                        let us = |d: Duration| d.as_secs_f64() * 1e6;
                        let class = usize::from(ticket.write);
                        r.latency_us[class].push(us(done.saturating_sub(scheduled)));
                        r.service_us[class].push(us(done - issue));
                        r.gen_lag_us
                            .push(us(issue.saturating_sub(scheduled.max(prev_done))));
                        prev_done = done;
                        last_done = done;
                        if tracer.enabled() {
                            let id = tracer.ids(2);
                            let key = (n * threads + t) as u64;
                            let at = |d: Duration| tracer.ns(start + d);
                            spans.push(Span {
                                id,
                                parent,
                                name: "serve.request",
                                key,
                                start_ns: at(scheduled),
                                end_ns: at(done),
                            });
                            spans.push(Span {
                                id: id + 1,
                                parent: id,
                                name: "target.request_fn",
                                key,
                                start_ns: at(issue),
                                end_ns: at(done),
                            });
                        }
                    }
                    r.wall_s = last_done.as_secs_f64();
                    (r, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut out = StageResult::default();
    for (r, spans) in parts {
        out.merge(r);
        tracer.extend(spans);
    }
    out
}

/// Waits until `start + at`: sleeps while far off, yields near the
/// deadline, returns at once when already late.
fn wait_until(start: Instant, at: Duration) {
    loop {
        let now = start.elapsed();
        if now >= at {
            return;
        }
        let wait = at - now;
        if wait > Duration::from_micros(200) {
            std::thread::sleep(wait - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// One ladder rung's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate.
    pub offered: u64,
    /// Achieved rate.
    pub achieved: f64,
    /// Exact p99 latency, µs.
    pub p99_us: f64,
    /// Whether the generator kept its schedule (see [`MAX_GEN_LAG_P99_US`]).
    pub valid: bool,
}

impl Rung {
    /// Whether the target kept up: achieved ≥ 0.95 × offered and p99 under
    /// `p99_limit_us`.
    pub fn passes(&self, p99_limit_us: f64) -> bool {
        self.achieved >= 0.95 * self.offered as f64 && self.p99_us < p99_limit_us
    }
}

/// The capacity a ladder shows: the highest offered rate of the passing
/// prefix of valid rungs (rungs in ascending order; invalid rungs are
/// skipped, neither passing nor failing). `None` when the first valid rung
/// already fails.
pub fn capacity(rungs: &[Rung], p99_limit_us: f64) -> Option<u64> {
    let mut best = None;
    for r in rungs.iter().filter(|r| r.valid) {
        if !r.passes(p99_limit_us) {
            break;
        }
        best = Some(r.offered);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn rung(offered: u64, achieved: f64, p99_us: f64) -> Rung {
        Rung {
            offered,
            achieved,
            p99_us,
            valid: true,
        }
    }

    #[test]
    fn capacity_is_the_top_of_the_passing_prefix() {
        let rungs = [
            rung(1000, 1000.0, 100.0),
            rung(2000, 1990.0, 200.0),
            rung(3000, 2700.0, 300.0), // achieved < 0.95 × offered
            rung(4000, 4000.0, 100.0), // passes, but after a failure
        ];
        assert_eq!(capacity(&rungs, 1_000.0), Some(2000));
    }

    #[test]
    fn capacity_respects_the_latency_limit() {
        let rungs = [rung(1000, 1000.0, 100.0), rung(2000, 2000.0, 5_000.0)];
        assert_eq!(capacity(&rungs, 1_000.0), Some(1000));
        assert_eq!(capacity(&rungs, 10_000.0), Some(2000));
        assert_eq!(capacity(&[rung(1000, 10.0, 1.0)], 1_000.0), None);
    }

    #[test]
    fn invalid_rungs_neither_pass_nor_fail() {
        let mut bad = rung(2000, 10.0, 1e9);
        bad.valid = false;
        let rungs = [rung(1000, 1000.0, 1.0), bad, rung(3000, 3000.0, 1.0)];
        assert_eq!(capacity(&rungs, 1_000.0), Some(3000));
    }

    #[test]
    fn stage_issues_the_scheduled_count() {
        let request: RequestFn = Arc::new(|_| Ok(()));
        let spec = StageSpec {
            rate: 2_000,
            duration: Duration::from_millis(200),
            threads: 2,
            seed: 1,
            overrun: 10.0,
        };
        let tracer = Tracer::new(true);
        let r = run_stage(&request, &spec, &tracer, 0);
        assert_eq!(r.attempted, 400);
        assert_eq!(r.failed, 0);
        assert_eq!(r.latency().count, 400);
        assert_eq!(r.service().count, 400);
        assert!(!r.latency_us[0].is_empty() && !r.latency_us[1].is_empty());
        assert_eq!(tracer.spans().len(), 800);
    }
}
