//! The timeout-based crash failure detector.
//!
//! "A monitored process is assumed to be working as long as it does
//! something periodically based on the contract with the external detector,
//! e.g., replies to pings, sends heartbeat messages, or maintains sessions.
//! This works fine for fail-stop failures, but it cannot detect complex
//! gray failures" (§1). [`HeartbeatDetector`] samples a liveness contract —
//! a closure answering "did the process beat?" — on its own thread and
//! suspects the target after `suspect_after` without a beat.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use wdog_base::clock::SharedClock;

use crate::api::{Detector, Poller, Verdict};

/// The liveness contract: returns `true` if the target beat this round.
pub type BeatFn = Arc<dyn Fn() -> bool + Send + Sync>;

/// A crash failure detector polling a liveness contract.
pub struct HeartbeatDetector {
    clock: SharedClock,
    suspect_after: Duration,
    last_beat: Arc<Mutex<Option<Duration>>>,
    poller: Poller,
}

impl HeartbeatDetector {
    /// Starts polling `beat` every `interval`; suspects after
    /// `suspect_after` without a successful beat.
    pub fn start(
        clock: SharedClock,
        interval: Duration,
        suspect_after: Duration,
        beat: BeatFn,
    ) -> Self {
        let last_beat = Arc::new(Mutex::new(Some(clock.now())));
        let poller = {
            let tick = Arc::clone(&clock);
            let last = Arc::clone(&last_beat);
            Poller::spawn(&clock, "heartbeat-fd", interval, move || {
                if beat() {
                    *last.lock() = Some(tick.now());
                }
            })
        };
        Self {
            clock,
            suspect_after,
            last_beat,
            poller,
        }
    }
}

impl Detector for HeartbeatDetector {
    fn name(&self) -> &str {
        "heartbeat"
    }

    fn verdict(&self) -> Verdict {
        let last = *self.last_beat.lock();
        match last {
            Some(t) if self.clock.now().saturating_sub(t) <= self.suspect_after => Verdict::Healthy,
            _ => Verdict::Suspected {
                reason: format!("no heartbeat within {} ms", self.suspect_after.as_millis()),
            },
        }
    }

    fn request_stop(&self) {
        self.poller.request_stop();
    }

    fn stop(&mut self) {
        self.poller.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use wdog_base::clock::RealClock;

    #[test]
    fn beating_target_stays_healthy() {
        let clock = RealClock::shared();
        let d = HeartbeatDetector::start(
            clock,
            Duration::from_millis(10),
            Duration::from_millis(200),
            Arc::new(|| true),
        );
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(d.verdict(), Verdict::Healthy);
    }

    #[test]
    fn silent_target_is_suspected() {
        let clock = RealClock::shared();
        let alive = Arc::new(AtomicBool::new(true));
        let a2 = Arc::clone(&alive);
        let d = HeartbeatDetector::start(
            clock,
            Duration::from_millis(10),
            Duration::from_millis(100),
            Arc::new(move || a2.load(Ordering::Relaxed)),
        );
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(d.verdict(), Verdict::Healthy);
        alive.store(false, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(300));
        assert!(d.verdict().is_suspected());
    }

    #[test]
    fn recovery_clears_suspicion() {
        let clock = RealClock::shared();
        let alive = Arc::new(AtomicBool::new(false));
        let a2 = Arc::clone(&alive);
        let d = HeartbeatDetector::start(
            clock,
            Duration::from_millis(10),
            Duration::from_millis(100),
            Arc::new(move || a2.load(Ordering::Relaxed)),
        );
        std::thread::sleep(Duration::from_millis(250));
        assert!(d.verdict().is_suspected());
        alive.store(true, Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(d.verdict(), Verdict::Healthy);
    }
}
