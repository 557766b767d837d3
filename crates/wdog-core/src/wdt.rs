//! A classic multi-stage watchdog timer (paper §2, the hardware heritage).
//!
//! "WDTs use internal counters that start from an initial value and count
//! down to zero. When the counter reaches zero, the watchdog resets the
//! processor. In a multi-stage watchdog, it will initiate a series of
//! actions upon timeout, such as generating an interrupt, activating
//! fail-safe states, logging debug information and resetting the
//! processor. To prevent a reset, the software must keep 'kicking' the
//! watchdog."
//!
//! [`WatchdogTimer`] is that primitive, software-shaped: the monitored
//! program calls [`WatchdogTimer::kick`] from its main loop (ideally after
//! its own sanity checks, as §2 recommends); if kicks stop, escalation
//! stages fire in order at multiples of the timeout. A kick at any point
//! resets the counter *and* the stage ladder.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use wdog_base::clock::SharedClock;

/// One escalation stage: fired when the timer expires `index + 1` times
/// without a kick.
pub type Stage = Box<dyn FnMut() + Send>;

/// Named counters for a [`WatchdogTimer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WdtCounters {
    /// Kicks received from the monitored program.
    pub kicks: u64,
    /// Escalation stages fired.
    pub expiries: u64,
}

struct TimerInner {
    last_kick: AtomicU64,
    kicks: AtomicU64,
    expiries: AtomicU64,
    running: AtomicBool,
}

/// A multi-stage countdown watchdog timer.
pub struct WatchdogTimer {
    inner: Arc<TimerInner>,
    thread: Option<wdog_base::Spawned<()>>,
}

impl WatchdogTimer {
    /// Starts a timer with the given timeout and escalation stages.
    ///
    /// Stage `k` fires once when the time since the last kick crosses
    /// `(k + 1) * timeout`. A kick resets the ladder; stages can then fire
    /// again on the next expiry episode. The final stage conventionally
    /// performs the reset/abort.
    pub fn start(clock: SharedClock, timeout: Duration, stages: Vec<Stage>) -> Self {
        let inner = Arc::new(TimerInner {
            last_kick: AtomicU64::new(clock.now().as_millis() as u64),
            kicks: AtomicU64::new(0),
            expiries: AtomicU64::new(0),
            running: AtomicBool::new(true),
        });
        let thread_inner = Arc::clone(&inner);
        let stages = Mutex::new(stages);
        let timeout_ms = timeout.as_millis().max(1) as u64;
        let loop_clock = Arc::clone(&clock);
        let thread = wdog_base::clock::spawn_on(&clock, "wdt", move || {
            let clock = loop_clock;
            let mut fired: usize = 0;
            let mut last_seen_kick = thread_inner.last_kick.load(Ordering::Relaxed);
            while thread_inner.running.load(Ordering::Relaxed) {
                clock.sleep(Duration::from_millis((timeout_ms / 4).max(1)));
                let kick = thread_inner.last_kick.load(Ordering::Relaxed);
                if kick != last_seen_kick {
                    // Kicked since we last looked: reset the ladder.
                    last_seen_kick = kick;
                    fired = 0;
                    continue;
                }
                let now = clock.now().as_millis() as u64;
                let elapsed = now.saturating_sub(kick);
                let due = (elapsed / timeout_ms) as usize;
                let mut stages = stages.lock();
                while fired < due && fired < stages.len() {
                    (stages[fired])();
                    fired += 1;
                    thread_inner.expiries.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        Self {
            inner,
            thread: Some(thread),
        }
    }

    /// Resets the countdown; call from the monitored main loop.
    ///
    /// The timestamp must come from the same clock the timer runs on, so
    /// kick takes it implicitly by storing a monotonically bumped marker —
    /// the runner thread reads the wall offset itself.
    pub fn kick(&self, clock: &dyn wdog_base::clock::Clock) {
        self.inner
            .last_kick
            .store(clock.now().as_millis() as u64, Ordering::Relaxed);
        self.inner.kicks.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns the kick / stage-firing counters so far.
    pub fn counters(&self) -> WdtCounters {
        WdtCounters {
            kicks: self.inner.kicks.load(Ordering::Relaxed),
            expiries: self.inner.expiries.load(Ordering::Relaxed),
        }
    }

    /// Stops the timer thread.
    pub fn stop(&mut self) {
        self.inner.running.store(false, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WatchdogTimer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for WatchdogTimer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.counters();
        f.debug_struct("WatchdogTimer")
            .field("kicks", &c.kicks)
            .field("expiries", &c.expiries)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdog_base::clock::RealClock;

    fn stage(flag: &Arc<AtomicU64>) -> Stage {
        let f = Arc::clone(flag);
        Box::new(move || {
            f.fetch_add(1, Ordering::Relaxed);
        })
    }

    #[test]
    fn kicked_timer_never_fires() {
        let clock = RealClock::shared();
        let fired = Arc::new(AtomicU64::new(0));
        let mut wdt = WatchdogTimer::start(
            Arc::clone(&clock),
            Duration::from_millis(50),
            vec![stage(&fired)],
        );
        for _ in 0..10 {
            wdt.kick(clock.as_ref());
            std::thread::sleep(Duration::from_millis(20));
        }
        wdt.stop();
        assert_eq!(fired.load(Ordering::Relaxed), 0);
        assert_eq!(wdt.counters().kicks, 10);
    }

    #[test]
    fn silent_program_escalates_through_stages_in_order() {
        let clock = RealClock::shared();
        let log = Arc::new(Mutex::new(Vec::new()));
        let s = |name: &'static str| -> Stage {
            let log = Arc::clone(&log);
            Box::new(move || log.lock().push(name))
        };
        let mut wdt = WatchdogTimer::start(
            Arc::clone(&clock),
            Duration::from_millis(40),
            vec![s("interrupt"), s("fail-safe"), s("reset")],
        );
        std::thread::sleep(Duration::from_millis(250));
        wdt.stop();
        assert_eq!(*log.lock(), vec!["interrupt", "fail-safe", "reset"]);
    }

    #[test]
    fn kick_resets_the_ladder() {
        let clock = RealClock::shared();
        let fired = Arc::new(AtomicU64::new(0));
        let mut wdt = WatchdogTimer::start(
            Arc::clone(&clock),
            Duration::from_millis(40),
            vec![stage(&fired), stage(&fired)],
        );
        // Let the first stage fire, then kick before the second.
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        wdt.kick(clock.as_ref());
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(fired.load(Ordering::Relaxed), 1, "ladder did not reset");
        // Going silent again re-fires from stage one.
        std::thread::sleep(Duration::from_millis(80));
        wdt.stop();
        assert!(fired.load(Ordering::Relaxed) >= 2);
    }
}
