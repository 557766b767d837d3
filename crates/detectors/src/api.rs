//! The uniform detector interface campaigns poll.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use wdog_base::clock::{spawn_on, SharedClock};
use wdog_base::join::{join_timeout, Spawned};

/// What a detector currently believes about its target.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// No evidence of failure.
    Healthy,
    /// The target is suspected faulty.
    Suspected {
        /// Why — as much as this detector can say.
        reason: String,
    },
}

impl Verdict {
    /// Returns `true` for [`Verdict::Suspected`].
    pub fn is_suspected(&self) -> bool {
        matches!(self, Verdict::Suspected { .. })
    }
}

/// A pollable failure detector.
pub trait Detector: Send {
    /// Short stable name for tables (`heartbeat`, `probe`, `observer`).
    fn name(&self) -> &str;

    /// Current belief about the target.
    fn verdict(&self) -> Verdict;

    /// Raises the stop flag of any background activity without blocking;
    /// default no-op. Campaign teardown raises every stop flag at one
    /// frozen instant before it joins anything.
    fn request_stop(&self) {}

    /// Stops any background activity and joins it; default no-op.
    fn stop(&mut self) {}
}

/// A detector's polling thread: runs `poll`, then sleeps `interval` on the
/// clock, until stopped. It is an actor of that clock, so on a `SimClock`
/// it polls at deterministic virtual instants.
pub(crate) struct Poller {
    running: Arc<AtomicBool>,
    thread: Option<Spawned<()>>,
}

impl Poller {
    pub(crate) fn spawn(
        clock: &SharedClock,
        name: &str,
        interval: Duration,
        mut poll: impl FnMut() + Send + 'static,
    ) -> Self {
        let running = Arc::new(AtomicBool::new(true));
        let run = Arc::clone(&running);
        let tick = Arc::clone(clock);
        let thread = spawn_on(clock, name, move || {
            while run.load(Ordering::Relaxed) {
                poll();
                tick.sleep(interval);
            }
        });
        Self {
            running,
            thread: Some(thread),
        }
    }

    pub(crate) fn request_stop(&self) {
        self.running.store(false, Ordering::Relaxed);
    }

    /// Raises the stop flag and joins, detaching a thread still wedged
    /// after 500 ms, as the targets' own teardown joins do.
    pub(crate) fn stop(&mut self) {
        self.request_stop();
        if let Some(t) = self.thread.take() {
            join_timeout(t, Duration::from_millis(500));
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_classification() {
        assert!(!Verdict::Healthy.is_suspected());
        assert!(Verdict::Suspected { reason: "x".into() }.is_suspected());
    }
}
