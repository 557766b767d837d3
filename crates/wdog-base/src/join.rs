//! Timeout-tolerant thread joining on exit latches.
//!
//! Simulated gray failures wedge real threads (that is the point), and a
//! wedged thread cannot be joined until its fault is cleared. Shutdown paths
//! therefore use [`join_timeout`]: threads that finish promptly are joined,
//! wedged ones are detached and reaped at process exit — mirroring how a
//! real process shutdown abandons stuck I/O threads.
//!
//! The contract:
//!
//! - **Latch.** Every thread started by [`crate::clock::spawn_on`] carries an
//!   exit latch, released by a drop guard in its closure — on return and on
//!   panic alike, and only after the thread has retired from its clock. A
//!   joiner blocks on the latch and wakes the moment the thread exits; there
//!   is no polling.
//! - **Deadline.** The wait is bounded in wall time. It runs outside any
//!   virtual run (teardown joins are spectators), so a wedged thread cannot
//!   wedge the clock, and the clock cannot stretch the bound.
//! - **Detach.** A thread still running at the deadline is detached: its
//!   handle is dropped and it runs on until its fault clears. Releasing the
//!   latch of a detached thread later is harmless.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// The exit latch shared by a spawned thread and its [`Spawned`] handle.
#[derive(Debug, Default)]
struct ExitLatch {
    exited: Mutex<bool>,
    cond: Condvar,
}

/// Opens the exit latch when dropped, on return and on unwind alike.
struct ExitGuard(Arc<ExitLatch>);

impl Drop for ExitGuard {
    fn drop(&mut self) {
        *self.0.exited.lock() = true;
        self.0.cond.notify_all();
    }
}

/// A thread started by [`crate::clock::spawn_on`]: its [`JoinHandle`] plus an
/// exit latch that [`join_timeout`] and [`join_all_timeout`] wait on.
#[derive(Debug)]
pub struct Spawned<T> {
    handle: JoinHandle<T>,
    latch: Arc<ExitLatch>,
}

impl<T> Spawned<T> {
    /// Spawns `f` on `builder` behind an exit latch. The latch guard is
    /// declared before `f` runs, so it drops after everything `f` owns —
    /// including the clock's actor guard, so the thread has retired from
    /// its clock by the time a joiner wakes.
    pub(crate) fn spawn<F>(builder: std::thread::Builder, f: F) -> std::io::Result<Self>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let latch = Arc::new(ExitLatch::default());
        let guard = ExitGuard(Arc::clone(&latch));
        let handle = builder.spawn(move || {
            let _exit = guard;
            f()
        })?;
        Ok(Self { handle, latch })
    }

    /// Blocks until the thread exits and returns its result, like
    /// [`JoinHandle::join`].
    pub fn join(self) -> std::thread::Result<T> {
        self.handle.join()
    }

    /// Joins the thread if its latch opens before `deadline`; otherwise
    /// detaches it. Returns `true` if the thread was joined.
    fn join_by(self, deadline: Instant) -> bool {
        let mut exited = self.latch.exited.lock();
        while !*exited {
            let now = Instant::now();
            if now >= deadline {
                // Detach: the handle is dropped; the thread runs on until it
                // unwedges.
                return false;
            }
            let _ = self.latch.cond.wait_for(&mut exited, deadline - now);
        }
        drop(exited);
        // The latch opened in the closure's last drop; only the thread's
        // own exit remains, so this join does not block for long.
        let _ = self.handle.join();
        true
    }
}

/// Joins `handle` if it exits within `timeout`; otherwise detaches it.
///
/// Returns `true` if the thread was joined.
pub fn join_timeout(handle: Spawned<()>, timeout: Duration) -> bool {
    handle.join_by(Instant::now() + timeout)
}

/// Joins every handle under one shared `timeout`: all of them must exit
/// within it, however many are wedged. Returns how many had to be detached.
pub fn join_all_timeout(handles: Vec<Spawned<()>>, timeout: Duration) -> usize {
    let deadline = Instant::now() + timeout;
    handles
        .into_iter()
        .map(|h| h.join_by(deadline))
        .filter(|joined| !joined)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{spawn_on, RealClock, SharedClock};
    use std::sync::mpsc;

    fn clock() -> SharedClock {
        RealClock::shared()
    }

    /// A thread that blocks until the returned sender is dropped.
    fn gated(clock: &SharedClock) -> (mpsc::Sender<()>, Spawned<()>) {
        let (go, gate) = mpsc::channel::<()>();
        let h = spawn_on(clock, "gated", move || {
            let _ = gate.recv();
        });
        (go, h)
    }

    #[test]
    fn prompt_threads_are_joined() {
        let h = spawn_on(&clock(), "prompt", || {});
        assert!(join_timeout(h, Duration::from_secs(1)));
    }

    #[test]
    fn wedged_threads_are_detached() {
        let h = spawn_on(&clock(), "wedged", || {
            std::thread::sleep(Duration::from_secs(30));
        });
        let start = Instant::now();
        assert!(!join_timeout(h, Duration::from_millis(50)));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn join_all_counts_detached() {
        let handles = vec![
            spawn_on(&clock(), "prompt", || {}),
            spawn_on(&clock(), "wedged", || {
                std::thread::sleep(Duration::from_secs(30))
            }),
        ];
        assert_eq!(join_all_timeout(handles, Duration::from_millis(50)), 1);
    }

    #[test]
    fn join_all_shares_one_deadline() {
        // Two wedged threads under one 300 ms budget: the set returns within
        // that budget, not after 300 ms per handle.
        let clock = clock();
        let (go_a, a) = gated(&clock);
        let (go_b, b) = gated(&clock);
        let start = Instant::now();
        assert_eq!(join_all_timeout(vec![a, b], Duration::from_millis(300)), 2);
        let took = start.elapsed();
        drop((go_a, go_b));
        assert!(took < Duration::from_millis(550), "took {took:?}");
    }

    #[test]
    fn released_burst_joins_without_a_poll_floor() {
        // A poll loop that sleeps 2 ms between checks costs ~2 ms per join
        // of a thread that exits while the joiner waits; the latch wakes
        // the joiner on exit.
        const N: usize = 40;
        let clock = clock();
        let start = Instant::now();
        for _ in 0..N {
            let (go, h) = gated(&clock);
            drop(go);
            assert!(join_timeout(h, Duration::from_secs(5)));
        }
        let took = start.elapsed();
        assert!(
            took < Duration::from_millis(2) * N as u32 / 2,
            "{N} joins took {took:?}"
        );
    }

    #[test]
    fn panicking_thread_is_joined_promptly() {
        let h = spawn_on(&clock(), "panics", || panic!("boom"));
        let start = Instant::now();
        assert!(join_timeout(h, Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn detached_thread_may_exit_later() {
        let (go, h) = gated(&clock());
        let latch = Arc::clone(&h.latch);
        assert!(!join_timeout(h, Duration::from_millis(20)));
        drop(go);
        // The detached thread still opens its latch on the way out.
        let mut exited = latch.exited.lock();
        while !*exited {
            let _ = latch.cond.wait_for(&mut exited, Duration::from_secs(5));
        }
    }
}
