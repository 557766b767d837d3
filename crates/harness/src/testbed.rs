//! The one campaign testbed: every campaign that runs scenarios or
//! schedules against a target boots, observes, and tears down through it.
//!
//! A [`Testbed`] boots its system on a fresh discrete-event [`SimClock`]
//! with the harness thread adopted as the clock's first actor, so boot,
//! fault arming, observation, and scoring all happen at deterministic
//! virtual instants: one campaign, one seed, one answer. It starts the
//! watchdog and the workload, paces observation in steps of at most 50 ms
//! of virtual time, and owns the frozen-time teardown, the only copy of
//! it:
//!
//! 1. clear every armed fault, so wedged threads can drain;
//! 2. raise every stop flag (system, watchdog, extrinsic detectors,
//!    recovery coordinator) at the same frozen instant, so every loop
//!    observes the same stop time;
//! 3. seal the watchdog's report log, so nothing past the deadline leaks
//!    into scoring;
//! 4. retire the harness actor, so virtual time free-runs;
//! 5. join everything, the system last so the coordinator cannot still
//!    act on it (the joins are spectators of the clock).

use std::sync::Arc;
use std::time::Duration;

use detectors::Detector;
use simio::SimClock;
use wdog_base::clock::{ActorGuard, SharedClock};
use wdog_base::error::BaseResult;
use wdog_core::driver::WatchdogDriver;
use wdog_core::report::FailureReport;
use wdog_recover::RecoveryCoordinator;
use wdog_target::{
    Rig, TargetInstance, WatchdogTarget, WdOptions, WorkloadObserver, WorkloadProfile,
};

/// The longest virtual step [`Testbed::observe`] sleeps between ticks.
const OBSERVE_STEP: Duration = Duration::from_millis(50);

/// One campaign run's booted system, watchdog, extrinsic detectors, and
/// recovery coordinator on a fresh [`SimClock`].
pub struct Testbed<R: Rig = Box<dyn TargetInstance>> {
    /// The booted system.
    pub rig: R,
    clock: SharedClock,
    guard: ActorGuard,
    driver: Option<WatchdogDriver>,
    detectors: Vec<Box<dyn Detector>>,
    coordinator: Option<Arc<RecoveryCoordinator>>,
}

impl Testbed {
    /// Boots `target` from `seed` on a fresh [`SimClock`], with the calling
    /// thread adopted as its actor `actor`.
    pub fn boot(target: &dyn WatchdogTarget, seed: u64, actor: &str) -> BaseResult<Self> {
        Self::boot_with(actor, |clock| target.start_on(seed, clock))
    }

    /// Builds and starts the watchdog from `wd`, then starts the workload.
    pub fn start(
        &mut self,
        wd: &WdOptions,
        workload: &WorkloadProfile,
        observer: Option<WorkloadObserver>,
    ) -> BaseResult<()> {
        let (driver, _plan) = self.rig.build_watchdog(wd)?;
        self.start_watchdog(driver)?;
        self.rig.start_workload(workload, observer);
        Ok(())
    }
}

impl<R: Rig> Testbed<R> {
    /// Adopts the calling thread as actor `actor` of a fresh [`SimClock`],
    /// then boots the system with `boot` on that clock.
    pub fn boot_with(
        actor: &str,
        boot: impl FnOnce(SharedClock) -> BaseResult<R>,
    ) -> BaseResult<Self> {
        let clock: SharedClock = Arc::new(SimClock::new());
        let guard = clock.actor(actor).adopt();
        let rig = boot(Arc::clone(&clock))?;
        Ok(Self {
            rig,
            clock,
            guard,
            driver: None,
            detectors: Vec::new(),
            coordinator: None,
        })
    }

    /// The campaign clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Starts `driver` and keeps it for teardown.
    pub fn start_watchdog(&mut self, mut driver: WatchdogDriver) -> BaseResult<()> {
        driver.start()?;
        self.driver = Some(driver);
        Ok(())
    }

    /// Keeps an extrinsic detector, stopped with the rest at teardown.
    pub fn add_detector(&mut self, detector: Box<dyn Detector>) {
        self.detectors.push(detector);
    }

    /// Keeps the recovery coordinator acting on the system, stopped with
    /// the rest at teardown and joined before the system.
    pub fn set_coordinator(&mut self, coordinator: Arc<RecoveryCoordinator>) {
        self.coordinator = Some(coordinator);
    }

    /// The extrinsic detectors, in the order they were added.
    pub fn detectors(&self) -> &[Box<dyn Detector>] {
        &self.detectors
    }

    /// Observes until virtual instant `deadline`: calls `tick(now)` and
    /// sleeps at most 50 ms, until `tick` returns `true` or the deadline is
    /// reached. The last tick lands exactly on the deadline.
    pub fn observe(&self, deadline: Duration, mut tick: impl FnMut(Duration) -> bool) {
        loop {
            let now = self.clock.now();
            if tick(now) || now >= deadline {
                break;
            }
            self.clock.sleep((deadline - now).min(OBSERVE_STEP));
        }
    }

    /// The frozen-time teardown (see the module docs): `clear` releases
    /// the campaign's own armed faults before the system's surfaces are
    /// cleared. Returns the joined system and the sealed report log.
    pub fn teardown(self, clear: impl FnOnce()) -> (R, Vec<FailureReport>) {
        let Testbed {
            mut rig,
            guard,
            mut driver,
            mut detectors,
            coordinator,
            ..
        } = self;
        clear();
        rig.clear_faults();

        rig.request_stop();
        if let Some(d) = &driver {
            d.request_stop();
        }
        for d in &detectors {
            d.request_stop();
        }
        if let Some(c) = &coordinator {
            c.request_stop();
        }
        let reports = driver
            .as_ref()
            .map(|d| d.log().reports())
            .unwrap_or_default();
        guard.retire();

        rig.stop_workload();
        if let Some(d) = &mut driver {
            d.stop();
        }
        for d in &mut detectors {
            d.stop();
        }
        if let Some(c) = &coordinator {
            c.stop();
        }
        rig.teardown();
        (rig, reports)
    }
}
