//! The recovery coordinator: consumes failure reports, walks the policy
//! ladder, verifies every mitigation, and keeps the books.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;

use wdog_base::clock::SharedClock;
use wdog_base::ids::ComponentId;
use wdog_base::rng::derive_seed;

use wdog_core::prelude::*;
use wdog_telemetry::TelemetryRegistry;

use crate::incident::{Incident, RecoveryOutcome};
use crate::policy::RecoveryPolicy;

/// Histogram of incident MTTR, labeled by blamed component.
pub const RECOVERY_MTTR_METRIC: &str = "recovery_mttr_ms";
/// Counter of closed incidents, labeled by terminal outcome.
pub const RECOVERY_OUTCOME_METRIC: &str = "recovery_outcome_total";
/// Counter of ladder rung executions, labeled by rung
/// (`retry`/`restart`/`degrade`/`escalate`/`pin`).
pub const RECOVERY_RUNG_METRIC: &str = "recovery_rung_total";
/// Counter of verification re-checks, labeled `pass`/`fail`.
pub const RECOVERY_VERIFICATION_METRIC: &str = "recovery_verification_total";

/// Builds a fresh instance of the check that blamed a component, so a
/// mitigation can be verified by re-dispatching it. Returns `None` when the
/// component has no re-checkable probe (verification then fails closed: the
/// ladder keeps climbing).
pub type VerifierFactory = Arc<dyn Fn(&ComponentId) -> Option<Box<dyn Checker>> + Send + Sync>;

/// Everything a target exposes for component-scoped recovery: how to restart
/// a component, how to shed its workload, and how to re-check it afterwards.
#[derive(Clone)]
pub struct RecoverySurface {
    /// Component-scoped restart handle (§5.2 "cheap recovery").
    pub restart: Arc<dyn Restartable>,
    /// Workload-shedding handle for the degrade rung.
    pub degrade: Arc<dyn Degradable>,
    /// Builds verification re-checks per component.
    pub verifier: VerifierFactory,
}

/// Capacity of the report inbox; overflow increments a drop counter instead
/// of blocking the driver's action thread.
const INBOX_CAP: usize = 128;

/// Configures and starts a [`RecoveryCoordinator`].
pub struct RecoveryCoordinatorBuilder {
    clock: SharedClock,
    surface: RecoverySurface,
    default_policy: RecoveryPolicy,
    policies: HashMap<ComponentId, RecoveryPolicy>,
    escalation: Option<Arc<dyn Action>>,
    seed: u64,
    telemetry: Option<Arc<TelemetryRegistry>>,
}

impl RecoveryCoordinatorBuilder {
    /// Overrides the policy used for components without a specific one.
    pub fn default_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.default_policy = policy;
        self
    }

    /// Sets the policy for one component.
    pub fn policy_for(mut self, component: impl Into<ComponentId>, policy: RecoveryPolicy) -> Self {
        self.policies.insert(component.into(), policy);
        self
    }

    /// Sets the action fired when an incident escalates.
    pub fn escalation(mut self, action: Arc<dyn Action>) -> Self {
        self.escalation = Some(action);
        self
    }

    /// Seeds the deterministic backoff jitter.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a telemetry registry: the coordinator then records per-rung
    /// counters, verification pass/fail counts, per-component MTTR
    /// histograms, and incident open/close flight events.
    pub fn telemetry(mut self, registry: Arc<TelemetryRegistry>) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Spawns the coordinator worker and returns the shared handle.
    pub fn start(self) -> Arc<RecoveryCoordinator> {
        let (tx, rx) = bounded::<FailureReport>(INBOX_CAP);
        let shared = Arc::new(CoordShared {
            state: Mutex::new(CoordState::default()),
            dropped: AtomicU64::new(0),
            pinned_hits: AtomicU64::new(0),
            busy: AtomicBool::new(false),
            backlog_len: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let worker = Worker {
            rx,
            clock: Arc::clone(&self.clock),
            surface: self.surface,
            default_policy: self.default_policy,
            policies: self.policies,
            escalation: self.escalation,
            seed: self.seed,
            telemetry: self.telemetry,
            shared: Arc::clone(&shared),
            backlog: VecDeque::new(),
            incident_seq: 0,
        };
        let clock = Arc::clone(&self.clock);
        let handle = wdog_base::clock::spawn_on(&clock, "wdog-recover", move || worker.run());
        Arc::new(RecoveryCoordinator {
            tx,
            shared,
            clock,
            worker: Mutex::new(Some(handle)),
        })
    }
}

#[derive(Default)]
struct CoordState {
    incidents: Vec<Incident>,
    pinned: HashSet<ComponentId>,
    /// Per-component incident-open timestamps inside the flap window.
    flap: HashMap<ComponentId, Vec<u64>>,
}

struct CoordShared {
    state: Mutex<CoordState>,
    dropped: AtomicU64,
    pinned_hits: AtomicU64,
    busy: AtomicBool,
    backlog_len: AtomicUsize,
    shutdown: AtomicBool,
}

/// Closed-loop recovery driver (see crate docs for the ladder).
///
/// Registered with a [`WatchdogDriver`](wdog_core::driver::WatchdogDriver)
/// as an [`Action`]; reports are handed to a dedicated worker thread through
/// a bounded inbox so recovery work never blocks detection.
pub struct RecoveryCoordinator {
    tx: Sender<FailureReport>,
    shared: Arc<CoordShared>,
    clock: SharedClock,
    worker: Mutex<Option<wdog_base::Spawned<()>>>,
}

impl RecoveryCoordinator {
    /// Starts configuring a coordinator for a target's recovery surface.
    pub fn builder(clock: SharedClock, surface: RecoverySurface) -> RecoveryCoordinatorBuilder {
        RecoveryCoordinatorBuilder {
            clock,
            surface,
            default_policy: RecoveryPolicy::default(),
            policies: HashMap::new(),
            escalation: None,
            seed: 0,
            telemetry: None,
        }
    }

    /// Returns all closed incidents so far, in close order.
    pub fn incidents(&self) -> Vec<Incident> {
        self.shared.state.lock().incidents.clone()
    }

    /// Returns reports dropped because the inbox was full.
    pub fn dropped_reports(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Returns reports ignored because their component is pinned.
    pub fn pinned_reports(&self) -> u64 {
        self.shared.pinned_hits.load(Ordering::Relaxed)
    }

    /// Returns the components currently pinned in degraded mode.
    pub fn pinned_components(&self) -> Vec<ComponentId> {
        let mut v: Vec<ComponentId> = self.shared.state.lock().pinned.iter().cloned().collect();
        v.sort();
        v
    }

    /// Returns `true` when no report is queued or being processed.
    pub fn is_idle(&self) -> bool {
        self.tx.is_empty()
            && self.shared.backlog_len.load(Ordering::Relaxed) == 0
            && !self.shared.busy.load(Ordering::Relaxed)
    }

    /// Polls until the coordinator is idle or `timeout` elapses, pacing on
    /// the coordinator's clock so the wait is virtual under simulation.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = self.clock.now() + timeout;
        while self.clock.now() < deadline {
            if self.is_idle() {
                return true;
            }
            self.clock.sleep(Duration::from_millis(10));
        }
        self.is_idle()
    }

    /// Raises the stop flag without blocking: reports arriving from now on
    /// are ignored, and the worker exits once its queue is drained.
    pub fn request_stop(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }

    /// Stops the worker after it finishes the incident in hand.
    pub fn stop(&self) {
        self.request_stop();
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RecoveryCoordinator {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Action for RecoveryCoordinator {
    fn on_failure(&self, report: &FailureReport) {
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        if self.tx.try_send(report.clone()).is_err() {
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct Worker {
    rx: Receiver<FailureReport>,
    clock: SharedClock,
    surface: RecoverySurface,
    default_policy: RecoveryPolicy,
    policies: HashMap<ComponentId, RecoveryPolicy>,
    escalation: Option<Arc<dyn Action>>,
    seed: u64,
    telemetry: Option<Arc<TelemetryRegistry>>,
    shared: Arc<CoordShared>,
    /// Reports for *other* components received while a ladder was running.
    backlog: VecDeque<FailureReport>,
    incident_seq: u64,
}

impl Worker {
    fn run(mut self) {
        loop {
            let report = if let Some(r) = self.backlog.pop_front() {
                self.shared
                    .backlog_len
                    .store(self.backlog.len(), Ordering::Relaxed);
                r
            } else {
                // Poll the inbox on the clock rather than blocking inside
                // crossbeam: under a simulated clock this sleep is what
                // lets virtual time advance past an idle coordinator.
                match self.rx.try_recv() {
                    Ok(r) => r,
                    Err(TryRecvError::Empty) => {
                        if self.shared.shutdown.load(Ordering::Relaxed) {
                            return;
                        }
                        self.clock.sleep(Duration::from_millis(25));
                        continue;
                    }
                    Err(TryRecvError::Disconnected) => return,
                }
            };
            self.shared.busy.store(true, Ordering::Relaxed);
            self.handle(report);
            self.shared.busy.store(false, Ordering::Relaxed);
        }
    }

    fn policy_for(&self, component: &ComponentId) -> RecoveryPolicy {
        self.policies
            .get(component)
            .unwrap_or(&self.default_policy)
            .clone()
    }

    /// Bumps the rung counter for one ladder rung execution.
    fn rung(&self, label: &str) {
        if let Some(t) = &self.telemetry {
            t.counter(RECOVERY_RUNG_METRIC, label).inc();
        }
    }

    fn handle(&mut self, report: FailureReport) {
        let component = report.location.component.clone();
        if self.shared.state.lock().pinned.contains(&component) {
            self.shared.pinned_hits.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let policy = self.policy_for(&component);
        let opened_at_ms = self.clock.now_millis();
        if let Some(t) = &self.telemetry {
            t.flight(
                opened_at_ms,
                "incident-open",
                &format!("{component} blamed by {}", report.checker),
            );
        }

        // Flap damping: a component whose incidents keep reopening inside
        // the window is not recovering — pin it degraded instead of cycling
        // restarts forever.
        let flapping = {
            let mut st = self.shared.state.lock();
            let window_ms = policy.flap_window.as_millis() as u64;
            let hist = st.flap.entry(component.clone()).or_default();
            hist.retain(|t| t.saturating_add(window_ms) >= opened_at_ms);
            hist.push(opened_at_ms);
            hist.len() as u32 >= policy.flap_threshold
        };
        if flapping {
            self.rung("pin");
            self.surface.degrade.degrade(&component);
            self.shared.state.lock().pinned.insert(component.clone());
            self.close(Incident {
                component: component.to_string(),
                checker: report.checker.to_string(),
                kind: report.kind.label().to_string(),
                opened_at_ms,
                closed_at_ms: self.clock.now_millis(),
                mttr_ms: self.clock.now_millis().saturating_sub(opened_at_ms),
                reports: 1,
                retries: 0,
                restarts: 0,
                verifications: 0,
                verified: false,
                outcome: RecoveryOutcome::Degraded,
                pinned: true,
            });
            return;
        }

        self.run_ladder(report, component, policy, opened_at_ms);
    }

    fn run_ladder(
        &mut self,
        report: FailureReport,
        component: ComponentId,
        policy: RecoveryPolicy,
        opened_at_ms: u64,
    ) {
        self.incident_seq += 1;
        let incident_seed = derive_seed(
            self.seed,
            &format!("{component}#{seq}", seq = self.incident_seq),
        );
        let mut reports = 1u64;
        let mut retries = 0u32;
        let mut restarts = 0u32;
        let mut verifications = 0u32;

        let close = |w: &mut Worker,
                     outcome: RecoveryOutcome,
                     verified: bool,
                     reports: u64,
                     retries: u32,
                     restarts: u32,
                     verifications: u32| {
            let closed_at_ms = w.clock.now_millis();
            w.close(Incident {
                component: component.to_string(),
                checker: report.checker.to_string(),
                kind: report.kind.label().to_string(),
                opened_at_ms,
                closed_at_ms,
                mttr_ms: closed_at_ms.saturating_sub(opened_at_ms),
                reports,
                retries,
                restarts,
                verifications,
                verified,
                outcome,
                pinned: false,
            });
        };

        // Rung 1 — retry: wait out a transient. Pointless for corrupted
        // state or failed assertions, which never heal by themselves.
        let skip_retry = matches!(
            report.kind,
            FailureKind::Corruption | FailureKind::AssertViolation
        );
        if !skip_retry {
            for attempt in 0..policy.max_retries {
                self.rung("retry");
                self.clock
                    .sleep(policy.backoff.delay(attempt, incident_seed));
                retries += 1;
                reports += self.coalesce(&component);
                verifications += 1;
                if self.verify(&component, &policy) {
                    close(
                        self,
                        RecoveryOutcome::VerifiedRecovered,
                        true,
                        reports,
                        retries,
                        restarts,
                        verifications,
                    );
                    return;
                }
            }
        }

        // Rung 2 — component-scoped restart (§5.2 cheap recovery).
        for _ in 0..policy.max_restarts {
            self.rung("restart");
            self.surface.restart.restart(&component);
            restarts += 1;
            self.clock.sleep(policy.settle);
            reports += self.coalesce(&component);
            verifications += 1;
            if self.verify(&component, &policy) {
                close(
                    self,
                    RecoveryOutcome::VerifiedRecovered,
                    true,
                    reports,
                    retries,
                    restarts,
                    verifications,
                );
                return;
            }
        }

        // Rung 3 — degrade: shed the workload, keep the process.
        if policy.allow_degrade {
            self.rung("degrade");
            self.surface.degrade.degrade(&component);
            reports += self.coalesce(&component);
            close(
                self,
                RecoveryOutcome::Degraded,
                false,
                reports,
                retries,
                restarts,
                verifications,
            );
            return;
        }

        // Rung 4 — escalate: nothing helped, hand off.
        self.rung("escalate");
        if let Some(esc) = &self.escalation {
            esc.on_failure(&report);
        }
        close(
            self,
            RecoveryOutcome::Escalated,
            false,
            reports,
            retries,
            restarts,
            verifications,
        );
    }

    /// Absorbs queued reports blaming `component` into the open incident;
    /// reports for other components are kept for later handling.
    fn coalesce(&mut self, component: &ComponentId) -> u64 {
        let mut absorbed = 0u64;
        while let Ok(r) = self.rx.try_recv() {
            if &r.location.component == component {
                absorbed += 1;
            } else {
                self.backlog.push_back(r);
            }
        }
        self.shared
            .backlog_len
            .store(self.backlog.len(), Ordering::Relaxed);
        absorbed
    }

    /// Re-dispatches the blaming check on a scratch thread; `true` only when
    /// it passes within the policy's verify timeout. A wedged verifier is
    /// abandoned (the scratch thread exits whenever the check completes) so
    /// it can never wedge the coordinator — exactly the executor-abandonment
    /// discipline the driver applies to checkers.
    fn verify(&self, component: &ComponentId, policy: &RecoveryPolicy) -> bool {
        let pass = self.verify_inner(component, policy);
        if let Some(t) = &self.telemetry {
            t.counter(
                RECOVERY_VERIFICATION_METRIC,
                if pass { "pass" } else { "fail" },
            )
            .inc();
        }
        pass
    }

    fn verify_inner(&self, component: &ComponentId, policy: &RecoveryPolicy) -> bool {
        let Some(mut checker) = (self.surface.verifier)(component) else {
            return false;
        };
        let (tx, rx) = bounded::<bool>(1);
        wdog_base::clock::spawn_on(&self.clock, "wdog-verify", move || {
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| checker.check()));
            let pass = matches!(outcome, Ok(s) if s.is_pass());
            let _ = tx.send(pass);
        });
        let deadline = self.clock.now() + policy.verify_timeout;
        loop {
            match rx.try_recv() {
                Ok(pass) => return pass,
                Err(TryRecvError::Disconnected) => return false,
                Err(TryRecvError::Empty) => {}
            }
            let now = self.clock.now();
            if now >= deadline {
                return false;
            }
            self.clock
                .sleep(Duration::from_millis(5).min(deadline - now));
        }
    }

    fn close(&self, incident: Incident) {
        if let Some(t) = &self.telemetry {
            t.histogram(RECOVERY_MTTR_METRIC, &incident.component)
                .record(incident.mttr_ms);
            t.counter(RECOVERY_OUTCOME_METRIC, incident.outcome.label())
                .inc();
            t.flight(
                incident.closed_at_ms,
                "incident-close",
                &format!(
                    "{} {} mttr={}ms",
                    incident.component,
                    incident.outcome.label(),
                    incident.mttr_ms
                ),
            );
        }
        self.shared.state.lock().incidents.push(incident);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use wdog_base::clock::RealClock;
    use wdog_base::ids::CheckerId;

    /// Recovery surface harness: a shared "health" flag per component, a
    /// restart handle that can be told to heal on the Nth attempt, and a
    /// verifier that reads the flag.
    struct Fixture {
        healthy: Arc<AtomicBool>,
        restarts: Arc<AtomicU64>,
        degraded: Arc<Mutex<Vec<ComponentId>>>,
        /// Restart attempts needed before the component heals; u64::MAX
        /// means restarts never help.
        heal_after: Arc<AtomicU64>,
    }

    impl Fixture {
        fn new(initially_healthy: bool, heal_after: u64) -> Self {
            Self {
                healthy: Arc::new(AtomicBool::new(initially_healthy)),
                restarts: Arc::new(AtomicU64::new(0)),
                degraded: Arc::new(Mutex::new(Vec::new())),
                heal_after: Arc::new(AtomicU64::new(heal_after)),
            }
        }

        fn surface(&self) -> RecoverySurface {
            struct R {
                healthy: Arc<AtomicBool>,
                restarts: Arc<AtomicU64>,
                heal_after: Arc<AtomicU64>,
            }
            impl Restartable for R {
                fn restart(&self, _c: &ComponentId) {
                    let n = self.restarts.fetch_add(1, Ordering::Relaxed) + 1;
                    if n >= self.heal_after.load(Ordering::Relaxed) {
                        self.healthy.store(true, Ordering::Relaxed);
                    }
                }
            }
            struct D(Arc<Mutex<Vec<ComponentId>>>);
            impl Degradable for D {
                fn degrade(&self, c: &ComponentId) {
                    self.0.lock().push(c.clone());
                }
            }
            let healthy = Arc::clone(&self.healthy);
            RecoverySurface {
                restart: Arc::new(R {
                    healthy: Arc::clone(&self.healthy),
                    restarts: Arc::clone(&self.restarts),
                    heal_after: Arc::clone(&self.heal_after),
                }),
                degrade: Arc::new(D(Arc::clone(&self.degraded))),
                verifier: Arc::new(move |c: &ComponentId| {
                    let h = Arc::clone(&healthy);
                    let comp = c.clone();
                    Some(Box::new(FnChecker::new("verify", comp.clone(), move || {
                        if h.load(Ordering::Relaxed) {
                            CheckStatus::Pass
                        } else {
                            CheckStatus::Fail(CheckFailure::new(
                                FailureKind::Error,
                                FaultLocation::new(comp.clone(), "verify"),
                                "still failing",
                            ))
                        }
                    })) as Box<dyn Checker>)
                }),
            }
        }
    }

    fn report(component: &str, kind: FailureKind) -> FailureReport {
        FailureReport {
            checker: CheckerId::new("t.checker"),
            kind,
            location: FaultLocation::new(component, "f"),
            detail: "d".into(),
            payload: vec![],
            observed_latency_ms: None,
            at_ms: 0,
        }
    }

    fn fast_coordinator(fx: &Fixture) -> Arc<RecoveryCoordinator> {
        RecoveryCoordinator::builder(RealClock::shared(), fx.surface())
            .default_policy(RecoveryPolicy::fast())
            .seed(42)
            .start()
    }

    #[test]
    fn transient_recovers_on_retry_without_restart() {
        // Component already healthy again by the first re-check: the retry
        // rung verifies and closes without touching the restart handle.
        let fx = Fixture::new(true, u64::MAX);
        let c = fast_coordinator(&fx);
        c.on_failure(&report("kvs.flusher", FailureKind::Stuck));
        assert!(c.wait_idle(Duration::from_secs(5)));
        let incidents = c.incidents();
        assert_eq!(incidents.len(), 1);
        let i = &incidents[0];
        assert_eq!(i.outcome, RecoveryOutcome::VerifiedRecovered);
        assert!(i.verified);
        assert_eq!(i.retries, 1);
        assert_eq!(i.restarts, 0);
        assert!(i.mttr_ms >= 20, "backoff must be reflected in MTTR");
        assert_eq!(fx.restarts.load(Ordering::Relaxed), 0);
        c.stop();
    }

    #[test]
    fn persistent_fault_recovers_via_restart() {
        let fx = Fixture::new(false, 1);
        let c = fast_coordinator(&fx);
        c.on_failure(&report("kvs.compaction", FailureKind::Stuck));
        assert!(c.wait_idle(Duration::from_secs(5)));
        let i = &c.incidents()[0];
        assert_eq!(i.outcome, RecoveryOutcome::VerifiedRecovered);
        assert!(i.verified);
        assert_eq!(i.retries, 2, "retry rung exhausted first");
        assert_eq!(i.restarts, 1);
        assert_eq!(fx.restarts.load(Ordering::Relaxed), 1);
        assert!(fx.degraded.lock().is_empty());
        c.stop();
    }

    #[test]
    fn corruption_skips_straight_to_restart() {
        let fx = Fixture::new(false, 1);
        let c = fast_coordinator(&fx);
        c.on_failure(&report("kvs.index", FailureKind::Corruption));
        assert!(c.wait_idle(Duration::from_secs(5)));
        let i = &c.incidents()[0];
        assert_eq!(i.outcome, RecoveryOutcome::VerifiedRecovered);
        assert_eq!(i.retries, 0, "corrupted state never heals by waiting");
        assert_eq!(i.restarts, 1);
        c.stop();
    }

    #[test]
    fn unrecoverable_component_degrades() {
        let fx = Fixture::new(false, u64::MAX);
        let c = fast_coordinator(&fx);
        c.on_failure(&report("kvs.replication", FailureKind::Stuck));
        assert!(c.wait_idle(Duration::from_secs(10)));
        let i = &c.incidents()[0];
        assert_eq!(i.outcome, RecoveryOutcome::Degraded);
        assert!(!i.verified);
        assert_eq!(i.restarts, 2, "restart budget exhausted");
        assert_eq!(
            fx.degraded.lock().as_slice(),
            &[ComponentId::new("kvs.replication")]
        );
        // MTTR is finite and recorded even for non-recovered outcomes.
        assert!(i.mttr_ms > 0);
        c.stop();
    }

    #[test]
    fn degrade_disallowed_escalates() {
        let fx = Fixture::new(false, u64::MAX);
        let escalated = Arc::new(AtomicU64::new(0));
        let esc = Arc::clone(&escalated);
        let mut policy = RecoveryPolicy::fast();
        policy.allow_degrade = false;
        let c = RecoveryCoordinator::builder(RealClock::shared(), fx.surface())
            .default_policy(policy)
            .escalation(Arc::new(CallbackAction::new(move |_r: &FailureReport| {
                esc.fetch_add(1, Ordering::Relaxed);
            })))
            .start();
        c.on_failure(&report("minizk.broadcast", FailureKind::Stuck));
        assert!(c.wait_idle(Duration::from_secs(10)));
        let i = &c.incidents()[0];
        assert_eq!(i.outcome, RecoveryOutcome::Escalated);
        assert_eq!(escalated.load(Ordering::Relaxed), 1);
        assert!(fx.degraded.lock().is_empty());
        c.stop();
    }

    #[test]
    fn flapping_component_is_pinned_degraded() {
        // Heals on every restart but immediately gets blamed again: after
        // flap_threshold incidents the breaker pins it.
        let fx = Fixture::new(false, u64::MAX);
        let mut policy = RecoveryPolicy::fast();
        policy.max_retries = 0;
        policy.max_restarts = 0; // straight to degrade each incident
        policy.flap_threshold = 3;
        let c = RecoveryCoordinator::builder(RealClock::shared(), fx.surface())
            .default_policy(policy)
            .start();
        for _ in 0..5 {
            c.on_failure(&report("kvs.flusher", FailureKind::Error));
            assert!(c.wait_idle(Duration::from_secs(5)));
        }
        assert_eq!(c.pinned_components(), vec![ComponentId::new("kvs.flusher")]);
        let incidents = c.incidents();
        let pinned: Vec<&Incident> = incidents.iter().filter(|i| i.pinned).collect();
        assert_eq!(pinned.len(), 1, "breaker trips exactly once");
        assert_eq!(pinned[0].outcome, RecoveryOutcome::Degraded);
        // Reports after pinning are counted, not laddered.
        assert!(c.pinned_reports() >= 1);
        c.stop();
    }

    #[test]
    fn wedged_verifier_cannot_hang_the_coordinator() {
        let fx = Fixture::new(false, u64::MAX);
        let mut policy = RecoveryPolicy::fast();
        policy.verify_timeout = Duration::from_millis(50);
        policy.max_retries = 1;
        policy.max_restarts = 1;
        // Verifier wedges forever: every verification must time out and the
        // ladder still reach a terminal state quickly.
        let surface = RecoverySurface {
            verifier: Arc::new(|c: &ComponentId| {
                let comp = c.clone();
                Some(Box::new(FnChecker::new("wedged-verify", comp, || loop {
                    std::thread::sleep(Duration::from_millis(10));
                })) as Box<dyn Checker>)
            }),
            ..fx.surface()
        };
        let c = RecoveryCoordinator::builder(RealClock::shared(), surface)
            .default_policy(policy)
            .start();
        let t0 = std::time::Instant::now();
        c.on_failure(&report("kvs.api", FailureKind::Stuck));
        assert!(c.wait_idle(Duration::from_secs(5)));
        assert!(t0.elapsed() < Duration::from_secs(3));
        assert_eq!(c.incidents()[0].outcome, RecoveryOutcome::Degraded);
        c.stop();
    }

    #[test]
    fn reports_during_ladder_are_coalesced() {
        let fx = Fixture::new(false, 1);
        let c = fast_coordinator(&fx);
        c.on_failure(&report("kvs.wal", FailureKind::Stuck));
        // Pile more blame onto the same component while the ladder runs.
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(10));
            c.on_failure(&report("kvs.wal", FailureKind::Stuck));
        }
        assert!(c.wait_idle(Duration::from_secs(5)));
        let incidents = c.incidents();
        assert_eq!(incidents.len(), 1, "same-component reports coalesce");
        assert!(incidents[0].reports >= 2);
        c.stop();
    }

    #[test]
    fn telemetry_records_rungs_mttr_and_flight() {
        let fx = Fixture::new(false, 1);
        let registry = TelemetryRegistry::shared();
        let c = RecoveryCoordinator::builder(RealClock::shared(), fx.surface())
            .default_policy(RecoveryPolicy::fast())
            .telemetry(Arc::clone(&registry))
            .seed(7)
            .start();
        c.on_failure(&report("kvs.compaction", FailureKind::Stuck));
        assert!(c.wait_idle(Duration::from_secs(5)));
        c.stop();

        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(RECOVERY_OUTCOME_METRIC, "verified-recovered"),
            Some(1)
        );
        assert_eq!(snap.counter(RECOVERY_RUNG_METRIC, "retry"), Some(2));
        assert_eq!(snap.counter(RECOVERY_RUNG_METRIC, "restart"), Some(1));
        assert_eq!(snap.counter(RECOVERY_VERIFICATION_METRIC, "fail"), Some(2));
        assert_eq!(snap.counter(RECOVERY_VERIFICATION_METRIC, "pass"), Some(1));
        let mttr = snap
            .histogram(RECOVERY_MTTR_METRIC, "kvs.compaction")
            .expect("mttr histogram");
        assert_eq!(mttr.count, 1);
        let kinds: Vec<&str> = snap.flight.iter().map(|e| e.kind.as_str()).collect();
        assert!(kinds.contains(&"incident-open"));
        assert!(kinds.contains(&"incident-close"));
    }

    #[test]
    fn missing_verifier_fails_closed() {
        let fx = Fixture::new(true, u64::MAX);
        let surface = RecoverySurface {
            verifier: Arc::new(|_c: &ComponentId| None),
            ..fx.surface()
        };
        let c = RecoveryCoordinator::builder(RealClock::shared(), surface)
            .default_policy(RecoveryPolicy::fast())
            .start();
        c.on_failure(&report("kvs.listener", FailureKind::Error));
        assert!(c.wait_idle(Duration::from_secs(10)));
        // Healthy component, but nothing can *prove* it: never marked
        // verified-recovered.
        let i = &c.incidents()[0];
        assert_ne!(i.outcome, RecoveryOutcome::VerifiedRecovered);
        assert!(!i.verified);
        c.stop();
    }
}
