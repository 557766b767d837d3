//! The `WatchdogTarget` trait layer.
//!
//! Every instrumented system — the LSM store (`kvs`), the coordination
//! service (`minizk`), the block store (`miniblock`) — provides the same
//! ingredients to AutoWatchdog and to the experiment harness: an IR
//! self-description, real-operation implementations behind the generated
//! plan, hand-written probe/signal checkers, a fault-application surface,
//! and a steady workload. This crate names that contract so the harness can
//! run one generic campaign over `&dyn WatchdogTarget` instead of one
//! hand-rolled runner per system.
//!
//! The split is two-level:
//!
//! - [`WatchdogTarget`] is the *static* side: what the system is
//!   (name, IR, tuned options, fault catalogue) and how to boot one
//!   instance of it.
//! - [`TargetInstance`] is one *booted* testbed: simulated disk/net wired
//!   up, replicas spawned, ready to build a watchdog, take faults, and
//!   serve workload.

use std::sync::Arc;

use wdog_base::clock::SharedClock;
use wdog_base::error::BaseResult;

use wdog_core::prelude::*;
use wdog_gen::ir::ProgramIr;
use wdog_gen::plan::WatchdogPlan;

use faults::catalog::{gray_failure_catalog, Scenario, TargetProfile};
use faults::injector::Injector;
use faults::spec::FaultKind;

pub mod options;
pub mod supervise;
pub mod workload;

pub use options::{Families, WdOptions};
pub use supervise::Supervised;
pub use workload::{
    spawn_workload, spawn_workload_on, RequestFn, WorkloadHandle, WorkloadProfile, WorkloadTicket,
};

/// Re-exported so targets and campaign runners share one recovery contract
/// without depending on `wdog-recover` directly.
pub use wdog_recover::{RecoverySurface, VerifierFactory};

/// Instantiates the inferred checker family from the mined specs riding in
/// `opts.inferred`.
///
/// Shared by every target's `build_watchdog`: specs carry their own identity
/// (id, blamed component, context key), so instantiation is uniform — the
/// target only contributes the context reader the checkers evaluate
/// against. Returns an empty vector when the family is disabled or no specs
/// were supplied (the default for every campaign that has not run
/// `wdog-infer`).
pub fn inferred_checkers(opts: &WdOptions, reader: &ContextReader) -> Vec<Box<dyn Checker>> {
    if !opts.families.inferred {
        return Vec::new();
    }
    opts.inferred
        .iter()
        .map(|spec| {
            Box::new(wdog_checkers::InferredChecker::new(
                spec.clone(),
                reader.clone(),
            )) as Box<dyn Checker>
        })
        .collect()
}

/// A full API round trip against the target, for the external-probe
/// baseline detector (matches `detectors::probe_client::ProbeFn`).
pub type ApiProbe = Arc<dyn Fn() -> BaseResult<()> + Send + Sync>;

/// A cheap is-the-process-alive check, for the heartbeat baseline detector
/// (matches `detectors::heartbeat::BeatFn`).
pub type LivenessProbe = Arc<dyn Fn() -> bool + Send + Sync>;

/// Receives each workload request outcome (`true` = success); campaign
/// runners wire this to the client-complaint baseline.
pub type WorkloadObserver = Arc<dyn Fn(bool) + Send + Sync>;

/// Invoked when a `ProcessCrash` fault fires so the instance can stop its
/// process-level activity.
pub type CrashSignal = Arc<dyn Fn() + Send + Sync>;

/// Which fault classes a target's testbed can physically apply.
///
/// Used to filter the shared gray-failure catalogue down to scenarios a
/// target can actually run: filtering is by *injectability* only —
/// whether a detector catches the fault stays an experimental outcome,
/// never a reason to drop a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSurface {
    /// Simulated-disk faults (stuck/slow/error/corrupt) can land.
    pub disk: bool,
    /// Simulated-network faults (block/drop/slow) can land.
    pub net: bool,
    /// The process stall point (runtime-pause analog) is wired.
    pub stall: bool,
    /// Cooperative fault toggles (task-stuck, busy-loop, logic-corruption,
    /// memory-leak) are polled by the target's code.
    pub toggles: bool,
    /// A crash hook stops the process.
    pub crash: bool,
}

impl FaultSurface {
    /// Everything wired — the `kvs` reference target.
    pub const FULL: Self = Self {
        disk: true,
        net: true,
        stall: true,
        toggles: true,
        crash: true,
    };

    /// Substrate faults plus crash only — targets without cooperative
    /// toggles or a stall point.
    pub const SUBSTRATE: Self = Self {
        disk: true,
        net: true,
        stall: false,
        toggles: false,
        crash: true,
    };

    /// Whether `kind` can be applied on this surface.
    pub fn supports(&self, kind: &FaultKind) -> bool {
        match kind {
            FaultKind::ProcessCrash => self.crash,
            FaultKind::DiskStuck { .. }
            | FaultKind::DiskSlow { .. }
            | FaultKind::DiskError { .. }
            | FaultKind::DiskCorruptWrites { .. } => self.disk,
            FaultKind::NetBlockSend { .. }
            | FaultKind::NetDrop { .. }
            | FaultKind::NetSlow { .. } => self.net,
            FaultKind::RuntimePause { .. } => self.stall,
            FaultKind::TaskStuck { .. }
            | FaultKind::TaskBusyLoop { .. }
            | FaultKind::LogicCorruption { .. }
            | FaultKind::MemoryLeak { .. } => self.toggles,
        }
    }
}

/// The shared gray-failure catalogue specialized to a target: scenario
/// locations come from `profile`, and scenarios whose fault class the
/// target's `surface` cannot apply are dropped.
pub fn catalog_for(profile: &TargetProfile, surface: FaultSurface) -> Vec<Scenario> {
    gray_failure_catalog(profile)
        .into_iter()
        .filter(|s| surface.supports(&s.kind))
        .collect()
}

/// A system that AutoWatchdog can instrument and the harness can campaign
/// against.
pub trait WatchdogTarget: Send + Sync {
    /// Stable short name (`kvs`, `minizk`, `miniblock`) used in table file
    /// names and `--target` selectors.
    fn name(&self) -> &'static str;

    /// The program self-description consumed by program logic reduction.
    fn describe_ir(&self) -> ProgramIr;

    /// The options tuned for this target's latency envelope — what the
    /// target's historical per-system options struct defaulted to.
    fn default_options(&self) -> WdOptions;

    /// The gray-failure scenarios this target can run, with locations
    /// (path prefixes, link addresses, toggles, blame hints) mapped onto
    /// this target's layout.
    fn catalog(&self) -> Vec<Scenario>;

    /// The canonical blameable components of this target, as substrings a
    /// report location can be matched against. Chaos campaigns use this
    /// for *wrong-component* pinpoint accounting: a report that blames a
    /// known component which no active fault implicates is a mislocated
    /// detection, not background noise. The default derives the list from
    /// the catalogue's blame hints; targets override it to name components
    /// the shared catalogue never hints at.
    fn components(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .catalog()
            .into_iter()
            .map(|s| s.expected.component_hint)
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// The cluster → process → component kill hierarchy for this target's
    /// testbed. The default is the canonical single-process shape: the sole
    /// process hosts the in-process watchdog, so its guard vetoes process-
    /// and cluster-level kills while component kills stay available to
    /// fault schedules. Campaign composition consults this instead of
    /// hard-coding which fault classes are in scope.
    fn kill_hierarchy(&self) -> simio::KillHierarchy {
        simio::KillHierarchy::single_process(self.name(), &self.components())
    }

    /// Boots one isolated testbed instance seeded with `seed` on the real
    /// clock. Prefer [`WatchdogTarget::start_on`] when the caller owns the
    /// clock (simulation, virtual-time tests).
    fn start(&self, seed: u64) -> BaseResult<Box<dyn TargetInstance>> {
        self.start_on(seed, wdog_base::clock::RealClock::shared())
    }

    /// Boots one isolated testbed instance seeded with `seed`, with every
    /// background loop, latency model, and substrate paced by `clock`.
    fn start_on(&self, seed: u64, clock: SharedClock) -> BaseResult<Box<dyn TargetInstance>>;
}

/// One booted testbed of a [`WatchdogTarget`].
pub trait TargetInstance: Send {
    /// The instance's clock (shared with its simulated I/O).
    fn clock(&self) -> SharedClock;

    /// Assembles the full in-process watchdog — generated plan reduced from
    /// the IR, instantiated over the real-op table, plus the hand-written
    /// families `opts.families` enables — and starts its driver.
    fn build_watchdog(&self, opts: &WdOptions) -> BaseResult<(WatchdogDriver, WatchdogPlan)>;

    /// A fault injector wired to every surface this instance supports;
    /// `on_crash` fires when a `ProcessCrash` fault arms.
    fn injector(&self, on_crash: CrashSignal) -> Injector;

    /// Starts the steady workload; request outcomes go to `observer`.
    fn start_workload(&mut self, profile: &WorkloadProfile, observer: Option<WorkloadObserver>);

    /// The hot client request path for the open-loop load plane
    /// (`harness::load` / `wdog-load`): the same request mix as the steady
    /// workload, but returned as a bare closure so the load generator owns
    /// pacing, threading, and latency accounting. Implementations prepare
    /// a key space of `keys` entries so every ticket in `[0, keys)` hits a
    /// real object. `None` when the instance serves no high-rate client
    /// surface.
    fn load_surface(&self, _keys: usize) -> Option<RequestFn> {
        None
    }

    /// Arms or disarms every hook site on the instance — the load plane's
    /// disarmed baseline flips this off to measure the bare request path.
    /// The default does nothing (no hooks to toggle).
    fn set_hooks_enabled(&self, _enabled: bool) {}

    /// Arms trace recording on the instance's hooks: every context publish
    /// is journaled into `recorder` for `wdog-infer` to mine. Returns
    /// whether the instance supports tracing; the default does nothing and
    /// reports `false` (no hooks to trace).
    fn attach_trace(&self, _recorder: &std::sync::Arc<wdog_core::TraceRecorder>) -> bool {
        false
    }

    /// Fires auxiliary code paths the steady workload never reaches
    /// (follower snapshot syncs, scrub passes, ...), without blocking —
    /// work is kicked onto the instance's own threads. Trace recording
    /// calls this mid-run so inferred invariants cover those loops too.
    /// Returns whether anything was driven; the default has nothing to
    /// drive and reports `false`.
    fn exercise_auxiliary(&self) -> bool {
        false
    }

    /// `(ok, failed)` workload request counts so far.
    fn workload_counters(&self) -> (u64, u64);

    /// Stops and joins the workload threads.
    fn stop_workload(&mut self);

    /// Raises every stop flag — workload and background loops — without
    /// joining anything. Under a simulated clock a harness calls this while
    /// virtual time is frozen so all loops observe the same stop instant;
    /// the blocking joins ([`TargetInstance::stop_workload`],
    /// [`TargetInstance::teardown`]) follow after the caller deregisters
    /// from the clock. The default does nothing.
    fn request_stop(&self) {}

    /// A full client round trip for the external-probe baseline.
    fn api_probe(&self) -> ApiProbe;

    /// A process-liveness check for the heartbeat baseline.
    fn liveness_probe(&self) -> LivenessProbe;

    /// How many errors the target's own error handling has absorbed —
    /// campaign scoring uses this to detect silently-masked faults.
    fn errors_handled(&self) -> u64;

    /// The component-scoped recovery surface — restart/degrade handles plus
    /// verification re-checks — for the closed-loop recovery coordinator.
    /// `None` means the instance supports detection only.
    fn recovery_surface(&self) -> Option<RecoverySurface> {
        None
    }

    /// Per-op call/fault counter tables from the instance's simulated
    /// substrates, `(disk, net)` — the turso-style `nr_*_calls` /
    /// `nr_*_faults` accounting that campaign telemetry exports as the
    /// `sim_io_*` families. `None` when the instance runs on no simulated
    /// I/O.
    fn io_stats(&self) -> Option<(simio::disk::DiskOpStats, simio::net::NetOpStats)> {
        None
    }

    /// Clears every armed fault on the instance's surfaces (used at
    /// teardown so background threads can drain).
    fn clear_faults(&self);

    /// Stops the system's own threads (replicas, pipelines, servers).
    fn teardown(&mut self);
}

/// A booted system a campaign testbed tears down: a [`TargetInstance`],
/// or a packaged reproduction rig that is not one.
pub trait Rig {
    /// Clears every fault surface so wedged threads can drain.
    fn clear_faults(&self);
    /// Raises every stop flag without blocking.
    fn request_stop(&self);
    /// Stops and joins the workload.
    fn stop_workload(&mut self);
    /// Joins whatever the system still runs.
    fn teardown(&mut self);
}

impl Rig for Box<dyn TargetInstance> {
    fn clear_faults(&self) {
        self.as_ref().clear_faults();
    }

    fn request_stop(&self) {
        self.as_ref().request_stop();
    }

    fn stop_workload(&mut self) {
        self.as_mut().stop_workload();
    }

    fn teardown(&mut self) {
        self.as_mut().teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surfaces_gate_fault_kinds() {
        assert!(FaultSurface::FULL.supports(&FaultKind::RuntimePause { millis: 1 }));
        assert!(!FaultSurface::SUBSTRATE.supports(&FaultKind::RuntimePause { millis: 1 }));
        assert!(!FaultSurface::SUBSTRATE.supports(&FaultKind::TaskStuck { toggle: "t".into() }));
        assert!(FaultSurface::SUBSTRATE.supports(&FaultKind::ProcessCrash));
        assert!(FaultSurface::SUBSTRATE.supports(&FaultKind::DiskStuck {
            path_prefix: String::new()
        }));
    }

    #[test]
    fn substrate_catalog_is_a_strict_subset() {
        let p = TargetProfile::default();
        let full = catalog_for(&p, FaultSurface::FULL);
        let sub = catalog_for(&p, FaultSurface::SUBSTRATE);
        assert_eq!(full.len(), gray_failure_catalog(&p).len());
        assert!(sub.len() < full.len());
        for s in &sub {
            assert!(full.iter().any(|f| f.id == s.id));
        }
        // The crash baseline must survive substrate filtering.
        assert!(sub.iter().any(|s| s.id == "process-crash"));
    }
}
