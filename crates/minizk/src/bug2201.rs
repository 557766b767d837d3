//! The packaged ZOOKEEPER-2201 scenario (paper §4.2, experiment E4).
//!
//! Timeline: a healthy cluster serves a steady write workload; a follower
//! sync starts over a link the "network issue" has wedged; the serializer
//! blocks inside the write-serialization critical section; every write
//! hangs. The scenario records, second by second, what each detector says:
//!
//! - the **heartbeat protocol** and the **`ruok` admin command** stay green
//!   for the entire failure (the paper's negative result);
//! - the **generated watchdog** reports `Stuck`, pinpointed at
//!   `serialize_node [write_record]` with the blocked node path as concrete
//!   context, within seconds (the paper reports ~7 s with its configuration).
//!
//! [`Bug2201`] is the rig; the clock, the watchdog's lifecycle, and the
//! observation loop belong to the caller, so the reproduction runs on the
//! same virtual-time testbed as every other campaign.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use simio::disk::SimDisk;
use simio::net::{LinkRule, NetFault, SimNet};

use wdog_base::clock::{spawn_on, SharedClock};
use wdog_base::error::BaseResult;
use wdog_base::join::{join_timeout, Spawned};

use wdog_core::prelude::*;
use wdog_target::Rig;

use crate::heartbeat::HeartbeatProber;
use crate::quorum::{follower_addr, Cluster, ClusterConfig, LEADER_ADDR};
use crate::wd::{build_watchdog, default_zk_options, ZkWdOptions};

/// Scenario tunables.
#[derive(Debug, Clone)]
pub struct Bug2201Options {
    /// Watchdog checking interval (the paper's deployment used seconds).
    pub checker_interval: Duration,
    /// Watchdog checker execution timeout.
    pub checker_timeout: Duration,
    /// How long to observe after injecting the fault.
    pub observe_for: Duration,
    /// Number of znodes created under `/app` before the fault.
    pub tree_size: usize,
    /// Steady workload period between writes.
    pub write_period: Duration,
}

impl Default for Bug2201Options {
    fn default() -> Self {
        Self {
            checker_interval: Duration::from_secs(2),
            checker_timeout: Duration::from_secs(3),
            observe_for: Duration::from_secs(12),
            tree_size: 30,
            write_period: Duration::from_millis(50),
        }
    }
}

/// What the scenario measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bug2201Report {
    /// Milliseconds from fault injection to the watchdog's first stuck
    /// report; `None` if it never detected.
    pub watchdog_detection_ms: Option<u64>,
    /// The pinpointed location string of the first detection.
    pub pinpoint: Option<String>,
    /// Context payload captured with the detection.
    pub payload: Vec<(String, String)>,
    /// Whether the heartbeat detector reported the leader healthy at every
    /// sample during the failure.
    pub heartbeat_green_throughout: bool,
    /// Whether `ruok` answered `imok` at every sample.
    pub ruok_green_throughout: bool,
    /// Writes that succeeded before the fault.
    pub writes_before: u64,
    /// Writes that succeeded while the fault was active (should be ~0).
    pub writes_during: u64,
    /// Write attempts that timed out during the failure.
    pub write_timeouts: u64,
    /// Whether reads kept succeeding during the failure.
    pub reads_ok_during: bool,
}

/// Write outcomes and detector samples, shared with the workload thread.
/// Every flag starts `false`: no fault, no stop, nothing seen red.
#[derive(Debug, Default)]
struct Tally {
    writes_before: AtomicU64,
    writes_during: AtomicU64,
    write_timeouts: AtomicU64,
    fault_active: AtomicBool,
    stopping: AtomicBool,
    heartbeat_red: AtomicBool,
    ruok_red: AtomicBool,
    reads_failed: AtomicBool,
}

/// The booted scenario: a healthy cluster with its tree populated and the
/// heartbeat prober running. The caller owns the clock and the watchdog
/// driver and steps the rig through workload, injection, sampling, and
/// teardown (`harness::zk2201` does so on the campaign testbed).
pub struct Bug2201 {
    clock: SharedClock,
    net: SimNet,
    cluster: Arc<Cluster>,
    prober: HeartbeatProber,
    opts: Bug2201Options,
    tally: Arc<Tally>,
    workload: Option<Spawned<()>>,
}

impl Bug2201 {
    /// Boots the cluster on `clock`, populates `/app`, and starts the
    /// extrinsic heartbeat prober.
    pub fn boot(clock: SharedClock, opts: &Bug2201Options) -> BaseResult<Self> {
        let net = SimNet::new(simio::LatencyModel::new(50.0, 2201), Arc::clone(&clock));
        let disk = SimDisk::new(
            1 << 30,
            simio::LatencyModel::new(30.0, 1022),
            Arc::clone(&clock),
        );
        let cluster = Arc::new(Cluster::start(
            ClusterConfig {
                client_timeout: Duration::from_millis(500),
                ..ClusterConfig::default()
            },
            Arc::clone(&clock),
            disk,
            net.clone(),
        )?);
        cluster.create("/app", b"root")?;
        for i in 0..opts.tree_size {
            cluster.create(&format!("/app/n{i}"), b"initial")?;
        }
        let prober = HeartbeatProber::start(
            net.clone(),
            Arc::clone(&clock),
            "hb-probe",
            Duration::from_millis(200),
            Duration::from_secs(1),
        );
        Ok(Self {
            clock,
            net,
            cluster,
            prober,
            opts: opts.clone(),
            tally: Arc::default(),
            workload: None,
        })
    }

    /// Builds the generated watchdog at the scenario's interval and
    /// checker timeout (not started).
    pub fn build_watchdog(&self) -> BaseResult<WatchdogDriver> {
        let (driver, _plan) = build_watchdog(
            &self.cluster,
            &ZkWdOptions {
                interval: self.opts.checker_interval,
                checker_timeout: self.opts.checker_timeout,
                ..default_zk_options()
            },
        )?;
        Ok(driver)
    }

    /// Starts the steady write workload on its own clock actor.
    pub fn start_workload(&mut self) {
        let cluster = Arc::clone(&self.cluster);
        let tally = Arc::clone(&self.tally);
        let clock = Arc::clone(&self.clock);
        let period = self.opts.write_period;
        let tree_size = self.opts.tree_size.max(1) as u64;
        self.workload = Some(spawn_on(&self.clock, "zk2201-writer", move || {
            let mut i = 0u64;
            while !tally.stopping.load(Ordering::Relaxed) {
                let path = format!("/app/n{}", i % tree_size);
                let active = tally.fault_active.load(Ordering::Relaxed);
                match cluster.set_data(&path, format!("v{i}").as_bytes()) {
                    Ok(_) if active => tally.writes_during.fetch_add(1, Ordering::Relaxed),
                    Ok(_) => tally.writes_before.fetch_add(1, Ordering::Relaxed),
                    Err(_) if active => tally.write_timeouts.fetch_add(1, Ordering::Relaxed),
                    Err(_) => 0,
                };
                i += 1;
                clock.sleep(period);
            }
        }));
    }

    /// The fault: wedges the leader → follower-1 link and starts the sync
    /// that blocks inside the write-serialization critical section.
    pub fn inject(&self) {
        self.net.inject(LinkRule::link(
            LEADER_ADDR,
            follower_addr(1),
            NetFault::BlockSend,
        ));
        self.tally.fault_active.store(true, Ordering::Relaxed);
        // Fire-and-forget: the sync runs on its own clock actor and drains
        // once teardown clears the link.
        drop(self.cluster.sync_follower(1));
    }

    /// Takes one sample of the extrinsic views: heartbeat, `ruok`, reads.
    pub fn sample(&self) {
        let t = &self.tally;
        if !self.prober.leader_healthy() {
            t.heartbeat_red.store(true, Ordering::Relaxed);
        }
        if self.cluster.admin_ruok() != "imok" {
            t.ruok_red.store(true, Ordering::Relaxed);
        }
        if self.cluster.get_data("/app").is_err() {
            t.reads_failed.store(true, Ordering::Relaxed);
        }
    }

    /// Packages the measurements. `detection` is the watchdog's detection
    /// latency in milliseconds with the report that pinpoints it.
    pub fn report(&self, detection: Option<(u64, FailureReport)>) -> Bug2201Report {
        let t = &self.tally;
        let (watchdog_detection_ms, pinpoint, payload) = match detection {
            Some((ms, r)) => (Some(ms), Some(r.location.to_string()), r.payload),
            None => (None, None, Vec::new()),
        };
        Bug2201Report {
            watchdog_detection_ms,
            pinpoint,
            payload,
            heartbeat_green_throughout: !t.heartbeat_red.load(Ordering::Relaxed),
            ruok_green_throughout: !t.ruok_red.load(Ordering::Relaxed),
            writes_before: t.writes_before.load(Ordering::Relaxed),
            writes_during: t.writes_during.load(Ordering::Relaxed),
            write_timeouts: t.write_timeouts.load(Ordering::Relaxed),
            reads_ok_during: !t.reads_failed.load(Ordering::Relaxed),
        }
    }
}

impl Rig for Bug2201 {
    /// Clears the wedged link so blocked threads drain.
    fn clear_faults(&self) {
        self.net.clear_all();
    }

    /// Raises every stop flag — workload, prober, cluster — without
    /// joining anything.
    fn request_stop(&self) {
        self.tally.stopping.store(true, Ordering::Relaxed);
        self.prober.request_stop();
        self.cluster.request_stop();
    }

    /// Joins the workload thread.
    fn stop_workload(&mut self) {
        if let Some(w) = self.workload.take() {
            join_timeout(w, Duration::from_millis(500));
        }
    }

    /// Joins the prober; the cluster's threads are joined when the rig
    /// drops.
    fn teardown(&mut self) {
        self.prober.stop();
    }
}
