//! The extrinsic heartbeat protocol around the leader.
//!
//! [`HeartbeatProber`] is the crash-failure-detector side: it pings the
//! leader's responder endpoint on its own channel and tracks the last reply.
//! During ZOOKEEPER-2201 the responder thread is unaffected by the wedged
//! write path, so this detector reports the leader healthy for the entire
//! failure — the paper's headline negative result for extrinsic detection.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use simio::net::SimNet;

use wdog_base::clock::SharedClock;

use crate::msg::ZkMsg;
use crate::quorum::LEADER_ADDR;

/// An external heartbeat monitor for the minizk leader.
pub struct HeartbeatProber {
    last_pong: Arc<Mutex<Option<Duration>>>,
    pings_sent: Arc<AtomicU64>,
    pongs_seen: Arc<AtomicU64>,
    clock: SharedClock,
    suspect_after: Duration,
    running: Arc<AtomicBool>,
    threads: Vec<wdog_base::Spawned<()>>,
}

impl HeartbeatProber {
    /// Starts pinging the leader every `interval`; the leader is suspected
    /// once no pong has arrived for `suspect_after`.
    pub fn start(
        net: SimNet,
        clock: SharedClock,
        addr: impl Into<String>,
        interval: Duration,
        suspect_after: Duration,
    ) -> Self {
        let addr = addr.into();
        let mailbox = net.register(addr.clone());
        let last_pong = Arc::new(Mutex::new(None));
        let pings_sent = Arc::new(AtomicU64::new(0));
        let pongs_seen = Arc::new(AtomicU64::new(0));
        let running = Arc::new(AtomicBool::new(true));

        let mut threads = Vec::new();
        // Pinger.
        {
            let net = net.clone();
            let spawn_clock = Arc::clone(&clock);
            let loop_clock = Arc::clone(&clock);
            let running = Arc::clone(&running);
            let pings = Arc::clone(&pings_sent);
            let addr = addr.clone();
            threads.push(wdog_base::clock::spawn_on(
                &spawn_clock,
                "hb-pinger",
                move || {
                    let mut seq = 0u64;
                    while running.load(Ordering::Relaxed) {
                        seq += 1;
                        let _ = net.send(&addr, LEADER_ADDR, ZkMsg::Ping { seq }.encode());
                        pings.fetch_add(1, Ordering::Relaxed);
                        loop_clock.sleep(interval);
                    }
                },
            ));
        }
        // Pong collector.
        {
            let spawn_clock = Arc::clone(&clock);
            let loop_clock = Arc::clone(&clock);
            let running = Arc::clone(&running);
            let last = Arc::clone(&last_pong);
            let pongs = Arc::clone(&pongs_seen);
            threads.push(wdog_base::clock::spawn_on(
                &spawn_clock,
                "hb-collector",
                move || {
                    while running.load(Ordering::Relaxed) {
                        let Some(m) = mailbox.recv_timeout(Duration::from_millis(10)) else {
                            continue;
                        };
                        if let Ok(ZkMsg::Pong { .. }) = ZkMsg::decode(&m.payload) {
                            *last.lock() = Some(loop_clock.now());
                            pongs.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                },
            ));
        }

        Self {
            last_pong,
            pings_sent,
            pongs_seen,
            clock,
            suspect_after,
            running,
            threads,
        }
    }

    /// Returns `true` while the leader looks alive to this detector.
    pub fn leader_healthy(&self) -> bool {
        match *self.last_pong.lock() {
            Some(t) => self.clock.now().saturating_sub(t) <= self.suspect_after,
            None => {
                // Grace period before the first pong.
                self.pings_sent.load(Ordering::Relaxed) < 3
            }
        }
    }

    /// Returns `(pings sent, pongs seen)`.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.pings_sent.load(Ordering::Relaxed),
            self.pongs_seen.load(Ordering::Relaxed),
        )
    }

    /// Raises the stop flag without joining (virtual-time teardown).
    pub fn request_stop(&self) {
        self.running.store(false, Ordering::Relaxed);
    }

    /// Stops the prober threads.
    pub fn stop(&mut self) {
        self.request_stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for HeartbeatProber {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for HeartbeatProber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeartbeatProber")
            .field("healthy", &self.leader_healthy())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quorum::Cluster;
    use simio::disk::SimDisk;
    use wdog_base::clock::RealClock;

    fn wait_for(pred: impl Fn() -> bool, what: &str) {
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_secs(5) {
            if pred() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn healthy_leader_stays_healthy() {
        let net = SimNet::for_tests();
        let _cluster = Cluster::start(
            crate::quorum::ClusterConfig::default(),
            RealClock::shared(),
            SimDisk::for_tests(),
            net.clone(),
        )
        .unwrap();
        let prober = HeartbeatProber::start(
            net,
            RealClock::shared(),
            "hb-probe",
            Duration::from_millis(20),
            Duration::from_millis(200),
        );
        wait_for(|| prober.counters().1 >= 3, "pongs");
        assert!(prober.leader_healthy());
    }

    #[test]
    fn crashed_leader_is_suspected() {
        let net = SimNet::for_tests();
        let cluster = Cluster::start(
            crate::quorum::ClusterConfig::default(),
            RealClock::shared(),
            SimDisk::for_tests(),
            net.clone(),
        )
        .unwrap();
        let prober = HeartbeatProber::start(
            net,
            RealClock::shared(),
            "hb-probe",
            Duration::from_millis(20),
            Duration::from_millis(150),
        );
        wait_for(|| prober.counters().1 >= 2, "initial pongs");
        cluster.crash();
        wait_for(|| !prober.leader_healthy(), "suspicion after crash");
    }
}
