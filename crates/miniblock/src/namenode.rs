//! A minimal NameNode: block locations and DataNode liveness.
//!
//! Receives block reports and heartbeats over the simulated network. Its
//! liveness view is the classic extrinsic picture: a DataNode that
//! heartbeats is "healthy", no matter how many of its volumes are quietly
//! failing — the blindness the DataNode-side checkers exist to fix.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use simio::net::SimNet;

use wdog_base::clock::SharedClock;

/// The NameNode's network address.
pub const NAMENODE_ADDR: &str = "bb-namenode";

/// Messages DataNodes send to the NameNode.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NnMsg {
    /// Periodic liveness signal.
    Heartbeat {
        /// Sender DataNode id.
        datanode: String,
    },
    /// Full listing of blocks held.
    BlockReport {
        /// Sender DataNode id.
        datanode: String,
        /// Block ids held.
        blocks: Vec<u64>,
    },
}

impl NnMsg {
    /// Encodes for the wire.
    pub fn encode(&self) -> bytes::Bytes {
        bytes::Bytes::from(serde_json::to_vec(self).expect("encoding is infallible"))
    }

    /// Decodes from the wire.
    pub fn decode(raw: &[u8]) -> Option<Self> {
        serde_json::from_slice(raw).ok()
    }
}

struct NameNodeState {
    last_heartbeat: BTreeMap<String, Duration>,
    block_locations: BTreeMap<u64, BTreeSet<String>>,
    reports: u64,
}

/// A running NameNode.
pub struct NameNode {
    state: Arc<RwLock<NameNodeState>>,
    clock: SharedClock,
    suspect_after: Duration,
    running: Arc<AtomicBool>,
    thread: Option<wdog_base::Spawned<()>>,
}

impl NameNode {
    /// Starts a NameNode listening on [`NAMENODE_ADDR`].
    pub fn start(net: SimNet, clock: SharedClock, suspect_after: Duration) -> Self {
        let mailbox = net.register(NAMENODE_ADDR);
        let state = Arc::new(RwLock::new(NameNodeState {
            last_heartbeat: BTreeMap::new(),
            block_locations: BTreeMap::new(),
            reports: 0,
        }));
        let running = Arc::new(AtomicBool::new(true));
        let thread = {
            let state = Arc::clone(&state);
            let spawn_clock = Arc::clone(&clock);
            let clock = Arc::clone(&clock);
            let running = Arc::clone(&running);
            wdog_base::clock::spawn_on(&spawn_clock, "bb-namenode", move || {
                while running.load(Ordering::Relaxed) {
                    let Some(m) = mailbox.recv_timeout(Duration::from_millis(10)) else {
                        continue;
                    };
                    match NnMsg::decode(&m.payload) {
                        Some(NnMsg::Heartbeat { datanode }) => {
                            state.write().last_heartbeat.insert(datanode, clock.now());
                        }
                        Some(NnMsg::BlockReport { datanode, blocks }) => {
                            let mut st = state.write();
                            st.reports += 1;
                            for b in blocks {
                                st.block_locations
                                    .entry(b)
                                    .or_default()
                                    .insert(datanode.clone());
                            }
                            st.last_heartbeat.insert(datanode, clock.now());
                        }
                        None => {}
                    }
                }
            })
        };
        Self {
            state,
            clock,
            suspect_after,
            running,
            thread: Some(thread),
        }
    }

    /// Returns `true` if the NameNode considers `datanode` alive.
    pub fn datanode_alive(&self, datanode: &str) -> bool {
        let st = self.state.read();
        match st.last_heartbeat.get(datanode) {
            Some(t) => self.clock.now().saturating_sub(*t) <= self.suspect_after,
            None => false,
        }
    }

    /// Returns the DataNodes known to hold `block_id`.
    pub fn locations(&self, block_id: u64) -> Vec<String> {
        self.state
            .read()
            .block_locations
            .get(&block_id)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Returns the number of block reports processed.
    pub fn reports(&self) -> u64 {
        self.state.read().reports
    }

    /// Raises the stop flag without joining (virtual-time teardown).
    pub fn request_stop(&self) {
        self.running.store(false, Ordering::Relaxed);
    }

    /// Stops the NameNode thread.
    pub fn stop(&mut self) {
        self.running.store(false, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for NameNode {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for NameNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NameNode")
            .field("reports", &self.reports())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdog_base::clock::RealClock;

    #[test]
    fn heartbeats_mark_datanodes_alive() {
        let net = SimNet::for_tests();
        let nn = NameNode::start(net.clone(), RealClock::shared(), Duration::from_millis(200));
        assert!(!nn.datanode_alive("dn1"));
        net.send(
            "dn1",
            NAMENODE_ADDR,
            NnMsg::Heartbeat {
                datanode: "dn1".into(),
            }
            .encode(),
        )
        .unwrap();
        let start = std::time::Instant::now();
        while !nn.datanode_alive("dn1") && start.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(nn.datanode_alive("dn1"));
        // Silence leads to suspicion.
        std::thread::sleep(Duration::from_millis(300));
        assert!(!nn.datanode_alive("dn1"));
    }

    #[test]
    fn block_reports_register_locations() {
        let net = SimNet::for_tests();
        let nn = NameNode::start(net.clone(), RealClock::shared(), Duration::from_secs(5));
        net.send(
            "dn2",
            NAMENODE_ADDR,
            NnMsg::BlockReport {
                datanode: "dn2".into(),
                blocks: vec![1, 2, 3],
            }
            .encode(),
        )
        .unwrap();
        let start = std::time::Instant::now();
        while nn.reports() == 0 && start.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(nn.locations(2), vec!["dn2"]);
        assert!(nn.locations(99).is_empty());
    }
}
