//! The request-processor chain: prep → sync → final.
//!
//! Writes flow through a single ordered pipeline thread, as in ZooKeeper's
//! processor chain: `PrepRequestProcessor` assigns the zxid,
//! `SyncRequestProcessor` makes transactions durable in the txn log, and
//! `FinalRequestProcessor` applies each to the [`DataTree`](crate::datatree::DataTree) (taking the
//! write-serialization lock) and enqueues the commit for broadcast.
//!
//! Like ZooKeeper's `SyncRequestProcessor`, the sync stage group-commits:
//! the pipeline takes every queued transaction (up to `MAX_BATCH`) at
//! once, logs all their frames with one append and one fsync, and only
//! after that fsync returns applies and acknowledges each of them in zxid
//! order. No client is acked before its transaction is durable; a failed
//! append or fsync fails every transaction of the batch, and none of them
//! is applied.
//!
//! Because the pipeline is ordered, one transaction blocked inside the
//! final processor — e.g. on a write lock held by a wedged snapshot sync —
//! hangs *all* write request processing: the ZOOKEEPER-2201 observable.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use wdog_base::error::{BaseError, BaseResult};
use wdog_base::queue::ClockedQueue;

use wdog_core::prelude::*;

use crate::quorum::ZkShared;

/// A write operation submitted to the pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WriteOp {
    /// Create a znode.
    Create {
        /// Path to create.
        path: String,
        /// Initial data.
        data: Vec<u8>,
    },
    /// Overwrite a znode's data.
    SetData {
        /// Path to update.
        path: String,
        /// New data.
        data: Vec<u8>,
    },
}

impl WriteOp {
    /// Returns the path the op touches.
    pub fn path(&self) -> &str {
        match self {
            WriteOp::Create { path, .. } | WriteOp::SetData { path, .. } => path,
        }
    }

    /// Encodes the op for the txn log.
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("op encoding is infallible")
    }

    /// Decodes an op from the txn log.
    pub fn decode(bytes: &[u8]) -> BaseResult<Self> {
        serde_json::from_slice(bytes)
            .map_err(|e| BaseError::Corruption(format!("undecodable txn: {e}")))
    }
}

/// A pipeline work item: the op plus the client's reply queue.
pub(crate) type PipelineItem = (WriteOp, ClockedQueue<BaseResult<u64>>);

/// Most transactions one txn-log group commit makes durable together — the
/// flush threshold of ZooKeeper's `SyncRequestProcessor`.
const MAX_BATCH: usize = 1000;

/// The pipeline thread body.
pub(crate) fn processor_loop(shared: Arc<ZkShared>, rx: ClockedQueue<PipelineItem>) {
    while shared.is_running() {
        let batch = rx.pop_batch(Duration::from_millis(10), MAX_BATCH);
        if !batch.is_empty() {
            process_request(&shared, batch);
        }
    }
}

/// Runs one batch of transactions through all three processors and
/// replies to each client: every reply follows the batch's fsync.
pub(crate) fn process_request(shared: &Arc<ZkShared>, batch: Vec<PipelineItem>) {
    let txns: Vec<(u64, PipelineItem)> = batch
        .into_iter()
        .map(|item| (prep_request(shared), item))
        .collect();
    if let Err(e) = sync_txn(shared, &txns) {
        for (_, (_, reply)) in txns {
            let _ = reply.push(Err(e.clone()));
        }
        return;
    }
    for (zxid, (op, reply)) in txns {
        let _ = reply.push(final_apply(shared, zxid, op).map(|()| zxid));
    }
}

/// Prep processor: assigns the transaction id.
fn prep_request(shared: &Arc<ZkShared>) -> u64 {
    shared.next_zxid.fetch_add(1, Ordering::Relaxed)
}

/// Sync processor: makes a batch of transactions durable in the txn log
/// with one append and one fsync.
fn sync_txn(shared: &Arc<ZkShared>, txns: &[(u64, PipelineItem)]) -> BaseResult<()> {
    let mut frames = Vec::new();
    for (zxid, (op, _)) in txns {
        let payload = op.encode();
        // Watchdog hook before the vulnerable append (generated plan
        // point), once per transaction.
        let hook_payload = payload.clone();
        if let Some(mut fire) = shared.txn_hook.fire() {
            fire.field("txn_payload", CtxValue::Bytes(hook_payload))
                .field("zxid", CtxValue::U64(*zxid));
        }
        frames.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frames.extend_from_slice(&payload);
    }
    shared.disk.append("txnlog/log", &frames)?;
    shared.disk.fsync("txnlog/log")?;
    shared
        .stats
        .txns_logged
        .fetch_add(txns.len() as u64, Ordering::Relaxed);
    Ok(())
}

/// Final processor: applies to the tree and enqueues the commit broadcast.
fn final_apply(shared: &Arc<ZkShared>, zxid: u64, op: WriteOp) -> BaseResult<()> {
    // This is where ZOOKEEPER-2201 hangs: the tree's write-serialization
    // lock is taken inside `create`/`set_data`.
    match &op {
        WriteOp::Create { path, data } => shared.tree.create(path, data.clone())?,
        WriteOp::SetData { path, data } => shared.tree.set_data(path, data.clone())?,
    }
    shared.stats.writes_applied.fetch_add(1, Ordering::Relaxed);
    let _ = shared.broadcast_q.push((zxid, op));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_roundtrip() {
        let op = WriteOp::SetData {
            path: "/a".into(),
            data: b"x".to_vec(),
        };
        assert_eq!(WriteOp::decode(&op.encode()).unwrap(), op);
        assert_eq!(op.path(), "/a");
        assert!(WriteOp::decode(b"junk").is_err());
    }
}
