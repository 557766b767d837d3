//! The partition manager: the registry of live SSTables.
//!
//! The paper's §3.3 names two checks over partitions: checksum validation
//! (worth a watchdog checker, because partitions "may be corrupted in
//! production due to either hardware problems or unexpected code bugs") and
//! key-range ordering (logically deterministic — unit-test material, which
//! [`PartitionManager::ordering_violations`] makes testable). Both live
//! here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use simio::disk::SimDisk;

use wdog_base::error::{BaseError, BaseResult};

use crate::sstable::{validate_sstable, SstMeta};

/// Tracks the set of live SSTables in creation order.
pub struct PartitionManager {
    disk: Arc<SimDisk>,
    tables: Mutex<Vec<SstMeta>>,
    next_id: AtomicU64,
}

impl PartitionManager {
    /// Creates an empty manager over `disk`.
    pub fn new(disk: Arc<SimDisk>) -> Self {
        Self {
            disk,
            tables: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
        }
    }

    /// Reserves the path for the next SSTable.
    pub fn next_path(&self) -> String {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        format!("sst/{id:08}")
    }

    /// Registers a freshly written table.
    pub fn register(&self, meta: SstMeta) {
        self.tables.lock().push(meta);
    }

    /// Ensures future [`PartitionManager::next_path`] ids exceed `id`.
    ///
    /// Used by recovery so fresh tables never collide with files found on
    /// disk.
    pub fn ensure_next_id_above(&self, id: u64) {
        self.next_id.fetch_max(id + 1, Ordering::Relaxed);
    }

    /// Returns metadata for all live tables, oldest first.
    pub fn tables(&self) -> Vec<SstMeta> {
        self.tables.lock().clone()
    }

    /// Returns the number of live tables.
    pub fn table_count(&self) -> usize {
        self.tables.lock().len()
    }

    /// Atomically replaces `old_paths` with `replacement` in the registry
    /// and removes the old files from disk. Used by compaction.
    pub fn replace(&self, old_paths: &[String], replacement: SstMeta) -> BaseResult<()> {
        {
            let mut tables = self.tables.lock();
            tables.retain(|t| !old_paths.contains(&t.path));
            tables.push(replacement);
            tables.sort_by(|a, b| a.path.cmp(&b.path));
        }
        for p in old_paths {
            self.disk.remove(p)?;
        }
        Ok(())
    }

    /// Validates the checksum of every live table; returns the first error.
    ///
    /// This is the paper's "checker that computes and validates the checksum
    /// of each partition".
    ///
    /// A table that compaction replaced and removed after the registry was
    /// read is no longer live, so its missing file is not a failure.
    pub fn validate_all(&self) -> BaseResult<()> {
        let tables = self.tables();
        for t in &tables {
            match validate_sstable(&self.disk, &t.path) {
                Err(BaseError::NotFound(_)) if !self.is_live(&t.path) => {}
                result => result?,
            }
        }
        Ok(())
    }

    fn is_live(&self, path: &str) -> bool {
        self.tables.lock().iter().any(|t| t.path == path)
    }

    /// Returns key-range ordering violations between adjacent tables — the
    /// logically deterministic invariant the paper assigns to unit testing
    /// rather than to watchdog checking.
    pub fn ordering_violations(&self) -> Vec<String> {
        let tables = self.tables();
        let mut out = Vec::new();
        for t in &tables {
            if t.entries > 0 && t.min_key > t.max_key {
                out.push(format!("{}: min {} > max {}", t.path, t.min_key, t.max_key));
            }
        }
        out
    }
}

impl std::fmt::Debug for PartitionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionManager")
            .field("tables", &self.table_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::write_sstable;

    fn entries(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn next_path_is_monotone() {
        let pm = PartitionManager::new(SimDisk::for_tests());
        let a = pm.next_path();
        let b = pm.next_path();
        assert!(a < b);
        assert!(a.starts_with("sst/"));
    }

    #[test]
    fn register_and_list_in_order() {
        let disk = SimDisk::for_tests();
        let pm = PartitionManager::new(Arc::clone(&disk));
        for _ in 0..3 {
            let p = pm.next_path();
            let meta = write_sstable(&disk, &p, &entries(&[("a", "1")])).unwrap();
            pm.register(meta);
        }
        assert_eq!(pm.table_count(), 3);
        let paths: Vec<String> = pm.tables().iter().map(|t| t.path.clone()).collect();
        assert!(paths.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn replace_swaps_registry_and_deletes_files() {
        let disk = SimDisk::for_tests();
        let pm = PartitionManager::new(Arc::clone(&disk));
        let p1 = pm.next_path();
        let p2 = pm.next_path();
        pm.register(write_sstable(&disk, &p1, &entries(&[("a", "1")])).unwrap());
        pm.register(write_sstable(&disk, &p2, &entries(&[("b", "2")])).unwrap());
        let merged_path = pm.next_path();
        let merged =
            write_sstable(&disk, &merged_path, &entries(&[("a", "1"), ("b", "2")])).unwrap();
        pm.replace(&[p1.clone(), p2.clone()], merged).unwrap();
        assert_eq!(pm.table_count(), 1);
        assert!(!disk.exists(&p1));
        assert!(!disk.exists(&p2));
        assert!(disk.exists(&merged_path));
    }

    #[test]
    fn validate_all_passes_on_clean_tables() {
        let disk = SimDisk::for_tests();
        let pm = PartitionManager::new(Arc::clone(&disk));
        let p = pm.next_path();
        pm.register(write_sstable(&disk, &p, &entries(&[("a", "1")])).unwrap());
        pm.validate_all().unwrap();
    }

    #[test]
    fn validate_all_catches_bit_rot() {
        let disk = SimDisk::for_tests();
        let pm = PartitionManager::new(Arc::clone(&disk));
        let p = pm.next_path();
        pm.register(write_sstable(&disk, &p, &entries(&[("a", "1")])).unwrap());
        // Corrupt the stored file directly.
        let mut raw = disk.read(&p).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        disk.write_all(&p, &raw).unwrap();
        assert!(pm.validate_all().is_err());
    }

    #[test]
    fn validate_all_skips_tables_compacted_away_mid_scan() {
        use simio::disk::{DiskFault, DiskOpKind, FaultRule};
        let disk = SimDisk::for_tests();
        let pm = Arc::new(PartitionManager::new(Arc::clone(&disk)));
        let paths: Vec<String> = (0..3).map(|_| pm.next_path()).collect();
        for (i, p) in paths.iter().enumerate() {
            pm.register(write_sstable(&disk, p, &entries(&[(&format!("k{i}"), "v")])).unwrap());
        }
        // Hold the scan on the first table's read while compaction replaces
        // (and deletes) the other two.
        let hold = disk.inject(FaultRule::scoped(
            paths[0].clone(),
            vec![DiskOpKind::Read],
            DiskFault::Stuck,
        ));
        let reads_before = disk.op_stats().read.calls;
        let scan = {
            let pm = Arc::clone(&pm);
            std::thread::spawn(move || pm.validate_all())
        };
        while disk.op_stats().read.calls == reads_before {
            std::thread::yield_now();
        }
        let merged = pm.next_path();
        let meta = write_sstable(&disk, &merged, &entries(&[("k1", "v"), ("k2", "v")])).unwrap();
        pm.replace(&paths[1..], meta).unwrap();
        disk.clear(hold);
        scan.join().unwrap().unwrap();

        // A live table whose file is missing is still a failure.
        disk.remove(&merged).unwrap();
        assert!(matches!(pm.validate_all(), Err(BaseError::NotFound(_))));
    }

    #[test]
    fn no_ordering_violations_on_valid_tables() {
        let disk = SimDisk::for_tests();
        let pm = PartitionManager::new(Arc::clone(&disk));
        let p = pm.next_path();
        pm.register(write_sstable(&disk, &p, &entries(&[("a", "1"), ("z", "2")])).unwrap());
        assert!(pm.ordering_violations().is_empty());
    }

    #[test]
    fn ordering_violation_detected_on_bad_metadata() {
        let disk = SimDisk::for_tests();
        let pm = PartitionManager::new(Arc::clone(&disk));
        pm.register(SstMeta {
            path: "sst/bad".into(),
            entries: 2,
            min_key: "z".into(),
            max_key: "a".into(),
            checksum: 0,
            bytes: 0,
        });
        assert_eq!(pm.ordering_violations().len(), 1);
    }
}
