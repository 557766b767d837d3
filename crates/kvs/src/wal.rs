//! The checksummed write-ahead log.
//!
//! Records are framed as `[len: u32 LE][crc32: u32 LE][payload]` and
//! appended to a single log file a batch at a time: the frames of a batch go
//! down in one append followed by one fsync (group commit), so a batch is
//! durable as a whole or, after a crash before its fsync, lost as a whole.
//! Replay validates every checksum and stops at the first torn record (a
//! crash mid-append), so recovery after [`simio::SimDisk::crash`] yields
//! exactly the durable prefix.

use std::sync::Arc;

use simio::disk::SimDisk;

use wdog_base::checksum::crc32;
use wdog_base::error::{BaseError, BaseResult};

/// Frame header size: length + checksum.
const HEADER: usize = 8;

/// An append-only checksummed log over one [`SimDisk`] file.
pub struct Wal {
    disk: Arc<SimDisk>,
    path: String,
    appended_bytes: u64,
}

impl Wal {
    /// Opens (creating if needed) the log at `path`.
    pub fn new(disk: Arc<SimDisk>, path: impl Into<String>) -> Self {
        Self {
            disk,
            path: path.into(),
            appended_bytes: 0,
        }
    }

    /// Returns the log's path on the disk.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Returns bytes appended since the last [`Wal::truncate`].
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Appends a batch of records and makes them durable together: one
    /// append of every frame, then one fsync. On error no record of the
    /// batch has been made durable.
    // wdog: resource wal/
    pub fn append_record<R: AsRef<[u8]>>(&mut self, batch: &[R]) -> BaseResult<()> {
        let mut frames = Vec::new();
        for payload in batch {
            let payload = payload.as_ref();
            frames.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frames.extend_from_slice(&crc32(payload).to_le_bytes());
            frames.extend_from_slice(payload);
        }
        self.disk.append(&self.path, &frames)?;
        self.disk.fsync(&self.path)?;
        self.appended_bytes += frames.len() as u64;
        Ok(())
    }

    /// Replays all intact records from `path` on `disk`.
    ///
    /// Returns the decoded payloads. A truncated final record (torn write)
    /// ends replay silently; a checksum mismatch on a complete record is
    /// reported as [`BaseError::Corruption`]. A missing file replays empty.
    pub fn replay(disk: &SimDisk, path: &str) -> BaseResult<Vec<Vec<u8>>> {
        let data = match disk.read(path) {
            Ok(d) => d,
            Err(BaseError::NotFound(_)) => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut out = Vec::new();
        let mut off = 0usize;
        while off + HEADER <= data.len() {
            let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap()) as usize;
            let expected = u32::from_le_bytes(data[off + 4..off + 8].try_into().unwrap());
            let start = off + HEADER;
            if start + len > data.len() {
                break; // Torn final record: crash mid-append.
            }
            let payload = &data[start..start + len];
            if crc32(payload) != expected {
                return Err(BaseError::Corruption(format!(
                    "wal record at offset {off} fails checksum"
                )));
            }
            out.push(payload.to_vec());
            off = start + len;
        }
        Ok(out)
    }

    /// Resets the appended-bytes counter after the log file was rotated
    /// away (the file itself now lives under the rotation path).
    pub fn reset_appended(&mut self) {
        self.appended_bytes = 0;
    }

    /// Discards the log contents after a successful flush.
    // wdog: resource wal/
    pub fn truncate(&mut self) -> BaseResult<()> {
        self.disk.write_all(&self.path, &[])?;
        self.disk.fsync(&self.path)?;
        self.appended_bytes = 0;
        Ok(())
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("appended_bytes", &self.appended_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_replay_roundtrip() {
        let disk = SimDisk::for_tests();
        let mut wal = Wal::new(Arc::clone(&disk), "wal/current");
        wal.append_record(&[b"one"]).unwrap();
        wal.append_record(&[b"two"]).unwrap();
        let records = Wal::replay(&disk, "wal/current").unwrap();
        assert_eq!(records, vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn replay_of_missing_file_is_empty() {
        let disk = SimDisk::for_tests();
        assert!(Wal::replay(&disk, "wal/none").unwrap().is_empty());
    }

    #[test]
    fn crash_preserves_synced_records() {
        let disk = SimDisk::for_tests();
        let mut wal = Wal::new(Arc::clone(&disk), "wal/current");
        wal.append_record(&[b"durable"]).unwrap();
        // A torn append: raw frame bytes without the trailing fsync.
        disk.append("wal/current", &[5, 0, 0, 0]).unwrap();
        disk.crash();
        let records = Wal::replay(&disk, "wal/current").unwrap();
        assert_eq!(records, vec![b"durable".to_vec()]);
    }

    #[test]
    fn crash_between_batch_append_and_fsync_loses_exactly_that_batch() {
        use simio::disk::{DiskFault, DiskOpKind, FaultRule};
        let disk = SimDisk::for_tests();
        let mut wal = Wal::new(Arc::clone(&disk), "wal/current");
        wal.append_record(&[b"a", b"b"]).unwrap();
        wal.append_record(&[b"c"]).unwrap();
        // The next batch's append lands but its fsync never completes.
        let fault = disk.inject(FaultRule::scoped(
            "wal/",
            vec![DiskOpKind::Sync],
            DiskFault::Error {
                message: "power lost".into(),
            },
        ));
        assert!(wal.append_record(&[b"d", b"e", b"f"]).is_err());
        disk.clear(fault);
        assert_eq!(Wal::replay(&disk, "wal/current").unwrap().len(), 6);
        disk.crash();
        let records = Wal::replay(&disk, "wal/current").unwrap();
        assert_eq!(records, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn torn_final_record_ends_replay() {
        let disk = SimDisk::for_tests();
        let mut wal = Wal::new(Arc::clone(&disk), "wal/current");
        wal.append_record(&[b"good"]).unwrap();
        // Header claims 100 bytes but only 3 follow.
        let mut torn = Vec::new();
        torn.extend_from_slice(&100u32.to_le_bytes());
        torn.extend_from_slice(&0u32.to_le_bytes());
        torn.extend_from_slice(b"abc");
        disk.append("wal/current", &torn).unwrap();
        let records = Wal::replay(&disk, "wal/current").unwrap();
        assert_eq!(records, vec![b"good".to_vec()]);
    }

    #[test]
    fn corrupted_record_detected() {
        let disk = SimDisk::for_tests();
        let mut wal = Wal::new(Arc::clone(&disk), "wal/current");
        wal.append_record(&[b"record-payload"]).unwrap();
        // Flip a payload byte in place.
        let mut raw = disk.read("wal/current").unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        disk.write_all("wal/current", &raw).unwrap();
        assert!(matches!(
            Wal::replay(&disk, "wal/current"),
            Err(BaseError::Corruption(_))
        ));
    }

    #[test]
    fn truncate_resets_log() {
        let disk = SimDisk::for_tests();
        let mut wal = Wal::new(Arc::clone(&disk), "wal/current");
        wal.append_record(&[b"x"]).unwrap();
        assert!(wal.appended_bytes() > 0);
        wal.truncate().unwrap();
        assert_eq!(wal.appended_bytes(), 0);
        assert!(Wal::replay(&disk, "wal/current").unwrap().is_empty());
    }

    #[test]
    fn empty_payload_roundtrips() {
        let disk = SimDisk::for_tests();
        let mut wal = Wal::new(Arc::clone(&disk), "wal/current");
        wal.append_record(&[b""]).unwrap();
        let records = Wal::replay(&disk, "wal/current").unwrap();
        assert_eq!(records, vec![Vec::<u8>::new()]);
    }
}
