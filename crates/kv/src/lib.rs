//! # lambda-kv
//!
//! An embedded, persistent, log-structured key-value storage engine.
//!
//! This crate is the substitute for LevelDB in the LambdaObjects
//! reproduction: the paper's LambdaStore prototype "uses LevelDB to persist
//! data" (§5), and both the aggregated and disaggregated variants sit on top
//! of the same engine so that storage-engine details do not skew the
//! comparison.
//!
//! The engine follows the classic LSM design:
//!
//! * writes go to a [`Wal`](wal::Wal) (write-ahead log) and an in-memory
//!   [`MemTable`](memtable::MemTable);
//! * when the memtable fills up it is flushed to an immutable, sorted,
//!   block-based [`sstable`] with a bloom filter;
//! * [`compaction`] merges tables into deeper levels;
//! * a [`manifest`](version) records the live file set so the database can
//!   recover after a crash;
//! * multi-key [`batch::WriteBatch`] objects commit atomically,
//!   and [`db::Snapshot`] handles provide consistent point-in-time reads.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use lambda_kv::{Db, Options, WriteBatch};
//!
//! let dir = std::env::temp_dir().join(format!("lambda-kv-doc-{}", std::process::id()));
//! # std::fs::remove_dir_all(&dir).ok();
//! let db = Db::open(&dir, Options::default())?;
//! db.put(b"user/1/name", b"ada")?;
//! assert_eq!(db.get(b"user/1/name")?.as_deref(), Some(&b"ada"[..]));
//!
//! let mut batch = WriteBatch::new();
//! batch.put(b"user/2/name", b"grace");
//! batch.delete(b"user/1/name");
//! db.write(batch)?; // atomic
//! assert!(db.get(b"user/1/name")?.is_none());
//! # drop(db);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod block_cache;
pub mod bloom;
pub mod compaction;
pub mod crc;
pub mod db;
pub mod error;
pub mod iterator;
pub mod memtable;
pub mod sstable;
pub mod types;
pub mod version;
pub mod vfs;
pub mod wal;

pub use batch::WriteBatch;
pub use block_cache::{BlockCache, BlockCacheStats};
pub use db::{CorruptionEvent, Db, DbStats, Snapshot, StatsSnapshot, WriteCallback};
pub use error::{CorruptionInfo, KvError, Result};
pub use iterator::DbIterator;
pub use types::{Key, SeqNo, Value, ValueKind};
pub use vfs::{DiskFaultPlan, DiskFaultSpec, FaultVfs, FileKind, RealVfs, Vfs};

/// Tuning knobs for a [`Db`] instance.
///
/// The defaults are sized for the workloads in the LambdaObjects evaluation
/// (many small records, §5 of the paper); they intentionally mirror the
/// spirit of LevelDB's defaults at a smaller scale so that unit tests
/// exercise flushes and compactions quickly.
#[derive(Debug, Clone)]
pub struct Options {
    /// Flush the memtable once its approximate size exceeds this many bytes.
    pub memtable_bytes: usize,
    /// Target size for an SSTable produced by a flush or compaction.
    pub table_target_bytes: usize,
    /// Data-block payload size inside an SSTable.
    pub block_bytes: usize,
    /// Number of L0 files that triggers a compaction into L1.
    pub l0_compaction_files: usize,
    /// Base size (bytes) of L1; level `n` may hold `level_size_multiplier^(n-1)`
    /// times this before compaction into `n+1` is triggered.
    pub l1_max_bytes: u64,
    /// Growth factor between level capacities.
    pub level_size_multiplier: u64,
    /// Bloom filter bits per key (0 disables bloom filters).
    pub bloom_bits_per_key: usize,
    /// Shared block cache budget in bytes of raw blocks (0 disables it).
    pub block_cache_bytes: usize,
    /// `fsync` the WAL on every commit. Disabled by default because the
    /// simulated cluster issues thousands of tiny commits per second; the
    /// benches that measure durability cost re-enable it.
    pub sync_wal: bool,
    /// Coalesce concurrent commits through the group-commit queue: the
    /// leading thread appends every queued batch and pays one WAL sync for
    /// the whole group. Disabling it (ABL-GROUPCOMMIT's `off` arm) makes
    /// the leader take one queued batch per pass, so every batch pays its
    /// own append and sync.
    pub group_commit: bool,
    /// Verify block checksums on every read.
    ///
    /// Since the storage fault model landed, every read path verifies
    /// checksums unconditionally; this knob is retained for configuration
    /// compatibility but no longer weakens verification.
    pub paranoid_checks: bool,
    /// Filesystem implementation all WAL/SSTable/manifest I/O goes through.
    /// Defaults to the real filesystem; tests substitute a seeded
    /// [`FaultVfs`] to inject disk faults.
    pub vfs: std::sync::Arc<dyn Vfs>,
    /// Interval between background scrub passes over live SSTables
    /// (checksum verification of every block). `Duration::ZERO` (the
    /// default) disables the scrubber.
    pub scrub_interval: std::time::Duration,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            memtable_bytes: 4 << 20,
            table_target_bytes: 2 << 20,
            block_bytes: 4096,
            l0_compaction_files: 4,
            l1_max_bytes: 10 << 20,
            level_size_multiplier: 10,
            bloom_bits_per_key: 10,
            block_cache_bytes: 8 << 20,
            sync_wal: false,
            group_commit: true,
            paranoid_checks: true,
            vfs: vfs::real(),
            scrub_interval: std::time::Duration::ZERO,
        }
    }
}

impl Options {
    /// A configuration with tiny thresholds so tests exercise flush,
    /// compaction and recovery paths with only a few hundred keys.
    pub fn small_for_tests() -> Self {
        Options {
            memtable_bytes: 4 << 10,
            table_target_bytes: 4 << 10,
            block_bytes: 512,
            l0_compaction_files: 2,
            l1_max_bytes: 16 << 10,
            level_size_multiplier: 4,
            bloom_bits_per_key: 10,
            block_cache_bytes: 64 << 10,
            sync_wal: false,
            group_commit: true,
            paranoid_checks: true,
            vfs: vfs::real(),
            scrub_interval: std::time::Duration::ZERO,
        }
    }
}
