//! The database object: ties the WAL, memtables, versions and compaction
//! together behind a thread-safe handle.

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Weak};
use std::time::Instant;

use lambda_telemetry::{Counter, Registry};
use parking_lot::{Mutex, RwLock};

use crate::batch::{BatchOp, WriteBatch};
use crate::block_cache::BlockCache;
use crate::compaction::{pick_compaction, run_compaction_cached};
use crate::iterator::{ChildIter, DbIterator, MergingIterator, VisibilityIterator};
use crate::memtable::{LookupResult, MemTable};
use crate::sstable::{build_table_with, CorruptionSink, Table};
use crate::types::{InternalKey, Key, SeqNo, Value, ValueKind, MAX_KEY_LEN, MAX_SEQNO};
use crate::version::{table_path, wal_path, TableHandle, Version, VersionEdit, VersionSet};
use crate::wal::{self, Wal};
use crate::{KvError, Options, Result};

/// Live operation counters, all monotonically increasing.
///
/// Each field is a [`Counter`] handle; when the database is opened with
/// [`Db::open_with_registry`] the handles share their cells with the node's
/// telemetry [`Registry`] (under `kv_*` names), so node-level stats and
/// [`StatsSnapshot`] are two views over the same counters.
#[derive(Debug, Default)]
pub struct DbStats {
    /// Committed write batches.
    pub writes: Counter,
    /// Point lookups served.
    pub reads: Counter,
    /// Memtable flushes performed.
    pub flushes: Counter,
    /// Compactions performed.
    pub compactions: Counter,
    /// Payload bytes appended to the WAL.
    pub wal_bytes: Counter,
    /// Group commits performed (each is one WAL append run + one sync).
    pub commit_groups: Counter,
    /// Write batches folded into group commits. Together with
    /// `commit_groups` this yields the mean group size.
    pub commit_group_batches: Counter,
    /// Total microseconds [`Db::write`] callers spent blocked while another
    /// thread committed their batch (nothing when the caller led).
    pub commit_stall_micros: Counter,
    /// Checksum/framing failures detected on any read path.
    pub corruptions_detected: Counter,
    /// Corrupt SSTables renamed aside and version-edited out.
    pub tables_quarantined: Counter,
    /// Data blocks re-read and checksum-verified by the scrubber.
    pub scrub_blocks_verified: Counter,
    /// WAL recoveries that tolerated (and truncated) a torn tail.
    pub wal_torn_tail_recoveries: Counter,
}

impl DbStats {
    /// Counters registered in (and shared with) `registry` under `kv_*`
    /// names.
    fn with_registry(registry: &Registry) -> Self {
        DbStats {
            writes: registry.counter("kv_writes"),
            reads: registry.counter("kv_reads"),
            flushes: registry.counter("kv_flushes"),
            compactions: registry.counter("kv_compactions"),
            wal_bytes: registry.counter("kv_wal_bytes"),
            commit_groups: registry.counter("kv_commit_groups"),
            commit_group_batches: registry.counter("kv_commit_group_batches"),
            commit_stall_micros: registry.counter("kv_commit_stall_micros"),
            corruptions_detected: registry.counter("kv_corruptions_detected"),
            tables_quarantined: registry.counter("kv_tables_quarantined"),
            scrub_blocks_verified: registry.counter("scrub_blocks_verified"),
            wal_torn_tail_recoveries: registry.counter("wal_torn_tail_recoveries"),
        }
    }
}

/// A snapshot of the counters, cheap to copy around.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Committed write batches.
    pub writes: u64,
    /// Point lookups served.
    pub reads: u64,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Payload bytes appended to the WAL.
    pub wal_bytes: u64,
    /// Group commits performed (each is one WAL append run + one sync).
    pub commit_groups: u64,
    /// Write batches folded into group commits.
    pub commit_group_batches: u64,
    /// Total microseconds `write` callers spent blocked in the commit queue.
    pub commit_stall_micros: u64,
    /// Checksum/framing failures detected on any read path.
    pub corruptions_detected: u64,
    /// Corrupt SSTables renamed aside and version-edited out.
    pub tables_quarantined: u64,
    /// Data blocks re-read and checksum-verified by the scrubber.
    pub scrub_blocks_verified: u64,
    /// WAL recoveries that tolerated (and truncated) a torn tail.
    pub wal_torn_tail_recoveries: u64,
}

impl StatsSnapshot {
    /// Mean number of batches per group commit (1.0 when uncontended).
    pub fn mean_group_size(&self) -> f64 {
        if self.commit_groups == 0 {
            0.0
        } else {
            self.commit_group_batches as f64 / self.commit_groups as f64
        }
    }
}

/// A corruption the engine detected (and survived) on some read path.
///
/// Events queue up inside the database until the embedding node drains them
/// with [`Db::take_corruption_events`]; the store layer turns them into
/// coordinator corruption reports so the shard can be repaired from a
/// healthy replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionEvent {
    /// File the corruption was detected in, when identified.
    pub file: Option<PathBuf>,
    /// Byte offset of the damaged region, when identified.
    pub offset: Option<u64>,
    /// Whether the file was a live SSTable that has now been renamed aside
    /// and version-edited out of the LSM.
    pub quarantined: bool,
    /// Human-readable description of the damage.
    pub detail: String,
}

#[derive(Debug)]
struct WriteState {
    wal: Wal,
    wal_number: u64,
}

/// Completion for a write: invoked exactly once with the batch's outcome,
/// on the thread that led the group commit containing the batch — the
/// caller's own when it found nobody committing — or inline when
/// validation failed.
pub type WriteCallback = Box<dyn FnOnce(Result<()>) + Send>;

/// The group-commit queue: batches waiting to be committed, each with its
/// completion, and whether some thread is leading (committing) right now.
///
/// A writer that finds `leading` clear takes the lead. Each pass of
/// [`Db::lead`] takes the queued batches (all of them, or only the oldest
/// with `Options::group_commit` off), appends them to the WAL under one
/// sync, publishes them, gives the lead up, and only then runs their
/// completions: a completion may itself write. It then flushes when the
/// group filled the memtable, and takes the lead back while batches are
/// still queued and no other thread took it.
#[derive(Default)]
struct CommitQueue {
    pending: VecDeque<(WriteBatch, WriteCallback)>,
    leading: bool,
}

impl std::fmt::Debug for CommitQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitQueue")
            .field("pending", &self.pending.len())
            .field("leading", &self.leading)
            .finish()
    }
}

#[derive(Debug)]
struct DbInner {
    dir: PathBuf,
    opts: Options,
    write: Mutex<WriteState>,
    commit_queue: Mutex<CommitQueue>,
    mem: RwLock<MemTable>,
    versions: Mutex<VersionSet>,
    current: RwLock<Arc<Version>>,
    last_seq: AtomicU64,
    snapshots: Mutex<BTreeMap<SeqNo, usize>>,
    stats: DbStats,
    block_cache: Option<Arc<BlockCache>>,
    /// Corruptions detected but not yet drained by the embedding node.
    corruption_events: Mutex<Vec<CorruptionEvent>>,
    /// Sink range iterators report table corruption through (iterators
    /// cannot return `Err` from `next`); drained alongside the events.
    read_corruptions: CorruptionSink,
}

/// A consistent, point-in-time read view. Holding a snapshot pins all
/// versions it can see against compaction GC; drop it to release them.
#[derive(Debug)]
pub struct Snapshot {
    inner: Arc<DbInner>,
    seq: SeqNo,
}

impl Snapshot {
    /// The sequence number this snapshot reads at.
    pub fn sequence(&self) -> SeqNo {
        self.seq
    }

    /// Read `key` as of this snapshot.
    ///
    /// # Errors
    /// Propagates storage errors.
    pub fn get(&self, key: &[u8]) -> Result<Option<Value>> {
        Db { inner: Arc::clone(&self.inner) }.get_at(key, self.seq)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        let mut snaps = self.inner.snapshots.lock();
        if let Some(count) = snaps.get_mut(&self.seq) {
            *count -= 1;
            if *count == 0 {
                snaps.remove(&self.seq);
            }
        }
    }
}

/// A thread-safe handle to an open database. Clones share the same state.
#[derive(Debug, Clone)]
pub struct Db {
    inner: Arc<DbInner>,
}

impl Db {
    /// Open (creating if necessary) a database in `dir`.
    ///
    /// Recovery replays the live WAL, skipping entries already made durable
    /// in a table file, then rolls the log so the directory is always left
    /// in a clean state.
    ///
    /// # Errors
    /// Returns [`KvError::InvalidDatabase`] / [`KvError::Corruption`] for a
    /// damaged directory and propagates filesystem errors.
    pub fn open(dir: impl AsRef<Path>, opts: Options) -> Result<Db> {
        Self::open_with_stats(dir, opts, DbStats::default())
    }

    /// Open a database whose operation counters live in `registry` (under
    /// `kv_*` names), so the surrounding node can serve them alongside its
    /// own stats. Behaves exactly like [`Db::open`] otherwise.
    ///
    /// # Errors
    /// Same as [`Db::open`].
    pub fn open_with_registry(
        dir: impl AsRef<Path>,
        opts: Options,
        registry: &Registry,
    ) -> Result<Db> {
        Self::open_with_stats(dir, opts, DbStats::with_registry(registry))
    }

    fn open_with_stats(dir: impl AsRef<Path>, opts: Options, stats: DbStats) -> Result<Db> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let block_cache = if opts.block_cache_bytes > 0 {
            Some(BlockCache::new(opts.block_cache_bytes))
        } else {
            None
        };
        let vfs = opts.vfs.clone();
        let fresh = !vfs.exists(&dir.join("CURRENT"));
        if fresh {
            let versions = VersionSet::create_with(&dir, vfs.clone())?;
            let wal_number = versions.wal_number;
            let wal = Wal::create_with(&vfs, wal_path(&dir, wal_number))?;
            let inner = Arc::new(DbInner {
                dir,
                opts,
                write: Mutex::new(WriteState { wal, wal_number }),
                commit_queue: Mutex::default(),
                mem: RwLock::default(),
                current: RwLock::new(versions.current()),
                versions: Mutex::new(versions),
                last_seq: AtomicU64::new(0),
                snapshots: Mutex::new(BTreeMap::new()),
                stats,
                block_cache,
                corruption_events: Mutex::new(Vec::new()),
                read_corruptions: Arc::new(Mutex::new(Vec::new())),
            });
            spawn_scrubber(&inner);
            return Ok(Db { inner });
        }

        let recovered = VersionSet::recover_with(&dir, vfs.clone(), block_cache.clone())?;
        let mut versions = recovered.versions;
        let mut last_seq = recovered.last_seq;
        let flushed = versions.flushed_seq;

        // Replay the live WAL into a fresh memtable.
        let mut mem = MemTable::new();
        let old_wal = wal_path(&dir, versions.wal_number);
        if vfs.exists(&old_wal) {
            let replay = wal::recover_with(&vfs, &old_wal)?;
            if replay.truncated_tail {
                stats.wal_torn_tail_recoveries.incr();
            }
            for record in replay.records {
                let (start_seq, batch) = WriteBatch::decode(&record)?;
                for (i, op) in batch.iter().enumerate() {
                    let seq = start_seq + i as u64;
                    if seq <= flushed {
                        continue; // already durable in a table
                    }
                    insert_op(&mut mem, seq, op);
                    last_seq = last_seq.max(seq);
                }
            }
        }

        // Flush replayed data and roll the log in one manifest edit, so the
        // old WAL can be discarded.
        let wal_number = versions.allocate_file_number();
        let wal = Wal::create_with(&vfs, wal_path(&dir, wal_number))?;
        let added = if mem.is_empty() {
            Vec::new()
        } else {
            let number = versions.allocate_file_number();
            vec![(0, write_l0_table(&dir, &opts, &block_cache, number, &mem)?)]
        };
        let edit = VersionEdit { added, flushed: Some((last_seq, wal_number)), deleted: vec![] };
        versions.log_and_apply(edit, last_seq)?;
        let _ = vfs.remove_file(&old_wal);

        let inner = Arc::new(DbInner {
            dir,
            opts,
            write: Mutex::new(WriteState { wal, wal_number }),
            commit_queue: Mutex::default(),
            mem: RwLock::default(),
            current: RwLock::new(versions.current()),
            versions: Mutex::new(versions),
            last_seq: AtomicU64::new(last_seq),
            snapshots: Mutex::new(BTreeMap::new()),
            stats,
            block_cache,
            corruption_events: Mutex::new(Vec::new()),
            read_corruptions: Arc::new(Mutex::new(Vec::new())),
        });
        spawn_scrubber(&inner);
        let db = Db { inner };
        db.maybe_compact()?;
        Ok(db)
    }

    /// Insert or overwrite a single key.
    ///
    /// # Errors
    /// Propagates storage errors.
    pub fn put(&self, key: impl Into<Key>, value: impl Into<Value>) -> Result<()> {
        let mut b = WriteBatch::new();
        b.put(key.into(), value.into());
        self.write(b)
    }

    /// Delete a single key.
    ///
    /// # Errors
    /// Propagates storage errors.
    pub fn delete(&self, key: impl Into<Key>) -> Result<()> {
        let mut b = WriteBatch::new();
        b.delete(key.into());
        self.write(b)
    }

    /// Commit a batch atomically: it is wholly visible (and durable in the
    /// WAL) or not at all.
    ///
    /// This is [`Db::write_deferred`] plus one join on a channel whose
    /// sender rides in the completion: when nobody else is committing the
    /// caller leads and the outcome is there on return; otherwise the
    /// caller blocks until the leader that commits its batch sends it.
    ///
    /// # Errors
    /// Returns [`KvError::InvalidArgument`] for oversized keys and
    /// propagates storage errors.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.write_deferred(batch, Box::new(move |res| drop(tx.send(res))));
        if let Ok(res) = rx.try_recv() {
            return res;
        }
        let blocked = Instant::now();
        let res = rx.recv().unwrap_or_else(|_| {
            Err(KvError::Io(std::io::Error::other("commit ended without an outcome")))
        });
        self.inner.stats.commit_stall_micros.add(blocked.elapsed().as_micros() as u64);
        res
    }

    /// Commit a batch without blocking on other writers: `done` runs exactly
    /// once with the batch's outcome.
    ///
    /// Commits go through a group-commit queue: concurrent batches are
    /// coalesced by one leading thread into a single WAL append run with
    /// one `sync`/`flush`, which amortizes the durability cost across the
    /// group. Sequence numbers are assigned in queue (arrival) order, and a
    /// batch is never visible to readers before it is durable in the WAL.
    /// When nobody is committing, this thread leads, and `done` runs here
    /// before the call returns; otherwise the current leader commits the
    /// batch and runs `done`. An invalid batch fails inline.
    ///
    /// This is what lets an invocation pipeline hand a write to the
    /// group-commit machinery and go serve other requests instead of
    /// stalling a thread on the WAL sync.
    pub fn write_deferred(&self, batch: WriteBatch, done: WriteCallback) {
        if batch.is_empty() {
            return done(Ok(()));
        }
        if let Err(e) = validate_batch(&batch) {
            return done(Err(e));
        }
        let lead = {
            let mut queue = self.inner.commit_queue.lock();
            queue.pending.push_back((batch, done));
            !std::mem::replace(&mut queue.leading, true)
        };
        if lead {
            self.lead();
        }
    }

    /// Lead group commits while this thread holds the lead; see
    /// [`CommitQueue`]. A group's completions run after the lead is given
    /// up and before the flush that group may trigger.
    fn lead(&self) {
        loop {
            let mut ws = self.inner.write.lock();
            let (batches, callbacks): (Vec<WriteBatch>, Vec<WriteCallback>) = {
                let mut queue = self.inner.commit_queue.lock();
                let take = if self.inner.opts.group_commit { queue.pending.len() } else { 1 };
                queue.pending.drain(..take).unzip()
            };
            let committed = self.commit_group(&mut ws, &batches);
            drop(ws);
            self.inner.commit_queue.lock().leading = false;

            let full = self.inner.mem.read().approximate_bytes() > self.inner.opts.memtable_bytes;
            for done in callbacks {
                done(match &committed {
                    Ok(()) => Ok(()),
                    Err(e) => {
                        Err(KvError::Io(std::io::Error::other(format!("group commit failed: {e}"))))
                    }
                });
            }
            if committed.is_ok() && full {
                // The batches are durable and acknowledged; a failed flush
                // leaves the memtable as it was, for the next one to retry.
                let _ = self.flush_over(self.inner.opts.memtable_bytes);
            }

            let mut queue = self.inner.commit_queue.lock();
            if queue.leading || queue.pending.is_empty() {
                return;
            }
            queue.leading = true;
        }
    }

    /// Append `batches` to the WAL in order under one sync, then publish
    /// them to the memtable with consecutive sequence numbers. On an error
    /// nothing is published and no state advances.
    fn commit_group(&self, ws: &mut WriteState, batches: &[WriteBatch]) -> Result<()> {
        let first_seq = self.inner.last_seq.load(Ordering::Acquire) + 1;
        let mut seq = first_seq;
        let mut bytes = 0u64;
        for batch in batches {
            let payload = batch.encode(seq);
            ws.wal.append(&payload)?;
            bytes += payload.len() as u64;
            seq += batch.len() as u64;
        }
        if self.inner.opts.sync_wal {
            ws.wal.sync()?;
        } else {
            ws.wal.flush()?;
        }

        let mut mem = self.inner.mem.write();
        let mut seq = first_seq;
        for op in batches.iter().flat_map(WriteBatch::iter) {
            insert_op(&mut mem, seq, op);
            seq += 1;
        }
        drop(mem);
        self.inner.last_seq.store(seq - 1, Ordering::Release);
        let stats = &self.inner.stats;
        stats.wal_bytes.add(bytes);
        stats.writes.add(batches.len() as u64);
        stats.commit_groups.incr();
        stats.commit_group_batches.add(batches.len() as u64);
        Ok(())
    }

    /// Read the newest committed value for `key`.
    ///
    /// # Errors
    /// Propagates storage errors.
    pub fn get(&self, key: &[u8]) -> Result<Option<Value>> {
        self.get_at(key, self.inner.last_seq.load(Ordering::Acquire))
    }

    /// Read `key` as of sequence number `seq`.
    ///
    /// # Errors
    /// Propagates storage errors.
    pub fn get_at(&self, key: &[u8], seq: SeqNo) -> Result<Option<Value>> {
        self.inner.stats.reads.incr();
        match self.inner.mem.read().get(key, seq) {
            LookupResult::Found(v) => return Ok(Some(v)),
            LookupResult::Deleted => return Ok(None),
            LookupResult::NotFound => {}
        }
        let version = self.inner.current.read().clone();
        // L0: newest file first (files are sorted by ascending number).
        for f in version.levels[0].iter().rev() {
            match self.checked(f.table.get(key, seq))? {
                LookupResult::Found(v) => return Ok(Some(v)),
                LookupResult::Deleted => return Ok(None),
                LookupResult::NotFound => {}
            }
        }
        for level in version.levels.iter().skip(1) {
            // Disjoint sorted ranges: binary search for the candidate file.
            let idx = level.partition_point(|f| f.table.largest.user.as_slice() < key);
            if let Some(f) = level.get(idx) {
                if f.table.smallest.user.as_slice() <= key {
                    match self.checked(f.table.get(key, seq))? {
                        LookupResult::Found(v) => return Ok(Some(v)),
                        LookupResult::Deleted => return Ok(None),
                        LookupResult::NotFound => {}
                    }
                }
            }
        }
        Ok(None)
    }

    /// Open a consistent snapshot at the current sequence number.
    pub fn snapshot(&self) -> Snapshot {
        let seq = self.inner.last_seq.load(Ordering::Acquire);
        *self.inner.snapshots.lock().entry(seq).or_insert(0) += 1;
        Snapshot { inner: Arc::clone(&self.inner), seq }
    }

    /// Iterate over all live keys in order.
    pub fn iter(&self) -> DbIterator {
        self.iter_range(&[], None)
    }

    /// Iterate over live keys in `[start, end)` at the newest snapshot.
    pub fn iter_range(&self, start: &[u8], end: Option<&[u8]>) -> DbIterator {
        self.iter_range_at(start, end, self.inner.last_seq.load(Ordering::Acquire))
    }

    /// Iterate over live keys in `[start, end)` as of `seq`. Only the
    /// memtable entries in the range are copied, and only tables whose key
    /// range overlaps it are opened (opening one reads a block).
    pub fn iter_range_at(&self, start: &[u8], end: Option<&[u8]>, seq: SeqNo) -> DbIterator {
        let before_end = |user: &[u8]| end.is_none_or(|e| user < e);
        let active: Vec<(InternalKey, Value)> = self
            .inner
            .mem
            .read()
            .range_from(start)
            .take_while(|(k, _)| before_end(&k.user))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let mut children: Vec<ChildIter> = vec![Box::new(active.into_iter())];
        let version = self.inner.current.read().clone();
        let seek = InternalKey::seek(start.to_vec(), MAX_SEQNO);
        let sink = &self.inner.read_corruptions;
        // Newest first: the merger breaks ties between equal keys by rank.
        let tables = version.levels[0].iter().rev().chain(version.levels.iter().skip(1).flatten());
        for f in tables {
            if f.table.largest.user.as_slice() >= start && before_end(&f.table.smallest.user) {
                children.push(Box::new(f.table.iter_from(&seek).with_sink(Arc::clone(sink))));
            }
        }
        VisibilityIterator::new(MergingIterator::new(children), seq, end.map(|e| e.to_vec()))
    }

    /// Iterate over all live keys sharing `prefix`.
    pub fn scan_prefix(&self, prefix: &[u8]) -> DbIterator {
        let end = prefix_successor(prefix);
        self.iter_range(prefix, end.as_deref())
    }

    /// Force the memtable into an L0 table.
    ///
    /// # Errors
    /// Propagates storage errors.
    pub fn flush(&self) -> Result<()> {
        self.flush_over(0)
    }

    /// Flush the memtable into an L0 table when it holds more than `bytes`
    /// (re-checked under the write lock), then compact what needs it.
    fn flush_over(&self, bytes: usize) -> Result<()> {
        let mut ws = self.inner.write.lock();
        if self.inner.mem.read().approximate_bytes() <= bytes {
            return Ok(());
        }
        self.flush_locked(&mut ws)?;
        drop(ws);
        self.maybe_compact()
    }

    /// Write the memtable to an L0 table and switch to a fresh WAL. Holding
    /// `ws` keeps commits out, so the memtable cannot change meanwhile. The
    /// WAL, the version and the memtable are swapped only once the table
    /// and the manifest edit naming it are durable: a failure changes
    /// nothing, and the next flush retries the same data.
    fn flush_locked(&self, ws: &mut WriteState) -> Result<()> {
        let inner = &*self.inner;
        let last_seq = inner.last_seq.load(Ordering::Acquire);
        let mut versions = inner.versions.lock();
        let wal_number = versions.allocate_file_number();
        let wal_file = wal_path(&inner.dir, wal_number);
        let wal = Wal::create_with(&inner.opts.vfs, &wal_file)?;
        let number = versions.allocate_file_number();
        let applied =
            write_l0_table(&inner.dir, &inner.opts, &inner.block_cache, number, &inner.mem.read())
                .and_then(|table| {
                    let edit = VersionEdit {
                        added: vec![(0, table)],
                        flushed: Some((last_seq, wal_number)),
                        deleted: vec![],
                    };
                    versions.log_and_apply(edit, last_seq)
                });
        drop(versions);
        let new_version = match applied {
            Ok(version) => version,
            Err(e) => {
                let _ = inner.opts.vfs.remove_file(&wal_file);
                return Err(e);
            }
        };

        let old_wal = std::mem::replace(&mut ws.wal_number, wal_number);
        ws.wal = wal;
        // The table is readable before the memtable empties, so a reader
        // finds every entry in one or the other.
        *inner.current.write() = new_version;
        *inner.mem.write() = MemTable::new();
        let _ = inner.opts.vfs.remove_file(&wal_path(&inner.dir, old_wal));
        inner.stats.flushes.incr();
        Ok(())
    }

    fn oldest_snapshot(&self) -> SeqNo {
        self.inner
            .snapshots
            .lock()
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.inner.last_seq.load(Ordering::Acquire))
    }

    fn maybe_compact(&self) -> Result<()> {
        // Bound the quarantine retries so a pathological directory (every
        // input corrupt) cannot spin forever; each retry removes one table.
        let mut corruption_retries = 8u32;
        loop {
            let mut versions = self.inner.versions.lock();
            let task = match pick_compaction(&versions.current(), &self.inner.opts) {
                Some(t) => t,
                None => return Ok(()),
            };
            let res = run_compaction_cached(
                &mut versions,
                task,
                &self.inner.opts,
                self.oldest_snapshot(),
                self.inner.block_cache.clone(),
            );
            match res {
                Ok(_) => {}
                Err(e @ KvError::Corruption(_)) => {
                    // A compaction input is rotten. Quarantine it (needs the
                    // versions lock, so release ours first) and retry: the
                    // remaining inputs are still mergeable.
                    drop(versions);
                    self.note_corruption(&e);
                    if corruption_retries == 0 {
                        return Err(e);
                    }
                    corruption_retries -= 1;
                    continue;
                }
                Err(e) => return Err(e),
            }
            let new_version = versions.current();
            drop(versions);
            *self.inner.current.write() = new_version;
            self.inner.stats.compactions.incr();
        }
    }

    /// Compact until no level exceeds its budget (mainly for tests/benches).
    ///
    /// # Errors
    /// Propagates storage errors.
    pub fn compact_all(&self) -> Result<()> {
        self.flush()?;
        self.maybe_compact()
    }

    /// Current sequence number (the newest committed mutation).
    pub fn last_sequence(&self) -> SeqNo {
        self.inner.last_seq.load(Ordering::Acquire)
    }

    /// Copy of the live counters.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.inner.stats;
        StatsSnapshot {
            writes: s.writes.get(),
            reads: s.reads.get(),
            flushes: s.flushes.get(),
            compactions: s.compactions.get(),
            wal_bytes: s.wal_bytes.get(),
            commit_groups: s.commit_groups.get(),
            commit_group_batches: s.commit_group_batches.get(),
            commit_stall_micros: s.commit_stall_micros.get(),
            corruptions_detected: s.corruptions_detected.get(),
            tables_quarantined: s.tables_quarantined.get(),
            scrub_blocks_verified: s.scrub_blocks_verified.get(),
            wal_torn_tail_recoveries: s.wal_torn_tail_recoveries.get(),
        }
    }

    /// Number of live table files (diagnostics).
    pub fn table_file_count(&self) -> usize {
        self.inner.current.read().file_count()
    }

    /// Block-cache statistics, when a cache is configured.
    pub fn block_cache_stats(&self) -> Option<crate::block_cache::BlockCacheStats> {
        self.inner.block_cache.as_ref().map(|c| c.stats())
    }

    /// Per-level `(file count, bytes)` of the current version — the LSM
    /// shape, for diagnostics and capacity planning.
    pub fn level_sizes(&self) -> Vec<(usize, u64)> {
        let version = self.inner.current.read().clone();
        version
            .levels
            .iter()
            .map(|files| (files.len(), files.iter().map(|f| f.size).sum()))
            .collect()
    }

    /// Approximate on-disk bytes attributable to keys in `[start, end)`:
    /// the summed sizes of table files whose ranges overlap the interval
    /// (an upper bound, like LevelDB's `GetApproximateSizes`).
    pub fn approximate_size(&self, start: &[u8], end: &[u8]) -> u64 {
        let version = self.inner.current.read().clone();
        let hi = if end.is_empty() { &[0xffu8; 16][..] } else { end };
        version
            .levels
            .iter()
            .flatten()
            .filter(|f| {
                f.table.smallest.user.as_slice() < hi && f.table.largest.user.as_slice() >= start
            })
            .map(|f| f.size)
            .sum()
    }

    /// Database directory.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Drain the queued [`CorruptionEvent`]s (oldest first).
    ///
    /// Also folds in corruption that range iterators reported through their
    /// sink since the last drain. The embedding node polls this to learn it
    /// is serving a shard from damaged local storage and must be repaired.
    pub fn take_corruption_events(&self) -> Vec<CorruptionEvent> {
        let pending: Vec<KvError> = std::mem::take(&mut *self.inner.read_corruptions.lock());
        for err in &pending {
            self.note_corruption(err);
        }
        std::mem::take(&mut *self.inner.corruption_events.lock())
    }

    /// One scrubber pass: re-read every data block of every live table and
    /// verify its checksum, bypassing the block cache. Corrupt tables are
    /// quarantined (and queued as [`CorruptionEvent`]s) rather than aborting
    /// the pass. Returns the number of blocks that verified clean.
    ///
    /// # Errors
    /// Propagates non-corruption I/O errors.
    pub fn scrub_pass(&self) -> Result<u64> {
        let version = self.inner.current.read().clone();
        let mut clean = 0u64;
        for f in version.levels.iter().flatten() {
            match f.table.verify_blocks() {
                Ok(blocks) => {
                    clean += blocks;
                    self.inner.stats.scrub_blocks_verified.add(blocks);
                }
                Err(e @ KvError::Corruption(_)) => self.note_corruption(&e),
                Err(e) => return Err(e),
            }
        }
        Ok(clean)
    }

    /// Pass `res` through, recording any corruption it carries first.
    fn checked<T>(&self, res: Result<T>) -> Result<T> {
        if let Err(e) = &res {
            self.note_corruption(e);
        }
        res
    }

    /// Record a detected corruption: bump the counter, quarantine the named
    /// table when one is identified, and queue an event for the embedding
    /// node. Non-corruption errors are ignored.
    fn note_corruption(&self, err: &KvError) {
        let KvError::Corruption(info) = err else { return };
        self.inner.stats.corruptions_detected.incr();
        let quarantined = match &info.file {
            Some(file) => self.quarantine_table(file),
            None => false,
        };
        self.inner.corruption_events.lock().push(CorruptionEvent {
            file: info.file.clone(),
            offset: info.offset,
            quarantined,
            detail: info.message.clone(),
        });
    }

    /// Rename a corrupt live table aside (`<name>.quarantine`) and
    /// version-edit it out of the LSM so no read path touches it again.
    /// Returns `false` when `path` is not a live table (already quarantined,
    /// or a WAL/manifest — those are handled by recovery, not here).
    fn quarantine_table(&self, path: &Path) -> bool {
        let mut versions = self.inner.versions.lock();
        let current = versions.current();
        let mut found = None;
        'levels: for (level, files) in current.levels.iter().enumerate() {
            for f in files.iter() {
                if f.table.path() == path {
                    found = Some((level, f.number));
                    break 'levels;
                }
            }
        }
        let Some((level, number)) = found else {
            return false;
        };
        let mut aside = path.as_os_str().to_owned();
        aside.push(".quarantine");
        // Even when the rename fails (e.g. the disk is rejecting writes),
        // still drop the table from the version so reads stop hitting it.
        let _ = self.inner.opts.vfs.rename(path, Path::new(&aside));
        let last_seq = self.inner.last_seq.load(Ordering::Acquire);
        let edit = VersionEdit { deleted: vec![(level, number)], ..VersionEdit::default() };
        match versions.log_and_apply(edit, last_seq) {
            Ok(new_version) => {
                drop(versions);
                *self.inner.current.write() = new_version;
                self.inner.stats.tables_quarantined.incr();
                true
            }
            Err(_) => false,
        }
    }
}

/// Background scrubber: a low-priority thread that walks the live tables
/// verifying block checksums every `scrub_interval`. Holds only a [`Weak`]
/// to the database so dropping the last [`Db`] handle stops it at the next
/// tick. Disabled when the interval is zero.
fn spawn_scrubber(inner: &Arc<DbInner>) {
    let interval = inner.opts.scrub_interval;
    if interval.is_zero() {
        return;
    }
    let weak: Weak<DbInner> = Arc::downgrade(inner);
    let _ = std::thread::Builder::new().name("kv-scrub".into()).spawn(move || loop {
        std::thread::sleep(interval);
        let Some(inner) = weak.upgrade() else {
            return;
        };
        let _ = Db { inner }.scrub_pass();
    });
}

/// Insert one batch operation into `mem` at `seq`.
fn insert_op(mem: &mut MemTable, seq: SeqNo, op: &BatchOp) {
    match op {
        BatchOp::Put { key, value } => mem.insert(key.clone(), seq, ValueKind::Put, value.clone()),
        BatchOp::Delete { key } => mem.insert(key.clone(), seq, ValueKind::Deletion, Vec::new()),
    }
}

/// Write `mem` as L0 table `number` in `dir`: the one table writer a flush
/// and recovery share. A failed write removes its partial file.
fn write_l0_table(
    dir: &Path,
    opts: &Options,
    cache: &Option<Arc<BlockCache>>,
    number: u64,
    mem: &MemTable,
) -> Result<Arc<TableHandle>> {
    let path = table_path(dir, number);
    let entries = mem.iter().map(|(k, v)| (k, v.as_slice()));
    let written =
        build_table_with(&opts.vfs, &path, entries, opts.block_bytes, opts.bloom_bits_per_key)
            .and_then(|(size, _, _)| {
                let table = Table::open_with(&opts.vfs, &path, cache.clone())?;
                Ok(TableHandle::new(number, size, table))
            });
    if written.is_err() {
        let _ = opts.vfs.remove_file(&path);
    }
    written
}

fn validate_batch(batch: &WriteBatch) -> Result<()> {
    for op in batch.iter() {
        if op.key().is_empty() {
            return Err(KvError::InvalidArgument("empty key".into()));
        }
        if op.key().len() > MAX_KEY_LEN {
            return Err(KvError::InvalidArgument(format!(
                "key length {} exceeds maximum {}",
                op.key().len(),
                MAX_KEY_LEN
            )));
        }
    }
    Ok(())
}

/// The smallest key strictly greater than every key with `prefix`
/// (`None` when the prefix is all `0xff`).
pub fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut end = prefix.to_vec();
    while let Some(&last) = end.last() {
        if last == 0xff {
            end.pop();
        } else {
            *end.last_mut().expect("nonempty") = last + 1;
            return Some(end);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{DiskFaultPlan, DiskFaultSpec, FaultVfs, FileKind};

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lambda-kv-db-{}-{}", name, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_delete() {
        let dir = tmpdir("basic");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        db.put(b"k1".to_vec(), b"v1".to_vec()).unwrap();
        assert_eq!(db.get(b"k1").unwrap(), Some(b"v1".to_vec()));
        db.delete(b"k1".to_vec()).unwrap();
        assert_eq!(db.get(b"k1").unwrap(), None);
        assert_eq!(db.get(b"absent").unwrap(), None);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn registry_backed_stats_are_shared() {
        let dir = tmpdir("registry-stats");
        let registry = Registry::new();
        let db = Db::open_with_registry(&dir, Options::small_for_tests(), &registry).unwrap();
        db.put(b"k".to_vec(), b"v".to_vec()).unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
        let snap = db.stats();
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.reads, 1);
        // The registry serves the very same counters under kv_* names.
        assert_eq!(registry.counter_value("kv_writes"), 1);
        assert_eq!(registry.counter_value("kv_reads"), 1);
        assert!(registry.counter_value("kv_wal_bytes") > 0);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn overwrite_returns_newest() {
        let dir = tmpdir("overwrite");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        for i in 0..10 {
            db.put(b"k".to_vec(), format!("v{i}").into_bytes()).unwrap();
        }
        assert_eq!(db.get(b"k").unwrap(), Some(b"v9".to_vec()));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn batch_is_atomic_in_memory() {
        let dir = tmpdir("batch");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        db.put(b"a".to_vec(), b"old".to_vec()).unwrap();
        let mut b = WriteBatch::new();
        b.put(b"a".to_vec(), b"new".to_vec());
        b.put(b"b".to_vec(), b"new".to_vec());
        b.delete(b"c".to_vec());
        db.write(b).unwrap();
        assert_eq!(db.get(b"a").unwrap(), Some(b"new".to_vec()));
        assert_eq!(db.get(b"b").unwrap(), Some(b"new".to_vec()));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn rejects_empty_and_giant_keys() {
        let dir = tmpdir("validate");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        assert!(matches!(db.put(Vec::new(), b"v".to_vec()), Err(KvError::InvalidArgument(_))));
        assert!(matches!(
            db.put(vec![0u8; MAX_KEY_LEN + 1], b"v".to_vec()),
            Err(KvError::InvalidArgument(_))
        ));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn survives_flush_and_reads_from_tables() {
        let dir = tmpdir("flush");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        for i in 0..500 {
            db.put(format!("key-{i:05}").into_bytes(), vec![b'x'; 64]).unwrap();
        }
        db.flush().unwrap();
        assert!(db.table_file_count() > 0);
        for i in 0..500 {
            assert!(
                db.get(format!("key-{i:05}").as_bytes()).unwrap().is_some(),
                "key {i} lost after flush"
            );
        }
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recovery_replays_wal() {
        let dir = tmpdir("recover");
        {
            let db = Db::open(&dir, Options::small_for_tests()).unwrap();
            db.put(b"persisted".to_vec(), b"yes".to_vec()).unwrap();
            db.put(b"deleted".to_vec(), b"tmp".to_vec()).unwrap();
            db.delete(b"deleted".to_vec()).unwrap();
            // No flush: data only in WAL. Drop without clean shutdown.
        }
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        assert_eq!(db.get(b"persisted").unwrap(), Some(b"yes".to_vec()));
        assert_eq!(db.get(b"deleted").unwrap(), None);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recovery_after_flush_and_more_writes() {
        let dir = tmpdir("recover2");
        {
            let db = Db::open(&dir, Options::small_for_tests()).unwrap();
            for i in 0..300 {
                db.put(format!("k{i:04}").into_bytes(), format!("v{i}").into_bytes()).unwrap();
            }
            db.flush().unwrap();
            db.put(b"after-flush".to_vec(), b"1".to_vec()).unwrap();
        }
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        assert_eq!(db.get(b"k0123").unwrap(), Some(b"v123".to_vec()));
        assert_eq!(db.get(b"after-flush").unwrap(), Some(b"1".to_vec()));
        // Sequence numbers must keep increasing after recovery.
        let seq = db.last_sequence();
        db.put(b"new".to_vec(), b"2".to_vec()).unwrap();
        assert!(db.last_sequence() > seq);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn snapshot_isolation() {
        let dir = tmpdir("snapshot");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        db.put(b"k".to_vec(), b"v1".to_vec()).unwrap();
        let snap = db.snapshot();
        db.put(b"k".to_vec(), b"v2".to_vec()).unwrap();
        db.delete(b"k2".to_vec()).unwrap();
        assert_eq!(snap.get(b"k").unwrap(), Some(b"v1".to_vec()));
        assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn snapshot_survives_flush_and_compaction() {
        let dir = tmpdir("snapflush");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        db.put(b"pinned".to_vec(), b"old".to_vec()).unwrap();
        let snap = db.snapshot();
        for i in 0..500 {
            db.put(format!("fill-{i:05}").into_bytes(), vec![0u8; 64]).unwrap();
        }
        db.put(b"pinned".to_vec(), b"new".to_vec()).unwrap();
        db.compact_all().unwrap();
        assert_eq!(snap.get(b"pinned").unwrap(), Some(b"old".to_vec()));
        assert_eq!(db.get(b"pinned").unwrap(), Some(b"new".to_vec()));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn iteration_sees_merged_state() {
        let dir = tmpdir("iter");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        for i in 0..200 {
            db.put(format!("k{i:04}").into_bytes(), b"v".to_vec()).unwrap();
        }
        db.flush().unwrap();
        db.delete(b"k0100".to_vec()).unwrap(); // in memtable, shadows table
        db.put(b"k0201".to_vec(), b"v".to_vec()).unwrap();
        let keys: Vec<Key> = db.iter().map(|(k, _)| k).collect();
        assert_eq!(keys.len(), 200, "200 - 1 deleted + 1 new");
        assert!(!keys.contains(&b"k0100".to_vec()));
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted output");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn scan_prefix_bounds() {
        let dir = tmpdir("prefix");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        db.put(b"user/1/a".to_vec(), b"1".to_vec()).unwrap();
        db.put(b"user/1/b".to_vec(), b"2".to_vec()).unwrap();
        db.put(b"user/2/a".to_vec(), b"3".to_vec()).unwrap();
        db.put(b"uzer".to_vec(), b"4".to_vec()).unwrap();
        let keys: Vec<Key> = db.scan_prefix(b"user/1/").map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"user/1/a".to_vec(), b"user/1/b".to_vec()]);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_prefix_scan_outside_every_table_reads_no_block() {
        let dir = tmpdir("scanoutside");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        for i in 0..300 {
            db.put(format!("key-{i:05}").into_bytes(), vec![0u8; 64]).unwrap();
        }
        db.compact_all().unwrap();
        db.put(b"key-00001".to_vec(), b"new".to_vec()).unwrap();
        db.flush().unwrap(); // an L0 table beside the compacted levels
        let levels = db.level_sizes();
        assert!(levels[0].0 > 0 && levels[1..].iter().any(|l| l.0 > 0), "{levels:?}");
        let blocks_read = |db: &Db| {
            let s = db.block_cache_stats().expect("cache configured");
            (s.hits, s.misses)
        };
        let before = blocks_read(&db);
        assert_eq!(db.scan_prefix(b"a").count(), 0, "below every table");
        assert_eq!(db.scan_prefix(b"zz").count(), 0, "above every table");
        assert_eq!(blocks_read(&db), before, "no table was opened");
        let keys: Vec<Key> = db.scan_prefix(b"key-0000").map(|(k, _)| k).collect();
        assert_eq!(keys.len(), 10);
        assert_ne!(blocks_read(&db), before, "an overlapping scan reads blocks");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compaction_preserves_all_data() {
        let dir = tmpdir("compactdata");
        let opts = Options::small_for_tests();
        let db = Db::open(&dir, opts).unwrap();
        for round in 0..5 {
            for i in 0..300 {
                db.put(format!("key-{i:05}").into_bytes(), format!("round-{round}").into_bytes())
                    .unwrap();
            }
        }
        db.compact_all().unwrap();
        assert!(db.stats().compactions > 0, "compactions must have run");
        for i in 0..300 {
            assert_eq!(
                db.get(format!("key-{i:05}").as_bytes()).unwrap(),
                Some(b"round-4".to_vec()),
                "key {i} must hold newest value"
            );
        }
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let dir = tmpdir("concurrent");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        db.put(b"shared".to_vec(), b"0".to_vec()).unwrap();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let v = db.get(b"shared").unwrap();
                        assert!(v.is_some());
                    }
                })
            })
            .collect();
        for i in 0..200 {
            db.put(b"shared".to_vec(), format!("{i}").into_bytes()).unwrap();
            db.put(format!("filler-{i}").into_bytes(), vec![0u8; 128]).unwrap();
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(db.get(b"shared").unwrap(), Some(b"199".to_vec()));
        fs::remove_dir_all(dir).ok();
    }

    fn sst_files(dir: &Path) -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "sst"))
            .collect();
        v.sort();
        v
    }

    fn flip_byte(path: &Path, offset: u64) {
        use std::io::{Read, Seek, SeekFrom, Write};
        let mut f = fs::OpenOptions::new().read(true).write(true).open(path).unwrap();
        f.seek(SeekFrom::Start(offset)).unwrap();
        let mut b = [0u8; 1];
        f.read_exact(&mut b).unwrap();
        b[0] ^= 0xff;
        f.seek(SeekFrom::Start(offset)).unwrap();
        f.write_all(&b).unwrap();
    }

    fn fill_one_table(db: &Db) {
        for i in 0..40 {
            db.put(format!("key-{i:05}").into_bytes(), vec![b'x'; 32]).unwrap();
        }
        db.flush().unwrap();
    }

    #[test]
    fn torn_wal_tail_is_tolerated_and_counted() {
        let dir = tmpdir("torntail");
        {
            let db = Db::open(&dir, Options::small_for_tests()).unwrap();
            db.put(b"a".to_vec(), b"1".to_vec()).unwrap();
            db.put(b"b".to_vec(), b"2".to_vec()).unwrap();
            // No clean shutdown: both records live only in the WAL.
        }
        let wal = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "wal"))
            .expect("live wal present");
        let len = fs::metadata(&wal).unwrap().len();
        fs::OpenOptions::new().write(true).open(&wal).unwrap().set_len(len - 3).unwrap();
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"b").unwrap(), None, "sheared record is gone");
        assert_eq!(db.stats().wal_torn_tail_recoveries, 1);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupt_table_is_quarantined_on_read() {
        let dir = tmpdir("quarantine");
        {
            let db = Db::open(&dir, Options::small_for_tests()).unwrap();
            fill_one_table(&db);
        }
        let ssts = sst_files(&dir);
        assert_eq!(ssts.len(), 1, "one flushed table expected");
        flip_byte(&ssts[0], 20); // inside the first data block
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        let err = db.get(b"key-00000").unwrap_err();
        match &err {
            KvError::Corruption(info) => {
                assert_eq!(info.file.as_deref(), Some(ssts[0].as_path()));
            }
            other => panic!("expected corruption, got {other:?}"),
        }
        // The table was quarantined: reads stop hitting it, the bytes are
        // preserved aside for forensics, and the event is queued.
        assert_eq!(db.get(b"key-00000").unwrap(), None);
        assert_eq!(db.table_file_count(), 0);
        let s = db.stats();
        assert_eq!(s.corruptions_detected, 1);
        assert_eq!(s.tables_quarantined, 1);
        let events = db.take_corruption_events();
        assert_eq!(events.len(), 1);
        assert!(events[0].quarantined);
        assert!(ssts[0].with_extension("sst.quarantine").exists(), "bytes kept aside");
        assert!(!ssts[0].exists());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn scrub_pass_detects_and_quarantines_bit_rot() {
        let dir = tmpdir("scrub");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        fill_one_table(&db);
        let clean = db.scrub_pass().unwrap();
        assert!(clean > 0, "clean table verifies some blocks");
        assert_eq!(db.stats().corruptions_detected, 0);
        let ssts = sst_files(&dir);
        flip_byte(&ssts[0], 20);
        db.scrub_pass().unwrap();
        let s = db.stats();
        assert_eq!(s.corruptions_detected, 1);
        assert_eq!(s.tables_quarantined, 1);
        assert!(s.scrub_blocks_verified >= clean);
        let events = db.take_corruption_events();
        assert_eq!(events.len(), 1);
        assert!(events[0].quarantined);
        assert_eq!(events[0].file.as_deref(), Some(ssts[0].as_path()));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn background_scrubber_finds_rot_without_reads() {
        let dir = tmpdir("scrub-bg");
        let opts = Options {
            scrub_interval: std::time::Duration::from_millis(20),
            ..Options::small_for_tests()
        };
        let db = Db::open(&dir, opts).unwrap();
        fill_one_table(&db);
        flip_byte(&sst_files(&dir)[0], 20);
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while db.stats().tables_quarantined == 0 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(db.stats().tables_quarantined >= 1, "scrubber thread must find the rot");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn prefix_successor_edge_cases() {
        assert_eq!(prefix_successor(b"abc"), Some(b"abd".to_vec()));
        assert_eq!(prefix_successor(&[0x01, 0xff]), Some(vec![0x02]));
        assert_eq!(prefix_successor(&[0xff, 0xff]), None);
        assert_eq!(prefix_successor(b""), None);
    }

    #[test]
    fn stats_move_forward() {
        let dir = tmpdir("stats");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        db.put(b"a".to_vec(), b"b".to_vec()).unwrap();
        db.get(b"a").unwrap();
        let s = db.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert!(s.wal_bytes > 0);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn level_sizes_and_approximate_size() {
        let dir = tmpdir("levels");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        for i in 0..400 {
            db.put(format!("key-{i:05}").into_bytes(), vec![0u8; 64]).unwrap();
        }
        db.compact_all().unwrap();
        let levels = db.level_sizes();
        let total_files: usize = levels.iter().map(|(n, _)| n).sum();
        assert!(total_files > 0);
        assert_eq!(total_files, db.table_file_count());
        let all = db.approximate_size(b"", b"");
        let half = db.approximate_size(b"key-00000", b"key-00200");
        assert!(all > 0);
        assert!(half <= all);
        assert_eq!(db.approximate_size(b"zzz", b"zzzz"), 0);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn block_cache_serves_repeated_reads() {
        let dir = tmpdir("bcache");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        for i in 0..300 {
            db.put(format!("key-{i:05}").into_bytes(), vec![0u8; 64]).unwrap();
        }
        db.compact_all().unwrap();
        for _ in 0..3 {
            for i in (0..300).step_by(50) {
                db.get(format!("key-{i:05}").as_bytes()).unwrap();
            }
        }
        let stats = db.block_cache_stats().expect("cache configured");
        assert!(stats.hits > 0, "repeat reads must hit the block cache: {stats:?}");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn group_commit_counts_every_batch() {
        let dir = tmpdir("groupstats");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        for i in 0..50 {
            db.put(format!("s-{i:03}").into_bytes(), b"v".to_vec()).unwrap();
        }
        assert_eq!(db.stats().commit_stall_micros, 0, "a lone writer always leads");
        let writers: Vec<_> = (0..8)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        db.put(format!("w{t}-{i:03}").into_bytes(), b"v".to_vec()).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let s = db.stats();
        assert_eq!(s.writes, 450);
        assert_eq!(s.commit_group_batches, 450);
        assert!(s.commit_groups > 50 && s.commit_groups <= 450);
        assert!(s.mean_group_size() >= 1.0);
        for t in 0..8 {
            for i in 0..50 {
                assert!(db.get(format!("w{t}-{i:03}").as_bytes()).unwrap().is_some());
            }
        }
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn group_commit_disabled_commits_one_batch_per_group() {
        let dir = tmpdir("nogroup");
        let db =
            Db::open(&dir, Options { group_commit: false, ..Options::small_for_tests() }).unwrap();
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        db.put(format!("n{t}-{i:03}").into_bytes(), b"v".to_vec()).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let s = db.stats();
        assert_eq!(s.writes, 200);
        assert_eq!(s.commit_group_batches, 200);
        assert_eq!(s.commit_groups, 200, "disabled grouping: one batch per group");
        assert_eq!(db.last_sequence(), 200);
        for t in 0..4 {
            for i in 0..50 {
                assert!(db.get(format!("n{t}-{i:03}").as_bytes()).unwrap().is_some());
            }
        }
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn concurrent_commits_get_distinct_gapless_seqnos() {
        let dir = tmpdir("groupseq");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        let mut b = WriteBatch::new();
                        b.put(format!("t{t}-{i:03}").into_bytes(), b"x".to_vec());
                        b.put(format!("u{t}-{i:03}").into_bytes(), b"y".to_vec());
                        db.write(b).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        // 400 two-op batches => exactly 800 sequence numbers, no gaps, no reuse.
        assert_eq!(db.last_sequence(), 800);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn empty_batch_is_noop() {
        let dir = tmpdir("noop");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        db.write(WriteBatch::new()).unwrap();
        assert_eq!(db.stats().writes, 0);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn deferred_write_leads_inline_when_idle() {
        let dir = tmpdir("defer-inline");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        let caller = std::thread::current().id();
        let (tx, rx) = std::sync::mpsc::channel();
        let mut b = WriteBatch::new();
        b.put(b"k".to_vec(), b"v".to_vec());
        db.write_deferred(
            b,
            Box::new(move |res| {
                tx.send((res.is_ok(), std::thread::current().id())).unwrap();
            }),
        );
        let (ok, on) = rx.recv().unwrap();
        assert!(ok);
        assert_eq!(on, caller, "idle queue: caller leads and completes inline");
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn deferred_write_invalid_batch_fails_inline() {
        let dir = tmpdir("defer-invalid");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let mut b = WriteBatch::new();
        b.put(Vec::new(), b"v".to_vec());
        db.write_deferred(b, Box::new(move |res| tx.send(res).unwrap()));
        assert!(matches!(rx.recv().unwrap(), Err(KvError::InvalidArgument(_))));
        assert_eq!(db.stats().writes, 0);
        fs::remove_dir_all(dir).ok();
    }

    /// `writers` threads each hand a batch to `write_deferred` whose
    /// completion issues the next, blocking write.
    fn deferred_callbacks_issue_the_next_write(name: &str, writers: usize) {
        let dir = tmpdir(name);
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let handles: Vec<_> = (0..writers)
            .map(|t| {
                let (db, tx) = (db.clone(), tx.clone());
                std::thread::spawn(move || {
                    for i in 0..20 {
                        let (db2, tx) = (db.clone(), tx.clone());
                        let mut b = WriteBatch::new();
                        b.put(format!("first-{t}-{i:02}").into_bytes(), b"1".to_vec());
                        db.write_deferred(
                            b,
                            Box::new(move |res| {
                                res.unwrap();
                                // Continuation chains re-enter the commit
                                // path; this must not deadlock on the write
                                // or queue locks.
                                let second = format!("second-{t}-{i:02}").into_bytes();
                                db2.put(second, b"2".to_vec()).unwrap();
                                tx.send(()).unwrap();
                            }),
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(tx);
        assert_eq!(rx.iter().count(), writers * 20, "every completion ran once");
        for t in 0..writers {
            for i in 0..20 {
                let first = format!("first-{t}-{i:02}");
                assert_eq!(db.get(first.as_bytes()).unwrap(), Some(b"1".to_vec()));
                let second = format!("second-{t}-{i:02}");
                assert_eq!(db.get(second.as_bytes()).unwrap(), Some(b"2".to_vec()));
            }
        }
        assert_eq!(db.last_sequence(), 2 * 20 * writers as u64);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn deferred_callback_may_issue_the_next_write() {
        deferred_callbacks_issue_the_next_write("defer-chain", 1);
    }

    #[test]
    fn deferred_callbacks_of_concurrent_writers_may_issue_the_next_write() {
        deferred_callbacks_issue_the_next_write("defer-chain-4", 4);
    }

    #[test]
    fn a_completion_runs_before_the_flush_its_group_triggers() {
        let dir = tmpdir("defer-before-flush");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        let mut b = WriteBatch::new();
        b.put(b"big".to_vec(), vec![b'x'; Options::small_for_tests().memtable_bytes]);
        let (tx, rx) = std::sync::mpsc::channel();
        let db2 = db.clone();
        db.write_deferred(
            b,
            Box::new(move |res| tx.send((res.is_ok(), db2.stats().flushes)).unwrap()),
        );
        let (ok, flushes_in_callback) = rx.recv().unwrap();
        assert!(ok);
        assert_eq!(flushes_in_callback, 0, "the completion does not wait for the flush");
        assert_eq!(db.stats().flushes, 1, "the leader flushed before returning");
        assert_eq!(db.get(b"big").unwrap().map(|v| v.len()), Some(4 << 10));
        fs::remove_dir_all(dir).ok();
    }

    /// 20 puts, a flush whose `kind` files fail to write, 20 more puts,
    /// then (with `reflush`) a flush that succeeds: every put is readable,
    /// and still is after a reopen.
    fn failed_flush_loses_nothing(name: &str, kind: FileKind, reflush: bool) {
        let dir = tmpdir(name);
        let fault = FaultVfs::seeded(DiskFaultPlan::new(), 3);
        let opts =
            Options { memtable_bytes: 1 << 20, vfs: fault.clone(), ..Options::small_for_tests() };
        let keys: Vec<String> = (0..40).map(|i| format!("k-{i:02}")).collect();
        let all_present = |db: &Db, when: &str| {
            let found = keys.iter().filter(|k| db.get(k.as_bytes()).unwrap().is_some()).count();
            assert_eq!(found, keys.len(), "{found}/40 puts readable {when}");
        };

        let db = Db::open(&dir, opts.clone()).unwrap();
        for key in &keys[..20] {
            db.put(key.clone().into_bytes(), b"v".to_vec()).unwrap();
        }
        let failing = DiskFaultSpec { write_error: 1.0, ..DiskFaultSpec::default() };
        fault.set_plan(DiskFaultPlan::new().kind(kind, failing));
        assert!(db.flush().is_err(), "the injected fault fails the flush");
        fault.clear();
        for key in &keys[20..] {
            db.put(key.clone().into_bytes(), b"v".to_vec()).unwrap();
        }
        if reflush {
            db.flush().unwrap();
        }
        all_present(&db, "before the reopen");
        drop(db);

        let db = Db::open(&dir, opts).unwrap();
        all_present(&db, "after the reopen");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_failed_table_write_keeps_later_puts_recoverable() {
        failed_flush_loses_nothing("flush-fail-table", FileKind::Table, false);
    }

    #[test]
    fn a_flush_after_a_failed_one_keeps_the_earlier_puts() {
        failed_flush_loses_nothing("flush-fail-reflush", FileKind::Table, true);
    }

    #[test]
    fn a_failed_manifest_write_keeps_later_puts_recoverable() {
        failed_flush_loses_nothing("flush-fail-manifest", FileKind::Manifest, false);
    }

    #[test]
    fn mixed_blocking_and_deferred_writers_all_commit() {
        let dir = tmpdir("defer-mixed");
        let db = Db::open(&dir, Options::small_for_tests()).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let parked: Vec<_> = (0..4)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        db.put(format!("p{t}-{i:03}").into_bytes(), b"v".to_vec()).unwrap();
                    }
                })
            })
            .collect();
        let deferred: Vec<_> = (0..4)
            .map(|t| {
                let db = db.clone();
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let mut b = WriteBatch::new();
                        b.put(format!("d{t}-{i:03}").into_bytes(), b"v".to_vec());
                        let tx = tx.clone();
                        db.write_deferred(b, Box::new(move |res| tx.send(res).unwrap()));
                    }
                })
            })
            .collect();
        for h in parked.into_iter().chain(deferred) {
            h.join().unwrap();
        }
        drop(tx);
        let completions: Vec<_> = rx.iter().collect();
        assert_eq!(completions.len(), 200, "every deferred write completes exactly once");
        assert!(completions.iter().all(Result::is_ok));
        let s = db.stats();
        assert_eq!(s.writes, 400);
        assert_eq!(db.last_sequence(), 400, "gapless seqnos across parked + deferred");
        for t in 0..4 {
            for i in 0..50 {
                assert!(db.get(format!("p{t}-{i:03}").as_bytes()).unwrap().is_some());
                assert!(db.get(format!("d{t}-{i:03}").as_bytes()).unwrap().is_some());
            }
        }
        fs::remove_dir_all(dir).ok();
    }
}
