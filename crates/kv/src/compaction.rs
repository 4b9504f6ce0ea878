//! Compaction: merging tables into deeper levels and discarding dead
//! versions.
//!
//! Policy (a simplified LevelDB):
//!
//! * L0 → L1 when L0 accumulates `l0_compaction_files` tables; all L0 files
//!   plus every overlapping L1 file participate (L0 files overlap freely).
//! * Ln → Ln+1 (n ≥ 1) when Ln's byte size exceeds its budget
//!   (`l1_max_bytes * multiplier^(n-1)`); the oldest file plus overlapping
//!   files below participate.
//!
//! Version GC during the merge keeps, per user key: every version newer than
//! the oldest live snapshot, plus the newest version at-or-below it.
//! Tombstones are additionally dropped when the output level is the base
//! level for that key range.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::iterator::{ChildIter, MergingIterator};
use crate::sstable::{CorruptionSink, Table, TableBuilder};
use crate::types::{InternalKey, SeqNo, ValueKind};
use crate::version::{table_path, TableHandle, Version, VersionEdit, VersionSet};
use crate::{Options, Result};

/// A unit of compaction work.
#[derive(Debug)]
pub struct CompactionTask {
    /// Level the inputs come from.
    pub level: usize,
    /// Files from `level`.
    pub inputs: Vec<Arc<TableHandle>>,
    /// Overlapping files from `level + 1`.
    pub next_level_inputs: Vec<Arc<TableHandle>>,
    /// Whether tombstones may be dropped (no deeper overlapping data).
    pub is_base_level: bool,
}

/// Decide whether any level needs compaction under `opts`.
pub fn pick_compaction(version: &Version, opts: &Options) -> Option<CompactionTask> {
    // L0 by file count.
    if version.levels[0].len() >= opts.l0_compaction_files {
        let inputs = version.levels[0].clone();
        let (lo, hi) = key_span(&inputs)?;
        let next_level_inputs = version.overlapping(1, &lo, &hi);
        let is_base_level = version.is_base_level_for(1, &lo, &hi);
        return Some(CompactionTask { level: 0, inputs, next_level_inputs, is_base_level });
    }
    // Deeper levels by size.
    let mut budget = opts.l1_max_bytes;
    for level in 1..version.levels.len().saturating_sub(1) {
        if version.level_bytes(level) > budget {
            // Compact the file with the smallest key first (round-robin would
            // also work; deterministic choice simplifies testing).
            let input = version.levels[level].first()?.clone();
            let lo = input.table.smallest.user.clone();
            let hi = input.table.largest.user.clone();
            let next_level_inputs = version.overlapping(level + 1, &lo, &hi);
            let is_base_level = version.is_base_level_for(level + 1, &lo, &hi);
            return Some(CompactionTask {
                level,
                inputs: vec![input],
                next_level_inputs,
                is_base_level,
            });
        }
        budget = budget.saturating_mul(opts.level_size_multiplier);
    }
    None
}

fn key_span(files: &[Arc<TableHandle>]) -> Option<(Vec<u8>, Vec<u8>)> {
    let mut lo: Option<Vec<u8>> = None;
    let mut hi: Option<Vec<u8>> = None;
    for f in files {
        let s = &f.table.smallest.user;
        let l = &f.table.largest.user;
        if lo.as_ref().is_none_or(|cur| s < cur) {
            lo = Some(s.clone());
        }
        if hi.as_ref().is_none_or(|cur| l > cur) {
            hi = Some(l.clone());
        }
    }
    Some((lo?, hi?))
}

/// GC filter applied while merging: decides which versions survive.
#[derive(Debug)]
struct GcFilter {
    oldest_snapshot: SeqNo,
    is_base_level: bool,
    last_user: Option<Vec<u8>>,
    kept_below_snapshot: bool,
}

impl GcFilter {
    fn new(oldest_snapshot: SeqNo, is_base_level: bool) -> Self {
        GcFilter { oldest_snapshot, is_base_level, last_user: None, kept_below_snapshot: false }
    }

    fn keep(&mut self, key: &InternalKey) -> bool {
        if self.last_user.as_deref() != Some(key.user.as_slice()) {
            self.last_user = Some(key.user.clone());
            self.kept_below_snapshot = false;
        }
        if key.seq > self.oldest_snapshot {
            return true; // some snapshot may still need this exact version
        }
        if self.kept_below_snapshot {
            return false; // shadowed by a newer kept version for every snapshot
        }
        self.kept_below_snapshot = true;
        if key.kind == ValueKind::Deletion && self.is_base_level {
            // Newest surviving version is a tombstone and nothing deeper can
            // resurrect the key: drop it entirely.
            return false;
        }
        true
    }
}

/// Outcome of running a compaction.
#[derive(Debug, Default)]
pub struct CompactionResult {
    /// Files written (level, handle).
    pub output: Vec<Arc<TableHandle>>,
    /// Entries read from inputs.
    pub entries_in: u64,
    /// Entries surviving GC.
    pub entries_out: u64,
}

/// Execute `task`, producing output tables and applying the version edit.
///
/// `oldest_snapshot` is the smallest live snapshot sequence number (or the
/// current last-seq when no snapshots are open).
///
/// # Errors
/// Propagates I/O errors; on failure no version change is applied.
pub fn run_compaction(
    versions: &mut VersionSet,
    task: CompactionTask,
    opts: &Options,
    oldest_snapshot: SeqNo,
) -> Result<CompactionResult> {
    run_compaction_cached(versions, task, opts, oldest_snapshot, None)
}

/// Like [`run_compaction`] with a shared block cache for the output tables.
///
/// # Errors
/// Same as [`run_compaction`].
pub fn run_compaction_cached(
    versions: &mut VersionSet,
    task: CompactionTask,
    opts: &Options,
    oldest_snapshot: SeqNo,
    cache: Option<std::sync::Arc<crate::block_cache::BlockCache>>,
) -> Result<CompactionResult> {
    let out_level = task.level + 1;
    // Input iterators cannot return errors through `Iterator::next`; a
    // corrupt block would silently truncate an input and the compaction
    // would commit a version that lost data. The sink catches exactly that.
    let sink: CorruptionSink = Arc::new(Mutex::new(Vec::new()));
    let mut children: Vec<ChildIter> = Vec::new();
    // Newest sources first: L0 files have the highest numbers = newest data.
    let mut l0_sorted = task.inputs.clone();
    l0_sorted.sort_by_key(|f| std::cmp::Reverse(f.number));
    for f in &l0_sorted {
        children.push(Box::new(f.table.iter().with_sink(Arc::clone(&sink))));
    }
    for f in &task.next_level_inputs {
        children.push(Box::new(f.table.iter().with_sink(Arc::clone(&sink))));
    }
    let merged = MergingIterator::new(children);

    let mut gc = GcFilter::new(oldest_snapshot, task.is_base_level);
    let mut result = CompactionResult::default();
    let mut builder: Option<TableBuilder> = None;
    let mut builder_number = 0u64;
    let mut outputs: Vec<(u64, TableBuilder)> = Vec::new();
    let mut last_emitted: Option<InternalKey> = None;

    for (key, value) in merged {
        result.entries_in += 1;
        // Duplicate internal keys across sources (flush races): keep first.
        if last_emitted.as_ref() == Some(&key) {
            continue;
        }
        if !gc.keep(&key) {
            continue;
        }
        last_emitted = Some(key.clone());
        result.entries_out += 1;
        let b = match builder.as_mut() {
            Some(b) => b,
            None => {
                builder_number = versions.allocate_file_number();
                let path = table_path(versions.dir(), builder_number);
                builder = Some(TableBuilder::create_with(
                    &opts.vfs,
                    path,
                    opts.block_bytes,
                    opts.bloom_bits_per_key,
                )?);
                builder.as_mut().expect("just set")
            }
        };
        b.add(&key, &value)?;
        if b.file_size_estimate() >= opts.table_target_bytes as u64 {
            outputs.push((builder_number, builder.take().expect("non-empty")));
        }
    }
    if let Some(b) = builder.take() {
        if b.entry_count() > 0 {
            outputs.push((builder_number, b));
        }
    }

    // An input table went bad mid-merge: abandon the compaction (removing
    // the partial outputs) and surface the corruption so the caller can
    // quarantine the offending file. No version change is applied, so no
    // data is lost here.
    let first_corruption = sink.lock().pop();
    if let Some(err) = first_corruption {
        for (number, b) in outputs {
            drop(b);
            let _ = opts.vfs.remove_file(&table_path(versions.dir(), number));
        }
        return Err(err);
    }

    let mut edit = VersionEdit::default();
    for (number, b) in outputs {
        let (size, _, _) = b.finish()?;
        let table = Table::open_with(&opts.vfs, table_path(versions.dir(), number), cache.clone())?;
        let handle = TableHandle::new(number, size, table);
        result.output.push(Arc::clone(&handle));
        edit.added.push((out_level, handle));
    }
    for f in &task.inputs {
        edit.deleted.push((task.level, f.number));
    }
    for f in &task.next_level_inputs {
        edit.deleted.push((out_level, f.number));
    }
    versions.log_and_apply(edit, oldest_snapshot.max(versions.flushed_seq))?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::build_table;
    use crate::version::NUM_LEVELS;
    use std::path::{Path, PathBuf};

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lambda-kv-compact-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn add_table(
        vs: &mut VersionSet,
        dir: &Path,
        level: usize,
        entries: Vec<(InternalKey, Vec<u8>)>,
    ) -> u64 {
        let n = vs.allocate_file_number();
        let path = table_path(dir, n);
        let (size, _, _) =
            build_table(&path, entries.iter().map(|(k, v)| (k, v.as_slice())), 256, 10).unwrap();
        let t = Table::open(&path).unwrap();
        let h = TableHandle::new(n, size, t);
        vs.log_and_apply(VersionEdit { added: vec![(level, h)], ..VersionEdit::default() }, 0)
            .unwrap();
        n
    }

    fn put(k: &str, seq: u64) -> (InternalKey, Vec<u8>) {
        (
            InternalKey::new(k.as_bytes().to_vec(), seq, ValueKind::Put),
            format!("v{seq}").into_bytes(),
        )
    }

    fn del(k: &str, seq: u64) -> (InternalKey, Vec<u8>) {
        (InternalKey::new(k.as_bytes().to_vec(), seq, ValueKind::Deletion), Vec::new())
    }

    #[test]
    fn gc_filter_keeps_newest_below_snapshot() {
        let mut gc = GcFilter::new(5, false);
        assert!(gc.keep(&InternalKey::new(*b"k", 9, ValueKind::Put)), "above snapshot");
        assert!(gc.keep(&InternalKey::new(*b"k", 4, ValueKind::Put)), "newest below");
        assert!(!gc.keep(&InternalKey::new(*b"k", 3, ValueKind::Put)), "shadowed");
        assert!(gc.keep(&InternalKey::new(*b"m", 1, ValueKind::Put)), "new user key");
    }

    #[test]
    fn gc_filter_drops_base_level_tombstones() {
        let mut gc = GcFilter::new(100, true);
        assert!(!gc.keep(&InternalKey::new(*b"k", 9, ValueKind::Deletion)));
        assert!(!gc.keep(&InternalKey::new(*b"k", 3, ValueKind::Put)), "shadowed by tombstone");
        let mut gc2 = GcFilter::new(100, false);
        assert!(gc2.keep(&InternalKey::new(*b"k", 9, ValueKind::Deletion)), "non-base keeps it");
    }

    #[test]
    fn l0_compaction_merges_and_dedups() {
        let dir = tmpdir("l0");
        let mut vs = VersionSet::create(&dir).unwrap();
        add_table(&mut vs, &dir, 0, vec![put("a", 1), put("b", 1)]);
        add_table(&mut vs, &dir, 0, vec![put("a", 5), put("c", 5)]);
        let opts = Options { l0_compaction_files: 2, ..Options::small_for_tests() };
        let task = pick_compaction(&vs.current(), &opts).expect("l0 compaction due");
        assert_eq!(task.level, 0);
        let res = run_compaction(&mut vs, task, &opts, 100).unwrap();
        assert_eq!(res.entries_in, 4);
        assert_eq!(res.entries_out, 3, "a@1 shadowed by a@5");
        let v = vs.current();
        assert!(v.levels[0].is_empty());
        assert_eq!(v.levels[1].len(), 1);
        let out = &v.levels[1][0].table;
        assert_eq!(
            out.get(b"a", 100).unwrap(),
            crate::memtable::LookupResult::Found(b"v5".to_vec())
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn snapshot_pins_old_versions_through_compaction() {
        let dir = tmpdir("snap");
        let mut vs = VersionSet::create(&dir).unwrap();
        add_table(&mut vs, &dir, 0, vec![put("a", 1)]);
        add_table(&mut vs, &dir, 0, vec![put("a", 5)]);
        let opts = Options { l0_compaction_files: 2, ..Options::small_for_tests() };
        let task = pick_compaction(&vs.current(), &opts).unwrap();
        // A snapshot at seq 2 still needs a@1.
        let res = run_compaction(&mut vs, task, &opts, 2).unwrap();
        assert_eq!(res.entries_out, 2, "both versions kept");
        let out = &vs.current().levels[1][0].table;
        assert_eq!(out.get(b"a", 2).unwrap(), crate::memtable::LookupResult::Found(b"v1".to_vec()));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn tombstones_vanish_at_base_level() {
        let dir = tmpdir("tomb");
        let mut vs = VersionSet::create(&dir).unwrap();
        add_table(&mut vs, &dir, 0, vec![del("a", 5)]);
        add_table(&mut vs, &dir, 0, vec![put("a", 1)]);
        let opts = Options { l0_compaction_files: 2, ..Options::small_for_tests() };
        let task = pick_compaction(&vs.current(), &opts).unwrap();
        assert!(task.is_base_level);
        let res = run_compaction(&mut vs, task, &opts, 100).unwrap();
        assert_eq!(res.entries_out, 0, "tombstone and shadowed put both dropped");
        assert!(vs.current().levels[1].is_empty());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn size_triggered_compaction_at_l1() {
        let dir = tmpdir("size");
        let mut vs = VersionSet::create(&dir).unwrap();
        let big: Vec<(InternalKey, Vec<u8>)> = (0..200)
            .map(|i| {
                (
                    InternalKey::new(format!("k{i:05}").into_bytes(), 1, ValueKind::Put),
                    vec![0u8; 200],
                )
            })
            .collect();
        add_table(&mut vs, &dir, 1, big);
        let opts = Options { l1_max_bytes: 1024, ..Options::small_for_tests() };
        let task = pick_compaction(&vs.current(), &opts).expect("size compaction due");
        assert_eq!(task.level, 1);
        run_compaction(&mut vs, task, &opts, 100).unwrap();
        let v = vs.current();
        assert!(v.levels[1].is_empty());
        assert!(!v.levels[2].is_empty());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupt_input_aborts_compaction_without_data_loss() {
        let dir = tmpdir("corruptinput");
        let mut vs = VersionSet::create(&dir).unwrap();
        let entries: Vec<(InternalKey, Vec<u8>)> =
            (0..100).map(|i| put(&format!("k{i:05}"), 1)).collect();
        let n1 = add_table(&mut vs, &dir, 0, entries);
        add_table(&mut vs, &dir, 0, vec![put("zz", 2)]);
        // Rot a data block in the first input.
        let p = table_path(&dir, n1);
        let mut data = std::fs::read(&p).unwrap();
        data[10] ^= 0x01;
        std::fs::write(&p, &data).unwrap();
        // Re-open the version so the table reader has no cached copy.
        let mut vs = VersionSet::recover(&dir).unwrap().versions;
        let opts = Options { l0_compaction_files: 2, ..Options::small_for_tests() };
        let task = pick_compaction(&vs.current(), &opts).expect("l0 compaction due");
        let file_count_before = vs.current().file_count();
        match run_compaction(&mut vs, task, &opts, 100) {
            Err(crate::KvError::Corruption(info)) => {
                assert_eq!(info.file.as_deref(), Some(p.as_path()));
            }
            other => panic!("expected corruption abort, got {other:?}"),
        }
        // No version change: both inputs still live, no outputs installed.
        assert_eq!(vs.current().file_count(), file_count_before);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn no_compaction_when_under_thresholds() {
        let dir = tmpdir("quiet");
        let mut vs = VersionSet::create(&dir).unwrap();
        add_table(&mut vs, &dir, 0, vec![put("a", 1)]);
        let opts = Options::default();
        assert!(pick_compaction(&vs.current(), &opts).is_none());
        assert_eq!(vs.current().levels.len(), NUM_LEVELS);
        std::fs::remove_dir_all(dir).ok();
    }
}
