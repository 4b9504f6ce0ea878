//! Versions and the manifest: which table files are live, at which level.
//!
//! A [`Version`] is an immutable snapshot of the table-file tree. Readers
//! pin a version with an [`Arc`] and keep using its files even while flushes
//! and compactions install newer versions; a table file is physically
//! deleted only when the last version referencing it is dropped.
//!
//! Durability: every time the file tree changes, a complete description of
//! the new version (a *manifest*) is written to `MANIFEST-<n>` and the
//! `CURRENT` file is atomically re-pointed at it. This is simpler than
//! LevelDB's incremental version-edit log and equally crash-safe.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::crc;
use crate::sstable::Table;
use crate::types::SeqNo;
use crate::vfs::{self, Vfs};
use crate::{KvError, Result};

/// Number of LSM levels.
pub const NUM_LEVELS: usize = 7;

// Filename helpers ---------------------------------------------------------

/// Path of table file `number`.
pub fn table_path(dir: &Path, number: u64) -> PathBuf {
    dir.join(format!("{number:012}.sst"))
}

/// Path of WAL file `number`.
pub fn wal_path(dir: &Path, number: u64) -> PathBuf {
    dir.join(format!("{number:012}.wal"))
}

/// Path of manifest file `number`.
pub fn manifest_path(dir: &Path, number: u64) -> PathBuf {
    dir.join(format!("MANIFEST-{number:012}"))
}

/// A live table file. Deletes itself from disk on drop once marked obsolete.
#[derive(Debug)]
pub struct TableHandle {
    /// File number (unique within the database).
    pub number: u64,
    /// File size in bytes.
    pub size: u64,
    /// Opened reader.
    pub table: Arc<Table>,
    obsolete: AtomicBool,
}

impl TableHandle {
    /// Wrap an opened table.
    pub fn new(number: u64, size: u64, table: Arc<Table>) -> Arc<TableHandle> {
        Arc::new(TableHandle { number, size, table, obsolete: AtomicBool::new(false) })
    }

    /// Mark the file for deletion when the last reference drops.
    pub fn mark_obsolete(&self) {
        self.obsolete.store(true, Ordering::Release);
    }
}

impl Drop for TableHandle {
    fn drop(&mut self) {
        if self.obsolete.load(Ordering::Acquire) {
            self.table.evict_from_cache();
            let _ = fs::remove_file(self.table.path());
        }
    }
}

/// An immutable snapshot of the level structure.
#[derive(Debug, Clone, Default)]
pub struct Version {
    /// `levels[0]` is unsorted (overlapping files, newest last); deeper
    /// levels hold disjoint key ranges sorted by smallest key.
    pub levels: Vec<Vec<Arc<TableHandle>>>,
}

impl Version {
    /// An empty version with [`NUM_LEVELS`] levels.
    pub fn empty() -> Version {
        Version { levels: vec![Vec::new(); NUM_LEVELS] }
    }

    /// Total bytes of table files in `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels.get(level).map(|fs| fs.iter().map(|f| f.size).sum()).unwrap_or(0)
    }

    /// Total number of live table files.
    pub fn file_count(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Files in `level` whose user-key range overlaps `[lo, hi]`.
    pub fn overlapping(&self, level: usize, lo: &[u8], hi: &[u8]) -> Vec<Arc<TableHandle>> {
        self.levels
            .get(level)
            .map(|files| {
                files
                    .iter()
                    .filter(|f| {
                        f.table.smallest.user.as_slice() <= hi
                            && f.table.largest.user.as_slice() >= lo
                    })
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The deepest level is "base" for a key range when no deeper level has
    /// overlapping files — compactions into base may drop tombstones.
    pub fn is_base_level_for(&self, level: usize, lo: &[u8], hi: &[u8]) -> bool {
        ((level + 1)..NUM_LEVELS).all(|l| self.overlapping(l, lo, hi).is_empty())
    }
}

/// A change to the file tree, applied atomically.
#[derive(Debug, Default)]
pub struct VersionEdit {
    /// `(level, handle)` pairs to add.
    pub added: Vec<(usize, Arc<TableHandle>)>,
    /// `(level, file_number)` pairs to remove.
    pub deleted: Vec<(usize, u64)>,
    /// `(flushed_seq, wal_number)` after a flush: everything up to
    /// `flushed_seq` is in tables, and `wal_number` is the live WAL.
    pub flushed: Option<(SeqNo, u64)>,
}

/// Owns the current version, file-number allocation and manifest persistence.
#[derive(Debug)]
pub struct VersionSet {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    current: Arc<Version>,
    next_file: u64,
    manifest_number: u64,
    /// Highest sequence number made durable in a table file.
    pub flushed_seq: SeqNo,
    /// Number of the live WAL file.
    pub wal_number: u64,
}

/// State recovered from disk by [`VersionSet::recover`].
#[derive(Debug)]
pub struct RecoveredState {
    /// The version set ready for use.
    pub versions: VersionSet,
    /// Sequence number persisted at the last manifest write.
    pub last_seq: SeqNo,
}

impl VersionSet {
    /// Create a fresh version set for a new database directory on the real
    /// filesystem.
    ///
    /// # Errors
    /// Propagates filesystem errors from writing the initial manifest.
    pub fn create(dir: &Path) -> Result<VersionSet> {
        Self::create_with(dir, vfs::real())
    }

    /// Create a fresh version set whose manifest I/O goes through `vfs`.
    ///
    /// # Errors
    /// Propagates filesystem errors from writing the initial manifest.
    pub fn create_with(dir: &Path, vfs: Arc<dyn Vfs>) -> Result<VersionSet> {
        let mut vs = VersionSet {
            dir: dir.to_path_buf(),
            vfs,
            current: Arc::new(Version::empty()),
            next_file: 1,
            manifest_number: 0,
            flushed_seq: 0,
            wal_number: 0,
        };
        vs.wal_number = vs.allocate_file_number();
        vs.write_manifest(&Version::empty(), 0, 0, vs.wal_number)?;
        Ok(vs)
    }

    /// Recover the version set from the directory's `CURRENT` manifest on
    /// the real filesystem.
    ///
    /// # Errors
    /// Returns [`KvError::InvalidDatabase`] or [`KvError::Corruption`] when
    /// the manifest chain is broken.
    pub fn recover(dir: &Path) -> Result<RecoveredState> {
        Self::recover_with(dir, vfs::real(), None)
    }

    /// Recover through `vfs`, optionally with a shared block cache for the
    /// opened tables.
    ///
    /// # Errors
    /// Same as [`recover`](Self::recover).
    pub fn recover_with(
        dir: &Path,
        vfs: Arc<dyn Vfs>,
        cache: Option<std::sync::Arc<crate::block_cache::BlockCache>>,
    ) -> Result<RecoveredState> {
        let current = vfs
            .read_to_string(&dir.join("CURRENT"))
            .map_err(|e| KvError::InvalidDatabase(format!("cannot read CURRENT: {e}")))?;
        let manifest_name = current.trim();
        let mpath = dir.join(manifest_name);
        let raw = vfs
            .read(&mpath)
            .map_err(|e| KvError::InvalidDatabase(format!("cannot read {manifest_name}: {e}")))?;
        if raw.len() < 4 {
            return Err(KvError::corruption_at(&mpath, 0u64, "manifest too short"));
        }
        let (body, crcb) = raw.split_at(raw.len() - 4);
        let stored = crc::unmask(u32::from_le_bytes(crcb.try_into().unwrap()));
        if crc::crc32c(body) != stored {
            return Err(KvError::corruption_at(&mpath, 0u64, "manifest checksum mismatch"));
        }

        let mut pos = 0usize;
        let mut rd_u64 = |body: &[u8]| -> Result<u64> {
            let v = body
                .get(pos..pos + 8)
                .ok_or_else(|| KvError::corruption_at(&mpath, pos as u64, "manifest truncated"))?;
            pos += 8;
            Ok(u64::from_le_bytes(v.try_into().unwrap()))
        };
        let next_file = rd_u64(body)?;
        let last_seq = rd_u64(body)?;
        let flushed_seq = rd_u64(body)?;
        let wal_number = rd_u64(body)?;
        let n_levels = rd_u64(body)? as usize;
        if n_levels > 64 {
            return Err(KvError::corruption_at(&mpath, 0u64, "manifest level count implausible"));
        }
        let mut version = Version { levels: vec![Vec::new(); NUM_LEVELS.max(n_levels)] };
        for level in 0..n_levels {
            let count = rd_u64(body)? as usize;
            for _ in 0..count {
                let number = rd_u64(body)?;
                let size = rd_u64(body)?;
                let path = table_path(dir, number);
                let table = Table::open_with(&vfs, &path, cache.clone())?;
                version.levels[level].push(TableHandle::new(number, size, table));
            }
        }
        let manifest_number: u64 = manifest_name
            .strip_prefix("MANIFEST-")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| KvError::corruption("bad manifest name in CURRENT"))?;
        Ok(RecoveredState {
            versions: VersionSet {
                dir: dir.to_path_buf(),
                vfs,
                current: Arc::new(version),
                next_file,
                manifest_number,
                flushed_seq,
                wal_number,
            },
            last_seq,
        })
    }

    /// The currently installed version.
    pub fn current(&self) -> Arc<Version> {
        Arc::clone(&self.current)
    }

    /// Allocate a fresh unique file number.
    pub fn allocate_file_number(&mut self) -> u64 {
        let n = self.next_file;
        self.next_file += 1;
        n
    }

    /// Apply `edit`, persist the new manifest, and install the new version.
    /// Removed files are marked obsolete (deleted when unpinned).
    ///
    /// # Errors
    /// Propagates manifest-write failures. Nothing changes unless the
    /// manifest is durable: the version, `flushed_seq` and `wal_number`
    /// stay as they were, and the files the edit would have added are
    /// deleted.
    pub fn log_and_apply(&mut self, edit: VersionEdit, last_seq: SeqNo) -> Result<Arc<Version>> {
        let mut new = (*self.current).clone();
        let mut removed = Vec::new();
        for (level, number) in &edit.deleted {
            if let Some(files) = new.levels.get_mut(*level) {
                if let Some(idx) = files.iter().position(|f| f.number == *number) {
                    removed.push(files.remove(idx));
                }
            }
        }
        for (level, handle) in &edit.added {
            let level = *level;
            while new.levels.len() <= level {
                new.levels.push(Vec::new());
            }
            new.levels[level].push(Arc::clone(handle));
            if level > 0 {
                new.levels[level].sort_by(|a, b| a.table.smallest.user.cmp(&b.table.smallest.user));
            } else {
                new.levels[0].sort_by_key(|f| f.number);
            }
        }
        let (flushed_seq, wal_number) = edit.flushed.unwrap_or((self.flushed_seq, self.wal_number));
        if let Err(e) = self.write_manifest(&new, last_seq, flushed_seq, wal_number) {
            for (_, handle) in &edit.added {
                handle.mark_obsolete();
            }
            return Err(e);
        }
        for file in removed {
            file.mark_obsolete();
        }
        self.current = Arc::new(new);
        self.flushed_seq = flushed_seq;
        self.wal_number = wal_number;
        Ok(self.current())
    }

    /// Persist `version` and the counters as the next manifest and point
    /// `CURRENT` at it; the manifest number advances only on success.
    fn write_manifest(
        &mut self,
        version: &Version,
        last_seq: SeqNo,
        flushed_seq: SeqNo,
        wal_number: u64,
    ) -> Result<()> {
        let number = self.manifest_number + 1;
        let path = manifest_path(&self.dir, number);
        let mut body = Vec::new();
        body.extend_from_slice(&self.next_file.to_le_bytes());
        body.extend_from_slice(&last_seq.to_le_bytes());
        body.extend_from_slice(&flushed_seq.to_le_bytes());
        body.extend_from_slice(&wal_number.to_le_bytes());
        body.extend_from_slice(&(version.levels.len() as u64).to_le_bytes());
        for level in &version.levels {
            body.extend_from_slice(&(level.len() as u64).to_le_bytes());
            for f in level {
                body.extend_from_slice(&f.number.to_le_bytes());
                body.extend_from_slice(&f.size.to_le_bytes());
            }
        }
        body.extend_from_slice(&crc::mask(crc::crc32c(&body)).to_le_bytes());
        let mut file = self.vfs.create(&path)?;
        file.write_all(&body)?;
        file.sync_data()?;
        drop(file);
        // Atomically point CURRENT at the new manifest.
        let tmp = self.dir.join("CURRENT.tmp");
        self.vfs.write(&tmp, format!("MANIFEST-{number:012}\n").as_bytes())?;
        self.vfs.rename(&tmp, &self.dir.join("CURRENT"))?;
        // Best-effort cleanup of the previous manifest.
        if self.manifest_number > 0 {
            let _ = self.vfs.remove_file(&manifest_path(&self.dir, self.manifest_number));
        }
        self.manifest_number = number;
        Ok(())
    }

    /// Database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The [`Vfs`] this version set performs its I/O through.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::build_table;
    use crate::types::{InternalKey, ValueKind};

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lambda-kv-ver-{}-{}", name, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn make_table(dir: &Path, number: u64, keys: &[&str]) -> Arc<TableHandle> {
        let path = table_path(dir, number);
        let entries: Vec<(InternalKey, Vec<u8>)> = keys
            .iter()
            .map(|k| (InternalKey::new(k.as_bytes().to_vec(), 1, ValueKind::Put), b"v".to_vec()))
            .collect();
        let (size, _, _) =
            build_table(&path, entries.iter().map(|(k, v)| (k, v.as_slice())), 256, 10).unwrap();
        TableHandle::new(number, size, Table::open(&path).unwrap())
    }

    #[test]
    fn create_apply_recover_round_trip() {
        let dir = tmpdir("roundtrip");
        let mut vs = VersionSet::create(&dir).unwrap();
        let n1 = vs.allocate_file_number();
        let t1 = make_table(&dir, n1, &["a", "b"]);
        let n2 = vs.allocate_file_number();
        let t2 = make_table(&dir, n2, &["c", "d"]);
        let edit = VersionEdit { added: vec![(0, t1), (1, t2)], ..VersionEdit::default() };
        vs.log_and_apply(edit, 42).unwrap();

        let rec = VersionSet::recover(&dir).unwrap();
        assert_eq!(rec.last_seq, 42);
        let v = rec.versions.current();
        assert_eq!(v.levels[0].len(), 1);
        assert_eq!(v.levels[1].len(), 1);
        assert_eq!(v.levels[0][0].number, n1);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn deleted_files_are_removed_from_disk_when_unpinned() {
        let dir = tmpdir("gc");
        let mut vs = VersionSet::create(&dir).unwrap();
        let n1 = vs.allocate_file_number();
        let t1 = make_table(&dir, n1, &["a"]);
        let path = t1.table.path().to_path_buf();
        vs.log_and_apply(VersionEdit { added: vec![(0, t1)], ..VersionEdit::default() }, 1)
            .unwrap();
        // Pin the old version like a reader would.
        let pinned = vs.current();
        vs.log_and_apply(VersionEdit { deleted: vec![(0, n1)], ..VersionEdit::default() }, 2)
            .unwrap();
        assert!(path.exists(), "pinned file must survive");
        drop(pinned);
        assert!(!path.exists(), "unpinned obsolete file must be deleted");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn overlapping_and_base_level_queries() {
        let dir = tmpdir("overlap");
        let mut vs = VersionSet::create(&dir).unwrap();
        let n1 = vs.allocate_file_number();
        let n2 = vs.allocate_file_number();
        let t1 = make_table(&dir, n1, &["a", "f"]);
        let t2 = make_table(&dir, n2, &["m", "z"]);
        vs.log_and_apply(
            VersionEdit { added: vec![(1, t1), (2, t2)], ..VersionEdit::default() },
            1,
        )
        .unwrap();
        let v = vs.current();
        assert_eq!(v.overlapping(1, b"b", b"c").len(), 1);
        assert_eq!(v.overlapping(1, b"g", b"h").len(), 0);
        assert!(!v.is_base_level_for(1, b"m", b"n"), "level 2 overlaps");
        assert!(v.is_base_level_for(1, b"g", b"h"), "no deeper overlap");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recover_rejects_corrupt_manifest() {
        let dir = tmpdir("badmanifest");
        let mut vs = VersionSet::create(&dir).unwrap();
        vs.log_and_apply(VersionEdit::default(), 7).unwrap();
        let current = fs::read_to_string(dir.join("CURRENT")).unwrap();
        let mpath = dir.join(current.trim());
        let mut data = fs::read(&mpath).unwrap();
        data[3] ^= 0xff;
        fs::write(&mpath, &data).unwrap();
        assert!(VersionSet::recover(&dir).is_err());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_current_is_invalid_database() {
        let dir = tmpdir("nocurrent");
        match VersionSet::recover(&dir) {
            Err(KvError::InvalidDatabase(_)) => {}
            other => panic!("expected InvalidDatabase, got {other:?}"),
        }
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn file_numbers_are_unique_after_recovery() {
        let dir = tmpdir("filenos");
        let mut vs = VersionSet::create(&dir).unwrap();
        let a = vs.allocate_file_number();
        let b = vs.allocate_file_number();
        assert_ne!(a, b);
        vs.log_and_apply(VersionEdit::default(), 0).unwrap();
        let mut rec = VersionSet::recover(&dir).unwrap();
        let c = rec.versions.allocate_file_number();
        assert!(c > b);
        fs::remove_dir_all(dir).ok();
    }
}
