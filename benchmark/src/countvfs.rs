//! The storage engine's real filesystem (`lambda_kv::vfs::real()`) with the
//! writes and `fsync`s that pass through it counted: the device boundary of
//! the per-layer ledger. Nothing is changed or held back; every call goes to
//! the file underneath.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lambda_kv::vfs::{RandomFile, Vfs, VfsFile};

#[derive(Debug, Default)]
struct Counters {
    syncs: AtomicU64,
    bytes_written: AtomicU64,
}

#[derive(Debug)]
pub struct CountingVfs {
    inner: Arc<dyn Vfs>,
    counters: Arc<Counters>,
}

impl CountingVfs {
    pub fn over_real() -> Arc<CountingVfs> {
        Arc::new(CountingVfs { inner: lambda_kv::vfs::real(), counters: Arc::default() })
    }

    /// `fsync`s issued so far.
    pub fn syncs(&self) -> u64 {
        self.counters.syncs.load(Ordering::Relaxed)
    }

    /// Bytes handed to the files so far.
    pub fn bytes_written(&self) -> u64 {
        self.counters.bytes_written.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct CountingFile {
    inner: Box<dyn VfsFile>,
    counters: Arc<Counters>,
}

impl VfsFile for CountingFile {
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        self.counters.bytes_written.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.write_all(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync_data()
    }
}

impl Vfs for CountingVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let inner = self.inner.create(path)?;
        Ok(Box::new(CountingFile { inner, counters: Arc::clone(&self.counters) }))
    }

    fn open_random(&self, path: &Path) -> io::Result<Box<dyn RandomFile>> {
        self.inner.open_random(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.inner.read_to_string(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.counters.bytes_written.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.write(path, data)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_engine_writes_real_files_and_every_sync_is_counted() {
        let vfs = CountingVfs::over_real();
        let guard = crate::cluster::DataDir::create("countvfs-test").unwrap();
        let db = lambda_kv::Db::open(guard.path(), crate::spec::kv_options(vfs.clone())).unwrap();
        let before = vfs.syncs();
        for i in 0..100u32 {
            db.put(format!("key/{i:05}").into_bytes(), vec![b'v'; 100]).unwrap();
        }
        assert_eq!(vfs.syncs() - before, 100, "sync_wal: one fsync per uncontended commit");
        assert!(vfs.bytes_written() >= 100 * 100);
        assert!(crate::cluster::dir_bytes(guard.path()) >= 100 * 100, "the files are on disk");
    }
}
