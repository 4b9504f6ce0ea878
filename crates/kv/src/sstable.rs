//! Immutable, sorted, block-based on-disk tables.
//!
//! ## File layout
//!
//! ```text
//! [data block 0][crc32c]
//! [data block 1][crc32c]
//! ...
//! [meta block: smallest/largest internal key][crc32c]
//! [bloom filter][crc32c]
//! [index block][crc32c]
//! [footer: 56 bytes, fixed]
//! ```
//!
//! Data blocks use LevelDB-style prefix compression with restart points:
//! each entry is `shared:varint unshared:varint vlen:varint key_delta value`
//! and every `RESTART_INTERVAL`-th entry restarts with a full key. The block
//! trailer lists the restart offsets so readers can binary-search within a
//! block.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::block_cache::{BlockCache, RawBlock};
use crate::bloom::BloomFilter;
use crate::crc;
use crate::memtable::LookupResult;
use crate::types::{
    cmp_encoded, get_varint32, put_varint32, split_encoded, InternalKey, SeqNo, Value, ValueKind,
};
use crate::vfs::{self, RandomFile, Vfs, VfsFile};
use crate::{KvError, Result};

/// Shared collector for corruption errors detected on paths that cannot
/// propagate a `Result` (e.g. the streaming [`TableIterator`] used by
/// compaction and merged range scans). Whoever installs the sink inspects
/// it afterwards and decides whether to quarantine.
pub type CorruptionSink = Arc<Mutex<Vec<KvError>>>;

/// Number of entries between restart points inside a data block.
pub const RESTART_INTERVAL: usize = 16;
/// Magic number closing every table file.
pub const TABLE_MAGIC: u64 = 0x4c41_4d42_4441_4f42; // "LAMBDAOB"
/// Size of the fixed footer.
pub const FOOTER_SIZE: usize = 56;

// ---------------------------------------------------------------------------
// Block building / reading
// ---------------------------------------------------------------------------

/// Incremental builder for one prefix-compressed block.
#[derive(Debug, Default)]
struct BlockBuilder {
    buf: Vec<u8>,
    restarts: Vec<u32>,
    counter: usize,
    last_key: Vec<u8>,
    entries: usize,
}

impl BlockBuilder {
    fn add(&mut self, key: &[u8], value: &[u8]) {
        debug_assert!(
            self.last_key.is_empty()
                || crate::types::cmp_encoded(key, &self.last_key) == std::cmp::Ordering::Greater
        );
        let shared = if self.counter < RESTART_INTERVAL {
            self.last_key.iter().zip(key.iter()).take_while(|(a, b)| a == b).count()
        } else {
            self.restarts.push(self.buf.len() as u32);
            self.counter = 0;
            0
        };
        put_varint32(&mut self.buf, shared as u32);
        put_varint32(&mut self.buf, (key.len() - shared) as u32);
        put_varint32(&mut self.buf, value.len() as u32);
        self.buf.extend_from_slice(&key[shared..]);
        self.buf.extend_from_slice(value);
        self.last_key = key.to_vec();
        self.counter += 1;
        self.entries += 1;
    }

    fn is_empty(&self) -> bool {
        self.entries == 0
    }

    fn size_estimate(&self) -> usize {
        self.buf.len() + self.restarts.len() * 4 + 8
    }

    fn finish(&mut self) -> Vec<u8> {
        let mut out = std::mem::take(&mut self.buf);
        for r in &self.restarts {
            out.extend_from_slice(&r.to_le_bytes());
        }
        // +1: offset 0 is always an implicit restart.
        out.extend_from_slice(&((self.restarts.len() + 1) as u32).to_le_bytes());
        self.restarts.clear();
        self.counter = 0;
        self.last_key.clear();
        self.entries = 0;
        out
    }
}

/// One entry of a raw block, decoded in place: its key is the previous
/// key's first `shared` bytes followed by `delta`.
struct Entry<'a> {
    shared: usize,
    delta: &'a [u8],
    value: &'a [u8],
    /// Offset of the entry after this one.
    next: usize,
}

/// Decode the entry at `pos` of `data` (a block's entries, the restart
/// trailer cut off), `prev_len` being the length of the key before it.
/// This is the one entry decoder: the validation walk, [`Table::get`] and
/// [`TableIterator`] all read entries through it.
fn decode_entry(
    data: &[u8],
    pos: usize,
    prev_len: usize,
) -> std::result::Result<Entry<'_>, &'static str> {
    let (shared, p) = varint_at(data, pos).ok_or("bad shared")?;
    let (unshared, p) = varint_at(data, p).ok_or("bad unshared")?;
    let (vlen, mut p) = varint_at(data, p).ok_or("bad vlen")?;
    if shared > prev_len {
        return Err("shared prefix longer than previous key");
    }
    if shared + unshared < 8 {
        return Err("key shorter than its tag");
    }
    let delta = data.get(p..p + unshared).ok_or("truncated key")?;
    p += unshared;
    let value = data.get(p..p + vlen).ok_or("truncated value")?;
    Ok(Entry { shared, delta, value, next: p + vlen })
}

/// The varint at `p` and the offset after it, with fast paths for the
/// one- and two-byte lengths of keys and values up to 16 KiB.
fn varint_at(data: &[u8], p: usize) -> Option<(usize, usize)> {
    match *data.get(p..)? {
        [b, ..] if b < 0x80 => Some((b as usize, p + 1)),
        [lo, hi, ..] if hi < 0x80 => Some(((lo & 0x7f) as usize | (hi as usize) << 7, p + 2)),
        ref rest => get_varint32(rest).map(|(v, n)| (v as usize, p + n)),
    }
}

/// Where a raw block's entries end, and how many restart points its
/// trailer declares (offset 0 is implicit, so the trailer lists
/// `n_restarts - 1` offsets followed by the count).
fn block_layout(block: &[u8]) -> std::result::Result<(usize, usize), &'static str> {
    let count = block.len().checked_sub(4).ok_or("too short")?;
    let n_restarts = u32::from_le_bytes(block[count..].try_into().unwrap()) as usize;
    if n_restarts == 0 {
        return Err("no restart points");
    }
    let data_end =
        block.len().checked_sub(4 * n_restarts).ok_or("restart trailer overruns block")?;
    Ok((data_end, n_restarts))
}

/// Offset of restart point `i` of a block whose entries end at `data_end`.
fn restart_offset(block: &[u8], data_end: usize, i: usize) -> usize {
    if i == 0 {
        return 0;
    }
    let at = data_end + 4 * (i - 1);
    u32::from_le_bytes(block[at..at + 4].try_into().unwrap()) as usize
}

/// Walk every entry of a raw block once, without allocating. Beyond what
/// [`decode_entry`] checks, the restart offsets must be in range, strictly
/// increasing, and each on the start of an entry with `shared == 0`. A
/// block that passes can be searched and iterated in place.
fn check_block(block: &[u8]) -> std::result::Result<(), &'static str> {
    let (data_end, n_restarts) = block_layout(block)?;
    let data = &block[..data_end];
    if data.is_empty() {
        return Err("no entries");
    }
    let (mut pos, mut prev_len, mut restart) = (0, 0, 0);
    while pos < data_end {
        let entry = decode_entry(data, pos, prev_len)?;
        if restart < n_restarts {
            let at = restart_offset(block, data_end, restart);
            if at < pos {
                return Err("restart point inside an entry or not increasing");
            }
            if at == pos {
                if entry.shared != 0 {
                    return Err("restart point on a prefix-compressed entry");
                }
                restart += 1;
            }
        }
        prev_len = entry.shared + entry.delta.len();
        pos = entry.next;
    }
    if restart < n_restarts {
        return Err("restart point out of range");
    }
    Ok(())
}

/// A cursor over one verified raw block. The current entry's key is
/// rebuilt in `key`; its value is `block[value]`.
#[derive(Debug)]
struct BlockCursor {
    block: RawBlock,
    data_end: usize,
    n_restarts: usize,
    /// Offset of the entry after the current one.
    next: usize,
    key: Vec<u8>,
    value: Range<usize>,
}

impl BlockCursor {
    /// A cursor before the first entry of `block`.
    fn new(block: RawBlock) -> std::result::Result<BlockCursor, &'static str> {
        let (data_end, n_restarts) = block_layout(&block)?;
        Ok(BlockCursor { block, data_end, n_restarts, next: 0, key: Vec::new(), value: 0..0 })
    }

    /// Step onto the next entry; `false` past the last one.
    fn advance(&mut self) -> std::result::Result<bool, &'static str> {
        if self.next >= self.data_end {
            return Ok(false);
        }
        let entry = decode_entry(&self.block[..self.data_end], self.next, self.key.len())?;
        self.key.truncate(entry.shared);
        self.key.extend_from_slice(entry.delta);
        self.value = entry.next - entry.value.len()..entry.next;
        self.next = entry.next;
        Ok(true)
    }

    /// Step onto the first entry whose key is `>= target`: a binary search
    /// over the restart points for the last one below `target`, then at
    /// most `RESTART_INTERVAL` entries forward. `false` when every entry
    /// of the block is below `target`.
    fn seek(&mut self, target: &[u8]) -> std::result::Result<bool, &'static str> {
        let data = &self.block[..self.data_end];
        let (mut lo, mut hi) = (0, self.n_restarts - 1);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            let entry = decode_entry(data, restart_offset(&self.block, self.data_end, mid), 0)?;
            if cmp_encoded(entry.delta, target) == std::cmp::Ordering::Less {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        self.next = restart_offset(&self.block, self.data_end, lo);
        self.key.clear();
        while self.advance()? {
            if cmp_encoded(&self.key, target) != std::cmp::Ordering::Less {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn value(&self) -> &[u8] {
        &self.block[self.value.clone()]
    }
}

// ---------------------------------------------------------------------------
// Table metadata
// ---------------------------------------------------------------------------

/// Where a block lives inside the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHandle {
    /// Byte offset of the block payload.
    pub offset: u64,
    /// Payload length (excludes the trailing CRC).
    pub len: u32,
}

/// Index entry: the last internal key of a block plus its handle.
#[derive(Debug, Clone)]
struct IndexEntry {
    last_key: Vec<u8>, // encoded InternalKey
    handle: BlockHandle,
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Streams sorted entries into a new table file.
#[derive(Debug)]
pub struct TableBuilder {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    offset: u64,
    block: BlockBuilder,
    index: Vec<IndexEntry>,
    user_keys: Vec<Vec<u8>>,
    smallest: Option<Vec<u8>>,
    largest: Option<Vec<u8>>,
    entry_count: u64,
    block_bytes: usize,
    bloom_bits_per_key: usize,
    last_block_key: Vec<u8>,
}

impl TableBuilder {
    /// Start a new table at `path` on the real filesystem.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn create(
        path: impl AsRef<Path>,
        block_bytes: usize,
        bloom_bits_per_key: usize,
    ) -> Result<TableBuilder> {
        Self::create_with(&vfs::real(), path, block_bytes, bloom_bits_per_key)
    }

    /// Start a new table at `path` through `vfs`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn create_with(
        vfs: &Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        block_bytes: usize,
        bloom_bits_per_key: usize,
    ) -> Result<TableBuilder> {
        let path = path.as_ref().to_path_buf();
        let file = vfs.create(&path)?;
        Ok(TableBuilder {
            file,
            path,
            offset: 0,
            block: BlockBuilder::default(),
            index: Vec::new(),
            user_keys: Vec::new(),
            smallest: None,
            largest: None,
            entry_count: 0,
            block_bytes: block_bytes.max(128),
            bloom_bits_per_key,
            last_block_key: Vec::new(),
        })
    }

    /// Append an entry. Keys must arrive in strictly increasing
    /// internal-key order.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn add(&mut self, key: &InternalKey, value: &[u8]) -> Result<()> {
        let encoded = key.encode();
        if self.smallest.is_none() {
            self.smallest = Some(encoded.clone());
        }
        self.largest = Some(encoded.clone());
        // Dedup consecutive identical user keys for the bloom filter.
        if self.user_keys.last().map(|k| k.as_slice()) != Some(key.user.as_slice()) {
            self.user_keys.push(key.user.clone());
        }
        self.block.add(&encoded, value);
        self.last_block_key = encoded;
        self.entry_count += 1;
        if self.block.size_estimate() >= self.block_bytes {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let data = self.block.finish();
        let handle = self.write_raw(&data)?;
        self.index.push(IndexEntry { last_key: std::mem::take(&mut self.last_block_key), handle });
        Ok(())
    }

    fn write_raw(&mut self, data: &[u8]) -> Result<BlockHandle> {
        let handle = BlockHandle { offset: self.offset, len: data.len() as u32 };
        self.file.write_all(data)?;
        self.file.write_all(&crc::mask(crc::crc32c(data)).to_le_bytes())?;
        self.offset += data.len() as u64 + 4;
        Ok(handle)
    }

    /// Number of entries added so far.
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Bytes written so far (approximate until [`finish`](Self::finish)).
    pub fn file_size_estimate(&self) -> u64 {
        self.offset + self.block.size_estimate() as u64
    }

    /// Finalize the table and return `(file_size, smallest, largest)` where
    /// the keys are the encoded internal-key bounds.
    ///
    /// # Errors
    /// Fails when no entries were added, or on filesystem errors.
    pub fn finish(mut self) -> Result<(u64, InternalKey, InternalKey)> {
        if self.entry_count == 0 {
            return Err(KvError::InvalidArgument("cannot finish empty table".into()));
        }
        self.flush_block()?;

        // Meta block: smallest/largest encoded internal keys.
        let smallest = self.smallest.clone().expect("nonempty");
        let largest = self.largest.clone().expect("nonempty");
        let mut meta = Vec::new();
        put_varint32(&mut meta, smallest.len() as u32);
        meta.extend_from_slice(&smallest);
        put_varint32(&mut meta, largest.len() as u32);
        meta.extend_from_slice(&largest);
        let meta_handle = self.write_raw(&meta.clone())?;

        // Bloom filter.
        let bloom = BloomFilter::build(
            self.user_keys.iter().map(|k| k.as_slice()),
            self.bloom_bits_per_key.max(1),
        );
        let bloom_handle = self.write_raw(&bloom.encode())?;

        // Index block: count, then (klen key off len)*.
        let mut index = Vec::new();
        put_varint32(&mut index, self.index.len() as u32);
        for e in &self.index {
            put_varint32(&mut index, e.last_key.len() as u32);
            index.extend_from_slice(&e.last_key);
            index.extend_from_slice(&e.handle.offset.to_le_bytes());
            index.extend_from_slice(&e.handle.len.to_le_bytes());
        }
        let index_handle = self.write_raw(&index)?;

        // Footer.
        let mut footer = Vec::with_capacity(FOOTER_SIZE);
        footer.extend_from_slice(&meta_handle.offset.to_le_bytes());
        footer.extend_from_slice(&meta_handle.len.to_le_bytes());
        footer.extend_from_slice(&bloom_handle.offset.to_le_bytes());
        footer.extend_from_slice(&bloom_handle.len.to_le_bytes());
        footer.extend_from_slice(&index_handle.offset.to_le_bytes());
        footer.extend_from_slice(&index_handle.len.to_le_bytes());
        footer.extend_from_slice(&self.entry_count.to_le_bytes());
        footer.extend_from_slice(&crc::mask(crc::crc32c(&footer)).to_le_bytes());
        footer.extend_from_slice(&TABLE_MAGIC.to_le_bytes());
        debug_assert_eq!(footer.len(), FOOTER_SIZE);
        self.file.write_all(&footer)?;
        self.file.sync_data()?;
        let size = self.offset + FOOTER_SIZE as u64;

        let s = InternalKey::decode(&smallest)
            .ok_or_else(|| KvError::corruption("builder produced bad smallest key"))?;
        let l = InternalKey::decode(&largest)
            .ok_or_else(|| KvError::corruption("builder produced bad largest key"))?;
        let _ = self.path;
        Ok((size, s, l))
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

static TABLE_IDS: AtomicU64 = AtomicU64::new(1);

/// Read side of a table file. Cheap to clone via [`Arc`].
#[derive(Debug)]
pub struct Table {
    /// Unique per opened reader; the block-cache key namespace.
    id: u64,
    cache: Option<std::sync::Arc<BlockCache>>,
    file: Box<dyn RandomFile>,
    path: PathBuf,
    index: Vec<IndexEntry>,
    bloom: Option<BloomFilter>,
    /// Smallest internal key in the table.
    pub smallest: InternalKey,
    /// Largest internal key in the table.
    pub largest: InternalKey,
    /// Total number of entries.
    pub entry_count: u64,
}

impl Table {
    /// Open and validate a table file on the real filesystem.
    ///
    /// # Errors
    /// Returns [`KvError::Corruption`] for malformed files and propagates
    /// filesystem errors.
    pub fn open(path: impl AsRef<Path>) -> Result<Arc<Table>> {
        Self::open_with(&vfs::real(), path, None)
    }

    /// Open through `vfs`, optionally with a shared [`BlockCache`]; hot
    /// blocks are served from memory as the verified bytes read from disk
    /// and searched in place (LevelDB's block cache, §4.2's "efficient
    /// caching mechanisms" at the storage layer).
    ///
    /// # Errors
    /// Same as [`open`](Self::open).
    pub fn open_with(
        vfs: &Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        cache: Option<std::sync::Arc<BlockCache>>,
    ) -> Result<Arc<Table>> {
        let path = path.as_ref().to_path_buf();
        let file = vfs.open_random(&path)?;
        let size = file.size()?;
        if size < FOOTER_SIZE as u64 {
            return Err(KvError::corruption_at(&path, 0u64, "table smaller than footer"));
        }
        let footer_off = size - FOOTER_SIZE as u64;
        let mut footer = vec![0u8; FOOTER_SIZE];
        file.read_exact_at(&mut footer, footer_off)?;
        let magic = u64::from_le_bytes(footer[48..56].try_into().unwrap());
        if magic != TABLE_MAGIC {
            return Err(KvError::corruption_at(&path, footer_off, "bad table magic"));
        }
        let stored_crc = crc::unmask(u32::from_le_bytes(footer[44..48].try_into().unwrap()));
        if crc::crc32c(&footer[..44]) != stored_crc {
            return Err(KvError::corruption_at(&path, footer_off, "footer checksum mismatch"));
        }
        let rd = |o: usize| u64::from_le_bytes(footer[o..o + 8].try_into().unwrap());
        let rd32 = |o: usize| u32::from_le_bytes(footer[o..o + 4].try_into().unwrap());
        let meta_handle = BlockHandle { offset: rd(0), len: rd32(8) };
        let bloom_handle = BlockHandle { offset: rd(12), len: rd32(20) };
        let index_handle = BlockHandle { offset: rd(24), len: rd32(32) };
        let entry_count = rd(36);

        let read_checked = |h: BlockHandle| -> Result<Vec<u8>> {
            let mut buf = vec![0u8; h.len as usize + 4];
            file.read_exact_at(&mut buf, h.offset)?;
            let (data, crcb) = buf.split_at(h.len as usize);
            let stored = crc::unmask(u32::from_le_bytes(crcb.try_into().unwrap()));
            if crc::crc32c(data) != stored {
                return Err(KvError::corruption_at(&path, h.offset, "block checksum mismatch"));
            }
            Ok(data.to_vec())
        };
        let located = |msg: &str, h: BlockHandle| KvError::corruption_at(&path, h.offset, msg);

        // Meta block.
        let meta = read_checked(meta_handle)?;
        let (slen, n) =
            get_varint32(&meta).ok_or_else(|| located("meta: bad smallest len", meta_handle))?;
        let s_end = n + slen as usize;
        let smallest = meta
            .get(n..s_end)
            .and_then(InternalKey::decode)
            .ok_or_else(|| located("meta: bad smallest", meta_handle))?;
        let (llen, n2) = get_varint32(&meta[s_end..])
            .ok_or_else(|| located("meta: bad largest len", meta_handle))?;
        let largest = meta
            .get(s_end + n2..s_end + n2 + llen as usize)
            .and_then(InternalKey::decode)
            .ok_or_else(|| located("meta: bad largest", meta_handle))?;

        // Bloom filter.
        let bloom = BloomFilter::decode(&read_checked(bloom_handle)?);

        // Index.
        let index_raw = read_checked(index_handle)?;
        let (count, mut pos) =
            get_varint32(&index_raw).ok_or_else(|| located("index: bad count", index_handle))?;
        let mut index = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let (klen, n) = get_varint32(&index_raw[pos..])
                .ok_or_else(|| located("index: bad klen", index_handle))?;
            pos += n;
            let key = index_raw
                .get(pos..pos + klen as usize)
                .ok_or_else(|| located("index: truncated key", index_handle))?
                .to_vec();
            pos += klen as usize;
            let off_bytes = index_raw
                .get(pos..pos + 12)
                .ok_or_else(|| located("index: truncated handle", index_handle))?;
            let offset = u64::from_le_bytes(off_bytes[..8].try_into().unwrap());
            let len = u32::from_le_bytes(off_bytes[8..12].try_into().unwrap());
            pos += 12;
            index.push(IndexEntry { last_key: key, handle: BlockHandle { offset, len } });
        }

        Ok(Arc::new(Table {
            id: TABLE_IDS.fetch_add(1, Ordering::Relaxed),
            cache,
            file,
            path,
            index,
            bloom,
            smallest,
            largest,
            entry_count,
        }))
    }

    /// Drop this table's blocks from the shared cache (called when the
    /// file becomes obsolete).
    pub fn evict_from_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.evict_table(self.id);
        }
    }

    /// Path of the table file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn read_block(&self, handle: BlockHandle) -> Result<RawBlock> {
        if let Some(cache) = &self.cache {
            if let Some(block) = cache.get(self.id, handle.offset) {
                return Ok(block);
            }
        }
        let block = self.read_block_from_disk(handle)?;
        if let Some(cache) = &self.cache {
            cache.insert(self.id, handle.offset, Arc::clone(&block));
        }
        Ok(block)
    }

    /// Read one block straight from the file, bypassing the cache, and
    /// verify its checksum and then its structure ([`check_block`]). Every
    /// read from disk goes through here, so neither a reader nor the cache
    /// ever sees bytes that failed either check.
    fn read_block_from_disk(&self, handle: BlockHandle) -> Result<RawBlock> {
        let mut buf = vec![0u8; handle.len as usize + 4];
        self.file.read_exact_at(&mut buf, handle.offset)?;
        let (data, crcb) = buf.split_at(handle.len as usize);
        let stored = crc::unmask(u32::from_le_bytes(crcb.try_into().unwrap()));
        if crc::crc32c(data) != stored {
            return Err(KvError::corruption_at(
                &self.path,
                handle.offset,
                "data block checksum mismatch",
            ));
        }
        check_block(data).map_err(|m| self.corrupt(handle, m))?;
        Ok(Arc::from(data))
    }

    /// A corruption error naming this file and the block at `handle`.
    fn corrupt(&self, handle: BlockHandle, msg: &str) -> KvError {
        KvError::corruption_at(&self.path, handle.offset, format!("data block: {msg}"))
    }

    /// A cursor over the block at `handle`, read through the cache.
    fn cursor(&self, handle: BlockHandle) -> Result<BlockCursor> {
        BlockCursor::new(self.read_block(handle)?).map_err(|m| self.corrupt(handle, m))
    }

    /// Verify the checksum of every data block by re-reading it from disk
    /// (the cache is bypassed so latent media corruption cannot hide behind
    /// a previously cached copy). Returns the number of blocks verified.
    ///
    /// This is the scrubber's workhorse; it is also useful in tests that
    /// inject bit rot directly into table files.
    ///
    /// # Errors
    /// Returns the first corruption or I/O error encountered.
    pub fn verify_blocks(&self) -> Result<u64> {
        let mut verified = 0u64;
        for e in &self.index {
            self.read_block_from_disk(e.handle)?;
            verified += 1;
        }
        Ok(verified)
    }

    /// True when the key range of this table may contain `user_key`.
    pub fn key_may_be_in_range(&self, user_key: &[u8]) -> bool {
        user_key >= self.smallest.user.as_slice() && user_key <= self.largest.user.as_slice()
    }

    /// Point lookup of `user_key` as of `snapshot_seq`.
    ///
    /// # Errors
    /// Propagates I/O and corruption errors.
    pub fn get(&self, user_key: &[u8], snapshot_seq: SeqNo) -> Result<LookupResult> {
        if !self.key_may_be_in_range(user_key) {
            return Ok(LookupResult::NotFound);
        }
        if let Some(bloom) = &self.bloom {
            if !bloom.may_contain(user_key) {
                return Ok(LookupResult::NotFound);
            }
        }
        let seek = InternalKey::seek(user_key.to_vec(), snapshot_seq).encode();
        // First block whose last key >= seek.
        let block_idx = self
            .index
            .partition_point(|e| cmp_encoded(&e.last_key, &seek) == std::cmp::Ordering::Less);
        for e in &self.index[block_idx..] {
            let mut cursor = self.cursor(e.handle)?;
            if !cursor.seek(&seek).map_err(|m| self.corrupt(e.handle, m))? {
                // Every entry is below the seek key, which can only happen
                // when the index disagrees with the block; try the next.
                continue;
            }
            let (user, seq, kind) = split_encoded(&cursor.key)
                .ok_or_else(|| self.corrupt(e.handle, "undecodable entry key"))?;
            if user != user_key {
                return Ok(LookupResult::NotFound);
            }
            debug_assert!(seq <= snapshot_seq);
            return Ok(match kind {
                ValueKind::Put => LookupResult::Found(cursor.value().to_vec()),
                ValueKind::Deletion => LookupResult::Deleted,
            });
        }
        Ok(LookupResult::NotFound)
    }

    /// Iterate over every entry in order.
    pub fn iter(self: &Arc<Self>) -> TableIterator {
        TableIterator::new(Arc::clone(self), 0, None)
    }

    /// Iterate starting at the first entry whose encoded internal key is
    /// `>= seek`.
    pub fn iter_from(self: &Arc<Self>, seek: &InternalKey) -> TableIterator {
        let enc = seek.encode();
        let block_idx = self
            .index
            .partition_point(|e| cmp_encoded(&e.last_key, &enc) == std::cmp::Ordering::Less);
        TableIterator::new(Arc::clone(self), block_idx, Some(enc))
    }
}

/// Streaming iterator over a table's entries, decoding one entry at a time
/// from the raw block it is in.
///
/// `Iterator::next` cannot return an error, so a block that fails its
/// checks ends the iteration early; install a [`CorruptionSink`] via
/// [`with_sink`](Self::with_sink) so the caller can tell "end of table"
/// apart from "table went bad mid-scan".
#[derive(Debug)]
pub struct TableIterator {
    table: Arc<Table>,
    /// Index of the next block to load; the cursor's block is the one
    /// before it.
    block_idx: usize,
    /// `None` before the first block, at the end, and after an error.
    cursor: Option<BlockCursor>,
    /// The seek of [`Table::iter_from`], done by the first `next` so that a
    /// failure reaches the sink installed after construction.
    pending_seek: Option<Vec<u8>>,
    /// The cursor sits on an entry that `next` has not yielded yet.
    positioned: bool,
    sink: Option<CorruptionSink>,
}

impl TableIterator {
    fn new(table: Arc<Table>, block_idx: usize, pending_seek: Option<Vec<u8>>) -> TableIterator {
        TableIterator {
            table,
            block_idx,
            cursor: None,
            pending_seek,
            positioned: false,
            sink: None,
        }
    }

    /// Record read failures into `sink` instead of swallowing them.
    #[must_use]
    pub fn with_sink(mut self, sink: CorruptionSink) -> TableIterator {
        self.sink = Some(sink);
        self
    }

    /// End the iteration on `err`, reporting it to the sink.
    fn fail(&mut self, err: KvError) {
        if let Some(sink) = &self.sink {
            sink.lock().push(err);
        }
        self.cursor = None;
        self.block_idx = self.table.index.len();
    }

    fn block_error(&mut self, msg: &str) {
        let err = self.table.corrupt(self.table.index[self.block_idx - 1].handle, msg);
        self.fail(err);
    }

    /// Move the cursor onto the next block; `false` at the end or on error.
    fn load_next_block(&mut self) -> bool {
        self.cursor = None;
        let Some(entry) = self.table.index.get(self.block_idx) else {
            return false;
        };
        self.block_idx += 1;
        match self.table.cursor(entry.handle) {
            Ok(cursor) => {
                self.cursor = Some(cursor);
                true
            }
            Err(e) => {
                self.fail(e);
                false
            }
        }
    }

    /// Position on the first entry `>= enc_seek` of the next block, or
    /// past its last entry when all are smaller (then `next` moves on to
    /// the block after it).
    fn seek(&mut self, enc_seek: &[u8]) {
        if !self.load_next_block() {
            return;
        }
        let cursor = self.cursor.as_mut().expect("just loaded");
        match cursor.seek(enc_seek) {
            Ok(found) => self.positioned = found,
            Err(m) => self.block_error(m),
        }
    }
}

impl Iterator for TableIterator {
    type Item = (InternalKey, Value);

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(target) = self.pending_seek.take() {
            self.seek(&target);
        }
        loop {
            if let Some(cursor) = self.cursor.as_mut() {
                let step =
                    if std::mem::take(&mut self.positioned) { Ok(true) } else { cursor.advance() };
                match step {
                    Ok(true) => match InternalKey::decode(&cursor.key) {
                        Some(key) => return Some((key, cursor.value().to_vec())),
                        None => {
                            self.block_error("undecodable entry key");
                            return None;
                        }
                    },
                    Ok(false) => {}
                    Err(m) => {
                        self.block_error(m);
                        return None;
                    }
                }
            }
            if !self.load_next_block() {
                return None;
            }
        }
    }
}

/// Build a table from an iterator of sorted `(InternalKey, Value)` pairs.
/// Convenience wrapper used by flushes and tests.
///
/// # Errors
/// Propagates builder errors; fails on an empty input.
pub fn build_table<'a>(
    path: impl AsRef<Path>,
    entries: impl IntoIterator<Item = (&'a InternalKey, &'a [u8])>,
    block_bytes: usize,
    bloom_bits_per_key: usize,
) -> Result<(u64, InternalKey, InternalKey)> {
    build_table_with(&vfs::real(), path, entries, block_bytes, bloom_bits_per_key)
}

/// [`build_table`] routed through an explicit [`Vfs`].
///
/// # Errors
/// Propagates builder errors; fails on an empty input.
pub fn build_table_with<'a>(
    vfs: &Arc<dyn Vfs>,
    path: impl AsRef<Path>,
    entries: impl IntoIterator<Item = (&'a InternalKey, &'a [u8])>,
    block_bytes: usize,
    bloom_bits_per_key: usize,
) -> Result<(u64, InternalKey, InternalKey)> {
    let mut b = TableBuilder::create_with(vfs, path, block_bytes, bloom_bits_per_key)?;
    for (k, v) in entries {
        b.add(k, v)?;
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lambda-kv-sst-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_entries(n: usize) -> Vec<(InternalKey, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    InternalKey::new(format!("key-{i:06}").into_bytes(), 10, ValueKind::Put),
                    format!("value-{i}").into_bytes(),
                )
            })
            .collect()
    }

    fn write_table(path: &Path, entries: &[(InternalKey, Vec<u8>)]) {
        build_table(path, entries.iter().map(|(k, v)| (k, v.as_slice())), 256, 10).unwrap();
    }

    #[test]
    fn build_and_get_all_keys() {
        let path = tmpfile("basic.sst");
        let entries = sample_entries(500);
        write_table(&path, &entries);
        let table = Table::open(&path).unwrap();
        assert_eq!(table.entry_count, 500);
        for (k, v) in &entries {
            match table.get(&k.user, 100).unwrap() {
                LookupResult::Found(got) => assert_eq!(&got, v),
                other => panic!("expected found for {k}, got {other:?}"),
            }
        }
        assert_eq!(table.get(b"absent", 100).unwrap(), LookupResult::NotFound);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn snapshot_visibility() {
        let path = tmpfile("snap.sst");
        let entries = vec![
            (InternalKey::new(*b"k", 9, ValueKind::Put), b"v9".to_vec()),
            (InternalKey::new(*b"k", 5, ValueKind::Deletion), Vec::new()),
            (InternalKey::new(*b"k", 2, ValueKind::Put), b"v2".to_vec()),
        ];
        write_table(&path, &entries);
        let t = Table::open(&path).unwrap();
        assert_eq!(t.get(b"k", 100).unwrap(), LookupResult::Found(b"v9".to_vec()));
        assert_eq!(t.get(b"k", 8).unwrap(), LookupResult::Deleted);
        assert_eq!(t.get(b"k", 4).unwrap(), LookupResult::Found(b"v2".to_vec()));
        assert_eq!(t.get(b"k", 1).unwrap(), LookupResult::NotFound);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn iterator_yields_sorted_entries() {
        let path = tmpfile("iter.sst");
        let entries = sample_entries(300);
        write_table(&path, &entries);
        let t = Table::open(&path).unwrap();
        let collected: Vec<(InternalKey, Vec<u8>)> = t.iter().collect();
        assert_eq!(collected.len(), 300);
        assert_eq!(collected, entries);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn iter_from_seeks_correctly() {
        let path = tmpfile("seek.sst");
        let entries = sample_entries(100);
        write_table(&path, &entries);
        let t = Table::open(&path).unwrap();
        let seek = InternalKey::seek(b"key-000050".to_vec(), crate::types::MAX_SEQNO);
        let got: Vec<_> = t.iter_from(&seek).map(|(k, _)| k.user).collect();
        assert_eq!(got.len(), 50);
        assert_eq!(got[0], b"key-000050".to_vec());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bounds_are_recorded() {
        let path = tmpfile("bounds.sst");
        let entries = sample_entries(10);
        write_table(&path, &entries);
        let t = Table::open(&path).unwrap();
        assert_eq!(t.smallest.user, b"key-000000".to_vec());
        assert_eq!(t.largest.user, b"key-000009".to_vec());
        assert!(t.key_may_be_in_range(b"key-000005"));
        assert!(!t.key_may_be_in_range(b"zzz"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupted_footer_is_rejected() {
        let path = tmpfile("corrupt.sst");
        write_table(&path, &sample_entries(10));
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 20] ^= 0xff; // inside footer crc-covered region
        std::fs::write(&path, &data).unwrap();
        assert!(Table::open(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupted_data_block_detected_on_read() {
        let path = tmpfile("corruptblock.sst");
        write_table(&path, &sample_entries(200));
        let mut data = std::fs::read(&path).unwrap();
        data[10] ^= 0x01; // first data block payload
        std::fs::write(&path, &data).unwrap();
        let t = Table::open(&path).unwrap();
        // Key in the first block must now fail.
        assert!(t.get(b"key-000000", 100).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupted_block_error_carries_file_and_offset() {
        let path = tmpfile("locate.sst");
        write_table(&path, &sample_entries(200));
        let mut data = std::fs::read(&path).unwrap();
        data[10] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        let t = Table::open(&path).unwrap();
        match t.get(b"key-000000", 100) {
            Err(KvError::Corruption(info)) => {
                assert_eq!(info.file.as_deref(), Some(path.as_path()));
                assert!(info.offset.is_some());
            }
            other => panic!("expected located corruption, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn verify_blocks_counts_clean_and_catches_rot() {
        let path = tmpfile("verify.sst");
        write_table(&path, &sample_entries(400));
        let t = Table::open(&path).unwrap();
        let blocks = t.verify_blocks().unwrap();
        assert!(blocks > 1, "expected multiple data blocks, got {blocks}");
        // Inject one flipped bit into a data block; verify must now fail
        // even though nothing was re-opened.
        let mut data = std::fs::read(&path).unwrap();
        data[40] ^= 0x10;
        std::fs::write(&path, &data).unwrap();
        assert!(matches!(t.verify_blocks(), Err(KvError::Corruption(_))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn iterator_reports_corruption_through_sink() {
        let path = tmpfile("sink.sst");
        write_table(&path, &sample_entries(400));
        let clean_count = Table::open(&path).unwrap().iter().count();
        assert_eq!(clean_count, 400);
        let mut data = std::fs::read(&path).unwrap();
        data[10] ^= 0x01; // first data block
        std::fs::write(&path, &data).unwrap();
        let t = Table::open(&path).unwrap();
        let sink: CorruptionSink = Arc::new(Mutex::new(Vec::new()));
        let n = t.iter().with_sink(Arc::clone(&sink)).count();
        assert!(n < clean_count);
        let errs = sink.lock();
        assert_eq!(errs.len(), 1);
        assert!(matches!(errs[0], KvError::Corruption(_)));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_table_is_an_error() {
        let path = tmpfile("empty.sst");
        let b = TableBuilder::create(&path, 256, 10).unwrap();
        assert!(b.finish().is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let path = tmpfile("short.sst");
        std::fs::write(&path, b"tiny").unwrap();
        assert!(Table::open(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn block_round_trip_with_restarts() {
        let mut b = BlockBuilder::default();
        let mut sorted: Vec<Vec<u8>> = (0..100)
            .map(|i| {
                InternalKey::new(format!("pfx-common-{i:04}").into_bytes(), 1, ValueKind::Put)
                    .encode()
            })
            .collect();
        sorted.sort();
        for k in &sorted {
            b.add(k, b"val");
        }
        let block: RawBlock = b.finish().into();
        check_block(&block).unwrap();
        let mut cursor = BlockCursor::new(Arc::clone(&block)).unwrap();
        for k in &sorted {
            assert!(cursor.advance().unwrap());
            assert_eq!(&cursor.key, k);
            assert_eq!(cursor.value(), b"val");
        }
        assert!(!cursor.advance().unwrap());
        for k in &sorted {
            assert!(cursor.seek(k).unwrap());
            assert_eq!(&cursor.key, k);
        }
        let past = InternalKey::new(*b"pfx-z", 1, ValueKind::Put).encode();
        assert!(!cursor.seek(&past).unwrap());
    }

    /// Offsets of every entry of a well-formed block.
    fn entry_offsets(block: &[u8]) -> Vec<usize> {
        let (data_end, _) = block_layout(block).unwrap();
        let (mut offsets, mut pos, mut prev_len) = (Vec::new(), 0, 0);
        while pos < data_end {
            let e = decode_entry(&block[..data_end], pos, prev_len).unwrap();
            offsets.push(pos);
            prev_len = e.shared + e.delta.len();
            pos = e.next;
        }
        offsets
    }

    /// Build a one-block table of `n` sample entries, let `mutate` rewrite
    /// its data block in place, and re-seal the block's CRC so that only the
    /// structure check can tell.
    fn table_with_broken_block(name: &str, n: usize, mutate: impl FnOnce(&mut [u8])) -> PathBuf {
        let path = tmpfile(name);
        let entries = sample_entries(n);
        build_table(&path, entries.iter().map(|(k, v)| (k, v.as_slice())), 4096, 10).unwrap();
        let index = Table::open(&path).unwrap().index.clone();
        assert_eq!(index.len(), 1, "one data block");
        let (start, len) = (index[0].handle.offset as usize, index[0].handle.len as usize);
        let mut data = std::fs::read(&path).unwrap();
        mutate(&mut data[start..start + len]);
        let crc = crc::mask(crc::crc32c(&data[start..start + len]));
        data[start + len..start + len + 4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        path
    }

    /// `Table::get`, `TableIterator` (through its sink) and `verify_blocks`
    /// each report the broken block as a corruption naming the file and
    /// the block's offset, and the block cache never holds it.
    fn assert_block_rejected(path: &Path, expected: &str) {
        let located = |e: &KvError| match e {
            KvError::Corruption(info) => {
                info.file.as_deref() == Some(path)
                    && info.offset == Some(0)
                    && info.message.contains(expected)
            }
            _ => false,
        };
        let cache = BlockCache::new(1 << 20);
        let t = Table::open_with(&vfs::real(), path, Some(Arc::clone(&cache))).unwrap();
        let err = t.get(b"key-000000", 100).unwrap_err();
        assert!(located(&err), "get: {err}");
        for it in [t.iter(), t.iter_from(&InternalKey::seek(b"key-000000".to_vec(), 100))] {
            let sink = CorruptionSink::default();
            assert_eq!(it.with_sink(Arc::clone(&sink)).count(), 0);
            let errs = sink.lock();
            assert_eq!(errs.len(), 1, "{:?}", *errs);
            assert!(located(&errs[0]), "iterator: {}", errs[0]);
        }
        let err = t.verify_blocks().unwrap_err();
        assert!(located(&err), "verify_blocks: {err}");
        assert!(cache.is_empty(), "a broken block is never cached");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn broken_block_bad_varint() {
        let path = table_with_broken_block("bad-varint.sst", 20, |b| b[..10].fill(0xff));
        assert_block_rejected(&path, "bad shared");
    }

    #[test]
    fn broken_block_shared_longer_than_previous_key() {
        let path = table_with_broken_block("long-shared.sst", 20, |b| {
            let second = entry_offsets(b)[1];
            b[second] = 0x7f; // one-byte varint; the previous key is 18 bytes
        });
        assert_block_rejected(&path, "shared prefix longer than previous key");
    }

    #[test]
    fn broken_block_truncated_value() {
        // One entry: shared 0, unshared 18, vlen 7, key, value, trailer.
        let path = table_with_broken_block("short-value.sst", 1, |b| {
            assert_eq!(b[..3], [0, 18, 7]);
            b[2] = 8;
        });
        assert_block_rejected(&path, "truncated value");
    }

    /// Rewrite the first explicit restart offset of a 40-entry block
    /// (restarts at entries 0, 16 and 32).
    fn set_first_restart(name: &str, at: impl FnOnce(&[u8]) -> u32) -> PathBuf {
        table_with_broken_block(name, 40, |b| {
            let (data_end, n_restarts) = block_layout(b).unwrap();
            assert_eq!(n_restarts, 3);
            let offset = at(b);
            b[data_end..data_end + 4].copy_from_slice(&offset.to_le_bytes());
        })
    }

    #[test]
    fn broken_block_restart_out_of_range() {
        let path = set_first_restart("restart-range.sst", |b| b.len() as u32 + 100);
        assert_block_rejected(&path, "restart point out of range");
    }

    #[test]
    fn broken_block_restart_inside_an_entry() {
        let path = set_first_restart("restart-inside.sst", |b| entry_offsets(b)[16] as u32 + 1);
        assert_block_rejected(&path, "restart point inside an entry");
    }

    #[test]
    fn broken_block_restarts_not_increasing() {
        // Both explicit restart points now name entry 32.
        let path = set_first_restart("restart-order.sst", |b| entry_offsets(b)[32] as u32);
        assert_block_rejected(&path, "restart point inside an entry or not increasing");
    }

    #[test]
    fn broken_block_restart_on_a_compressed_entry() {
        let path = set_first_restart("restart-shared.sst", |b| entry_offsets(b)[17] as u32);
        assert_block_rejected(&path, "restart point on a prefix-compressed entry");
    }

    /// User keys over a three-letter alphabet, so many are prefixes of one
    /// another: the case where byte order of encoded keys is not
    /// [`cmp_encoded`] order.
    fn prefix_key_strategy() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(prop_oneof![Just(0u8), Just(b'a'), Just(0xffu8)], 1..4)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// `Table::get` at every snapshot and `iter_from` from every key agree
        /// with a `BTreeMap` over internal keys, for 128-byte blocks holding
        /// prefix-related keys and one key with many versions across restart
        /// and block boundaries, read with no cache, an evicting one and a
        /// roomy one.
        #[test]
        fn table_get_and_iter_from_match_a_btreemap_model(
            keys in proptest::collection::vec(prefix_key_strategy(), 1..40),
            hot_versions in 0usize..60,
            deletes in proptest::collection::vec(any::<bool>(), 0..100),
            cache_bytes in 0usize..3,
        ) {
            let writes = keys.into_iter().chain(std::iter::repeat_n(b"a".to_vec(), hot_versions));
            let mut model: std::collections::BTreeMap<InternalKey, Vec<u8>> = Default::default();
            for (i, user) in writes.enumerate() {
                let kind = if deletes.get(i) == Some(&true) { ValueKind::Deletion } else { ValueKind::Put };
                let value = if kind == ValueKind::Put { vec![i as u8; i % 3] } else { Vec::new() };
                model.insert(InternalKey::new(user, i as u64 + 1, kind), value);
            }
            let last_seq = model.len() as u64;
            let path = tmpfile("model.sst");
            build_table(&path, model.iter().map(|(k, v)| (k, v.as_slice())), 128, 10).unwrap();
            let cache = [None, Some(256), Some(1 << 20)][cache_bytes].map(BlockCache::new);
            let t = Table::open_with(&vfs::real(), &path, cache).unwrap();

            let mut users: Vec<Vec<u8>> = model.keys().map(|k| k.user.clone()).collect();
            users.extend([vec![0, 0, 0, 0], b"b".to_vec(), vec![0xff; 4]]);
            users.dedup();
            for user in &users {
                for snapshot in 0..=last_seq + 1 {
                    let seek = InternalKey::seek(user.clone(), snapshot);
                    let expected = match model.range(seek..).next() {
                        Some((k, v)) if &k.user == user => match k.kind {
                            ValueKind::Put => LookupResult::Found(v.clone()),
                            ValueKind::Deletion => LookupResult::Deleted,
                        },
                        _ => LookupResult::NotFound,
                    };
                    prop_assert_eq!(t.get(user, snapshot).unwrap(), expected);
                }
            }

            let seeks = model.keys().cloned().chain(
                users.iter().map(|u| InternalKey::seek(u.clone(), crate::types::MAX_SEQNO)),
            );
            for seek in seeks {
                let got: Vec<(InternalKey, Vec<u8>)> = t.iter_from(&seek).collect();
                let expected: Vec<(InternalKey, Vec<u8>)> =
                    model.range(seek..).map(|(k, v)| (k.clone(), v.clone())).collect();
                prop_assert_eq!(got, expected);
            }
            let all: Vec<(InternalKey, Vec<u8>)> = t.iter().collect();
            let expected: Vec<(InternalKey, Vec<u8>)> =
                model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            prop_assert_eq!(all, expected);
            if hot_versions >= 40 {
                // The hot key's versions fill a block past its first restart.
                let most_restarts = t
                    .index
                    .iter()
                    .map(|e| block_layout(&t.read_block(e.handle).unwrap()).unwrap().1)
                    .max();
                prop_assert!(most_restarts >= Some(2), "{most_restarts:?}");
            }
            std::fs::remove_file(&path).ok();
        }
    }
}
