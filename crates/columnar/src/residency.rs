//! Lazy block residency: file-backed column buffers and the block cache.
//!
//! This is the out-of-core tier under the scan pipeline. A [`Segment`] is
//! one immutable column file (an `hvc` file) whose bytes become
//! addressable without being read up front; a [`ValueBuf`] is a typed
//! column buffer that is either owned heap data (`Vec<T>`, the classic
//! fully-resident tier) or a zero-copy window into a segment; and the
//! [`BlockCache`] is the per-worker, byte-accounted bounded-LRU that
//! decides which chunks of those windows stay physically resident.
//!
//! # Residency tiers
//!
//! Every build compiles both backings; a [`SegmentMode`] picks one per
//! open, at run time:
//!
//! * **Lazy** (unix, [`SegmentMode::Auto`]): the file is mapped read-only
//!   (the private `mmap` module) and column buffers borrow file bytes
//!   directly — zero copies, zero heap. Chunks fault in as scans touch them
//!   and are *evictable*: eviction is `madvise(MADV_DONTNEED)`, which drops
//!   the physical pages; the kernel refaults identical bytes from the file
//!   on the next access, so eviction is always safe even under outstanding
//!   borrows, and the cache keeps its budget. A refused mapping opens as
//!   `Heap` does. Under Miri, which has no `mmap`, the mapping is a heap
//!   copy read at open and eviction advice is a no-op, so touch, fault,
//!   eviction accounting and drop run there unchanged.
//! * **Heap** ([`SegmentMode::Heap`], and every mode off unix): the whole
//!   file is read at open. Fully resident, no faulting, no cache
//!   participation.
//!
//! # Windows and their chunks
//!
//! A segment is opened with the list of its *windows*: the byte ranges a
//! [`ValueBuf`] may borrow — in an `hvc` file, its payload sections,
//! exactly as the header declares them. Each window has a chunk grid of its
//! own, starting at the page that holds its first byte: chunk *i* of a
//! window whose first page starts at `P` covers the window's bytes in
//! `P + i·CHUNK_BYTES .. P + (i + 1)·CHUNK_BYTES`. A chunk is charged to the
//! gauge, and advised away on eviction, over its *page span* — the pages its
//! bytes lie on, never more than [`CHUNK_BYTES`]. So a section of `S` bytes
//! costs the pages it lies on wherever the file places it, and a scan of
//! one section never pays for the neighbours beside it. A page shared by
//! two windows is charged to both; evicting one window's chunk drops that
//! page from under the other, which the kernel refaults unseen. Kernel
//! fault-around and readahead are outside the gauge.
//!
//! # Touch-for-accounting
//!
//! Every read of mapped bytes goes through [`ValueBuf::slice`] /
//! [`ValueBuf::hot`], which *touch* the covered chunks of the buffer's
//! window first. A touch is bookkeeping — the OS demand-pages the mapping
//! regardless — but the touch stream is what gives the cache its
//! fault/hit/eviction counters and its recency order, and what makes
//! zone-map block skipping an *I/O* optimization: a block the predicate
//! rejects is never decoded, so its chunks are never touched, so they are
//! never faulted in.
//!
//! Accounting is deliberately approximate at the margins: the resident-byte
//! gauge is maintained under the cache lock, but recency stamps race
//! benignly with eviction (a chunk evicted just after a reader revalidated
//! it simply refaults), and the OS may drop or keep pages on its own.
//!
//! # A file that changes under its mapping
//!
//! A positioned read of a truncated file fails with an error; a load
//! through a mapping of one raises `SIGBUS`, which no unwinding catches. So
//! a lazy segment records the file's length and modification time at open,
//! and every fault re-checks them with one `fstat` before it marks a chunk
//! resident. A changed file — or a failed `fstat` — panics with a
//! descriptive message, as a failed read would, and the worker's leaf-task
//! panic isolation turns that into a structured query error.
//!
//! The residual risk: a file truncated *after* a chunk is resident (or
//! between the check and the load) is not seen, and a load from a page it
//! took away faults the process. Part files are sealed and never rewritten
//! (the directory is immutable while browsed, paper §2), so the check
//! guards against outside interference, not against anything the store
//! does.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

#[cfg(unix)]
mod mmap;

/// Residency/fault granularity in bytes: the most one chunk of a window
/// covers. A multiple of every common page size, so every chunk after a
/// window's first starts on a page.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// The host's page size: the grain a chunk is charged and advised in.
fn page_bytes() -> usize {
    #[cfg(unix)]
    return mmap::page_size();
    #[cfg(not(unix))]
    4096
}

/// How [`Segment::open`] should back the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SegmentMode {
    /// Lazily faulted file mapping whose chunks the block cache evicts
    /// (unix); a refused mapping, and every open off unix, reads the file
    /// as `Heap` does.
    #[default]
    Auto,
    /// Read the whole file eagerly; no lazy residency.
    Heap,
}

/// An aligned, lazily-committed raw allocation: the heap backing, and the
/// mapping's stand-in under Miri. 64-byte aligned so typed windows at the
/// format's 64-byte section offsets are always well-aligned.
struct RawBuf {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: RawBuf is a uniquely-owned heap allocation (no aliasing, no
// thread affinity); sending it just moves ownership of the pointer.
unsafe impl Send for RawBuf {}
// SAFETY: shared access is read-only: the bytes are written only through
// `&mut self`, while `RawBuf::read` fills a buffer no one else holds yet.
unsafe impl Sync for RawBuf {}

impl RawBuf {
    fn zeroed(len: usize) -> RawBuf {
        if len == 0 {
            return RawBuf {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
            };
        }
        let layout = std::alloc::Layout::from_size_align(len, 64).expect("segment layout");
        // Zeroed allocation: large requests are served as untouched
        // (lazily-committed) pages, so allocating a file-sized buffer does
        // not commit file-sized physical memory.
        // SAFETY: `layout` has non-zero size (len == 0 returned above) and
        // a valid 64-byte alignment, as `Layout::from_size_align` checked.
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        RawBuf { ptr, len }
    }

    /// The first `len` bytes of `file`, read whole into a fresh buffer.
    fn read(mut file: &File, len: usize) -> io::Result<RawBuf> {
        let mut buf = RawBuf::zeroed(len);
        io::Read::read_exact(&mut file, buf.as_mut_slice())?;
        Ok(buf)
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr` is either a live `len`-byte allocation owned by
        // self (freed only in Drop) or dangling with `len == 0`, which
        // `from_raw_parts` permits; shared access never writes.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: as for `as_slice`, and `&mut self` makes this the only
        // access to the bytes while the borrow lives.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Drop for RawBuf {
    fn drop(&mut self) {
        if self.len > 0 {
            let layout = std::alloc::Layout::from_size_align(self.len, 64).expect("segment layout");
            // SAFETY: `ptr` came from `alloc_zeroed` with this exact layout
            // (len > 0 implies the non-dangling branch of `zeroed`), and
            // Drop runs at most once.
            unsafe { std::alloc::dealloc(self.ptr, layout) };
        }
    }
}

enum Backing {
    /// Read-only file mapping whose chunks fault in and evict.
    #[cfg(unix)]
    Mapped {
        map: mmap::Mmap,
        /// Kept open for positioned reads around the cache and for the
        /// `fstat` each fault makes.
        file: File,
        /// The file's `(length, modification time)` at open.
        stamp: (u64, Option<std::time::SystemTime>),
    },
    /// Whole file read at open (no cache participation).
    Heap(RawBuf),
}

/// One immutable column file with chunk-granular residency state. Open via
/// [`Segment::open`]; read through [`ValueBuf`] windows.
pub struct Segment {
    id: u64,
    len: usize,
    backing: Backing,
    /// The byte ranges a [`ValueBuf`] may window, in file order.
    windows: Vec<Window>,
    /// Every window's chunks, window after window.
    chunks: Vec<Chunk>,
    cache: Arc<BlockCache>,
    path: PathBuf,
}

/// One window of a segment and its chunk grid: chunk `i` covers the bytes
/// of `start..end` in `grid + i·CHUNK_BYTES .. grid + (i + 1)·CHUNK_BYTES`.
struct Window {
    start: usize,
    end: usize,
    /// The first byte of the page holding `start`.
    grid: usize,
    /// Index of the window's chunk 0 in [`Segment::chunks`].
    chunk0: usize,
}

/// One chunk of a window, charged and advised over the page span `at..at +
/// len` of its bytes.
struct Chunk {
    /// `(recency tick << 1) | resident`.
    state: AtomicU64,
    at: usize,
    len: usize,
}

/// The chunk grids of `windows` in a file of `len` bytes. Empty windows are
/// dropped, and a window is cut at the file's end; the rest must ascend
/// without overlapping.
fn chunk_grids(windows: &[Range<usize>], len: usize) -> io::Result<(Vec<Window>, Vec<Chunk>)> {
    let page = page_bytes();
    let (mut grids, mut chunks) = (Vec::with_capacity(windows.len()), Vec::new());
    let mut last_end = 0;
    for w in windows.iter().filter(|w| !w.is_empty()) {
        if w.start < last_end {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("window {w:?} overlaps or precedes one ending at {last_end}"),
            ));
        }
        last_end = w.end;
        let (start, end) = (w.start, w.end.min(len));
        if start >= end {
            continue;
        }
        let grid = start - start % page;
        let pages_end = end.next_multiple_of(page);
        grids.push(Window {
            start,
            end,
            grid,
            chunk0: chunks.len(),
        });
        chunks.extend((grid..end).step_by(CHUNK_BYTES).map(|at| Chunk {
            state: AtomicU64::new(0),
            at,
            len: CHUNK_BYTES.min(pages_end - at),
        }));
    }
    Ok((grids, chunks))
}

impl Segment {
    /// Open `path` under `mode`, attaching its residency to `cache`.
    /// `windows` are the byte ranges [`ValueBuf`]s will borrow, ascending and
    /// disjoint (empty ones aside); each faults in a chunk grid of its own.
    pub fn open(
        path: impl AsRef<Path>,
        windows: &[Range<usize>],
        mode: SegmentMode,
        cache: &Arc<BlockCache>,
    ) -> io::Result<Arc<Segment>> {
        let path = path.as_ref();
        let file = File::open(path)?;
        let meta = file.metadata()?;
        let len = usize::try_from(meta.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "file too large"))?;
        let (windows, chunks) = chunk_grids(windows, len)?;
        let backing = Self::pick_backing(file, &meta, len, mode)?;
        let lazy = !matches!(backing, Backing::Heap(_));
        let seg = Arc::new(Segment {
            // lint: allow(relaxed, unique-ID allocator; only uniqueness matters, not ordering)
            id: cache.next_id.fetch_add(1, Ordering::Relaxed),
            len,
            backing,
            windows,
            chunks,
            cache: Arc::clone(cache),
            path: path.to_path_buf(),
        });
        if lazy {
            cache
                .inner
                .lock()
                .segments
                .insert(seg.id, Arc::downgrade(&seg));
        }
        Ok(seg)
    }

    #[cfg_attr(not(unix), allow(unused_variables))]
    fn pick_backing(
        file: File,
        meta: &std::fs::Metadata,
        len: usize,
        mode: SegmentMode,
    ) -> io::Result<Backing> {
        #[cfg(unix)]
        if mode == SegmentMode::Auto {
            // SAFETY: segment files are immutable once written (the store
            // never rewrites a sealed column file), which is the contract
            // `Mmap::map` needs, and `len` is the length `meta` just read;
            // a file changed from outside anyway is caught by the `fstat`
            // each fault makes, up to the window the module doc states.
            if let Ok(map) = unsafe { mmap::Mmap::map(&file, len) } {
                let stamp = (meta.len(), meta.modified().ok());
                return Ok(Backing::Mapped { map, file, stamp });
            }
        }
        RawBuf::read(&file, len).map(Backing::Heap)
    }

    /// File length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for an empty file.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The file this segment was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// True when the backing is fully heap-resident (no lazy residency).
    pub fn is_heap(&self) -> bool {
        matches!(self.backing, Backing::Heap(_))
    }

    /// True when the backing is the lazy mapping, whose chunks the block
    /// cache faults in and evicts: exactly when it is not the heap.
    pub fn is_mapped(&self) -> bool {
        !self.is_heap()
    }

    fn base_ptr(&self) -> *const u8 {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { map, .. } => map.as_slice().as_ptr(),
            Backing::Heap(buf) => buf.ptr,
        }
    }

    /// The window holding all of `start..end`, which is not empty.
    fn window_of(&self, start: usize, end: usize) -> Option<usize> {
        let w = self.windows.partition_point(|w| w.start <= start);
        w.checked_sub(1).filter(|&w| end <= self.windows[w].end)
    }

    /// Bytes of this segment currently marked resident.
    pub fn resident_bytes(&self) -> usize {
        if self.is_heap() {
            return self.len;
        }
        self.chunks
            .iter()
            // lint: allow(relaxed, advisory gauge snapshot; racing touches can legitimately change it mid-sum)
            .filter(|c| c.state.load(Ordering::Relaxed) & 1 == 1)
            .map(|c| c.len)
            .sum()
    }

    /// Ensure the chunks of window `win` covering byte range `start..end`
    /// are resident, recording hits/faults in the cache. The hot path (all
    /// chunks already resident) is lock-free.
    fn touch(&self, win: usize, start: usize, end: usize) {
        if start >= end || self.is_heap() {
            return;
        }
        let w = &self.windows[win];
        debug_assert!(w.start <= start && end <= w.end);
        let c0 = w.chunk0 + (start - w.grid) / CHUNK_BYTES;
        let c1 = w.chunk0 + (end - 1 - w.grid) / CHUNK_BYTES;
        let mut all_resident = true;
        for c in c0..=c1 {
            // Acquire: reading a resident bit synchronizes with the Release
            // store in `fault` that published it, so a reader that finds a
            // chunk resident also sees the fault that made it so — the
            // file check included.
            if self.chunks[c].state.load(Ordering::Acquire) & 1 == 0 {
                all_resident = false;
                break;
            }
        }
        if all_resident {
            // lint: allow(relaxed, recency clock; ticks only order evictions and publish nothing)
            let tick = self.cache.tick.fetch_add(1, Ordering::Relaxed);
            for c in c0..=c1 {
                // The recency bump must be an RMW, not a plain store: a
                // store would terminate the release sequence headed by the
                // faulting thread's Release store, so a later reader
                // acquiring this value would NOT synchronize with that
                // fault. An RMW continues the sequence. AcqRel also makes
                // the returned value reliable for the race check below.
                let prev = self.chunks[c].state.swap(tick << 1 | 1, Ordering::AcqRel);
                if prev & 1 == 0 {
                    // Lost a race with the evictor between the scan above
                    // and here: our swap resurrected a chunk whose pages
                    // and accounting are gone. Put the evicted state back
                    // and take the slow path, which refaults and
                    // re-accounts under the cache lock.
                    self.chunks[c].state.store(0, Ordering::Release);
                    self.cache.fault(self, c0, c1);
                    return;
                }
            }
            // lint: allow(relaxed, monotonic diagnostics counter; no data is published through it)
            self.cache.hits.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.cache.fault(self, c0, c1);
    }

    /// Panic unless the file still has the length and modification time it
    /// had at open: a load through the mapping of a truncated file raises
    /// `SIGBUS`, so a fault of chunks `c0..=c1` is refused here instead, as
    /// a failed read would be.
    #[cfg_attr(not(unix), allow(unused_variables))]
    fn check_unchanged(&self, c0: usize, c1: usize) {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { file, stamp, .. } => {
                let now = file.metadata().map(|m| (m.len(), m.modified().ok()));
                if now.as_ref().ok() == Some(stamp) {
                    return;
                }
                let cause = match now {
                    Ok((len, _)) => format!(
                        "the file changed since it was opened ({} bytes then, {len} now)",
                        stamp.0
                    ),
                    Err(e) => e.to_string(),
                };
                let (off, end) = (self.chunks[c0].at, self.chunks[c1].at + self.chunks[c1].len);
                panic!(
                    "block fault failed reading {:?} at {off}..{end}: {cause}",
                    self.path
                );
            }
            Backing::Heap(_) => {}
        }
    }

    /// Copy bytes `off..off + len` of the file out in one positioned read
    /// that goes around the [`BlockCache`]: no chunk is marked resident and
    /// nothing is counted. For bytes a reader parses once into a form of its
    /// own and never windows — faulting their chunks in beside that form
    /// would hold them twice.
    pub fn read_uncached(&self, off: usize, len: usize) -> io::Result<Vec<u8>> {
        if off.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("{len} bytes at {off} exceed segment length {}", self.len),
            ));
        }
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { file, .. } => {
                use std::os::unix::fs::FileExt;
                let mut bytes = vec![0u8; len];
                file.read_exact_at(&mut bytes, off as u64)?;
                Ok(bytes)
            }
            Backing::Heap(buf) => Ok(buf.as_slice()[off..off + len].to_vec()),
        }
    }

    /// Drop the physical pages of chunk `c`; false if the kernel refused
    /// (or the backing is the heap, which never evicts).
    #[cfg_attr(not(unix), allow(unused_variables))]
    fn evict_chunk(&self, c: usize) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { map, .. } => {
                let Chunk { at, len, .. } = self.chunks[c];
                map.advise_dontneed(at, len).is_ok()
            }
            Backing::Heap(_) => false,
        }
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("path", &self.path)
            .field("len", &self.len)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        if self.is_heap() {
            return;
        }
        // Return this segment's resident bytes to the cache gauge and
        // deregister.
        let resident: usize = self
            .chunks
            .iter()
            // lint: allow(relaxed, Drop has &mut self, so no touch can race this final sum)
            .filter(|c| c.state.load(Ordering::Relaxed) & 1 == 1)
            .map(|c| c.len)
            .sum();
        let mut inner = self.cache.inner.lock();
        inner.segments.remove(&self.id);
        inner.resident = inner.resident.saturating_sub(resident);
    }
}

/// Counters and gauges of a [`BlockCache`], mergeable across workers the
/// same way `SketchCache` stats are.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Byte budget (summed capacity after a merge).
    pub budget: u64,
    /// Bytes currently marked resident.
    pub resident_bytes: u64,
    /// Chunk faults (first touches) since creation.
    pub faults: u64,
    /// Bytes faulted in since creation (cumulative; eviction + refault
    /// counts again — this is the I/O-volume counter the out-of-core bench
    /// reports against total file bytes).
    pub bytes_faulted: u64,
    /// Touches fully served by resident chunks.
    pub hits: u64,
    /// Chunks evicted to stay within budget.
    pub evictions: u64,
}

impl BlockCacheStats {
    /// Fold another worker's stats into this one (sums everything;
    /// `budget`/`resident_bytes` become cluster-wide capacity and usage).
    pub fn merge(&mut self, other: &BlockCacheStats) {
        self.budget += other.budget;
        self.resident_bytes += other.resident_bytes;
        self.faults += other.faults;
        self.bytes_faulted += other.bytes_faulted;
        self.hits += other.hits;
        self.evictions += other.evictions;
    }
}

struct CacheInner {
    segments: HashMap<u64, Weak<Segment>>,
    resident: usize,
    faults: u64,
    bytes_faulted: u64,
    evictions: u64,
}

/// Byte-accounted bounded-LRU over the chunks of every lazy [`Segment`] a
/// worker has open. Eviction picks the least-recently touched resident
/// chunk.
pub struct BlockCache {
    budget: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    next_id: AtomicU64,
    inner: Mutex<CacheInner>,
}

impl BlockCache {
    /// A cache evicting down to `budget` bytes of resident chunks.
    pub fn new(budget: usize) -> Arc<BlockCache> {
        Arc::new(BlockCache {
            budget,
            tick: AtomicU64::new(1),
            hits: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            inner: Mutex::new(CacheInner {
                segments: HashMap::new(),
                resident: 0,
                faults: 0,
                bytes_faulted: 0,
                evictions: 0,
            }),
        })
    }

    /// A cache that never evicts.
    pub fn unbounded() -> Arc<BlockCache> {
        Self::new(usize::MAX)
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> BlockCacheStats {
        let inner = self.inner.lock();
        BlockCacheStats {
            budget: if self.budget == usize::MAX {
                0
            } else {
                self.budget as u64
            },
            resident_bytes: inner.resident as u64,
            faults: inner.faults,
            bytes_faulted: inner.bytes_faulted,
            // lint: allow(relaxed, monotonic diagnostics counter; no data is published through it)
            hits: self.hits.load(Ordering::Relaxed),
            evictions: inner.evictions,
        }
    }

    /// Fault in chunks `c0..=c1` of `seg`, then evict least-recently-used
    /// chunks until the gauge is back under budget.
    fn fault(&self, seg: &Segment, c0: usize, c1: usize) {
        seg.check_unchanged(c0, c1);
        // The segments the eviction scan upgrades. They are dropped after
        // the guard, never under it: when one is the last reference to its
        // segment (its owner dropped it meanwhile), its `Drop` locks
        // `inner`, which this thread would still hold.
        let mut live: Vec<Arc<Segment>> = Vec::new();
        let mut inner = self.inner.lock();
        // lint: allow(relaxed, recency clock; ticks only order evictions and publish nothing)
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        for c in c0..=c1 {
            let state = &seg.chunks[c].state;
            if state.load(Ordering::Acquire) & 1 == 1 {
                // Resident already (another fault got here first): only
                // the tick moves. The Acquire load above synchronized with
                // the Release store that published the chunk, so this
                // Release store republishes that fault with the new tick.
                state.store(tick << 1 | 1, Ordering::Release);
                continue;
            }
            // Release: publishes this fault — the file check above
            // included — to any thread that later Acquire-loads this
            // state word.
            state.store(tick << 1 | 1, Ordering::Release);
            let bytes = seg.chunks[c].len;
            inner.resident += bytes;
            inner.faults += 1;
            inner.bytes_faulted += bytes as u64;
        }
        if inner.resident > self.budget {
            live.extend(inner.segments.values().filter_map(Weak::upgrade));
            inner.segments.retain(|_, weak| weak.strong_count() > 0);
        }
        while inner.resident > self.budget {
            // Least-recently-touched resident chunk, skipping the chunks
            // just faulted (they carry the freshest tick anyway, but a tiny
            // budget must never evict its own working set mid-touch).
            let mut victim: Option<(&Arc<Segment>, usize, u64)> = None;
            for s in &live {
                for c in 0..s.chunks.len() {
                    if s.id == seg.id && (c0..=c1).contains(&c) {
                        continue;
                    }
                    // lint: allow(relaxed, recency-tick read for victim selection under the cache lock; no payload is read through it)
                    let state = s.chunks[c].state.load(Ordering::Relaxed);
                    if state & 1 == 0 {
                        continue;
                    }
                    let t = state >> 1;
                    if victim.is_none_or(|(_, _, vt)| t < vt) {
                        victim = Some((s, c, t));
                    }
                }
            }
            let Some((vseg, vc, _)) = victim else {
                // Only this fault's own chunks are left (or the bytes of a
                // segment whose `Drop` is waiting for the lock): overshoot
                // until a later fault can evict them.
                break;
            };
            if !vseg.evict_chunk(vc) {
                break;
            }
            vseg.chunks[vc].state.store(0, Ordering::Release);
            inner.resident = inner.resident.saturating_sub(vseg.chunks[vc].len);
            inner.evictions += 1;
        }
        drop(inner);
        drop(live);
    }
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("budget", &self.budget)
            .field("stats", &self.stats())
            .finish()
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for i64 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for f64 {}
}

/// Plain-old-data element types a [`ValueBuf`] can window over file bytes.
/// Sealed: exactly the lane types of the column storages (`i64` values,
/// `u32` dictionary codes, `u64` packed words, `f64` doubles).
pub trait Pod:
    sealed::Sealed + Copy + Default + Send + Sync + PartialEq + std::fmt::Debug + 'static
{
    /// Size of one element in bytes.
    const BYTES: usize;
    /// Decode one element from little-endian bytes (heap-tier file reads).
    fn read_le(b: &[u8]) -> Self;
    /// Append one element as little-endian bytes (file writes).
    fn write_le(self, out: &mut Vec<u8>);
}

macro_rules! pod {
    ($t:ty) => {
        impl Pod for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn read_le(b: &[u8]) -> Self {
                <$t>::from_le_bytes(b.try_into().expect("pod width"))
            }
            #[inline]
            fn write_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
    };
}
pod!(i64);
pod!(u32);
pod!(u64);
pod!(f64);

enum Repr<T> {
    Owned(Vec<T>),
    Mapped {
        seg: Arc<Segment>,
        /// Byte offset of element 0 within the segment.
        off: usize,
        /// Element count.
        len: usize,
        /// The segment window the elements lie in (unused when `len` is 0).
        win: usize,
    },
}

/// A typed column buffer: owned heap values, or a zero-copy window into a
/// [`Segment`]. All reads go through [`ValueBuf::slice`] (touch
/// everything) or [`ValueBuf::hot`] (touch a sub-range at chunk
/// granularity) so residency accounting — and the file check each fault
/// makes — always happen before bytes are dereferenced.
///
/// Mapped windows can only be constructed for [`Pod`] element types (file
/// bytes are reinterpreted in place); the owned representation works for
/// any `T`, which keeps the storage enums' derives unconstrained.
pub struct ValueBuf<T> {
    repr: Repr<T>,
}

impl<T: Pod> ValueBuf<T> {
    /// A window of `len` elements starting `off` bytes into `seg`.
    /// Validates bounds, element alignment (segment bases are 64-byte
    /// aligned, so `off` must be a multiple of the element size) and that
    /// the bytes lie inside one of the segment's windows.
    pub fn mapped(seg: Arc<Segment>, off: usize, len: usize) -> Result<ValueBuf<T>, String> {
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .ok_or_else(|| "mapped window overflows".to_string())?;
        let end = off
            .checked_add(bytes)
            .ok_or_else(|| "mapped window overflows".to_string())?;
        if end > seg.len() {
            return Err(format!(
                "mapped window {off}..{end} exceeds segment length {}",
                seg.len()
            ));
        }
        if !off.is_multiple_of(std::mem::align_of::<T>()) {
            return Err(format!("mapped window offset {off} misaligned"));
        }
        let win = match bytes {
            0 => usize::MAX,
            _ => seg
                .window_of(off, end)
                .ok_or_else(|| format!("mapped window {off}..{end} is not inside one section"))?,
        };
        Ok(ValueBuf {
            repr: Repr::Mapped { seg, off, len, win },
        })
    }
}

impl<T> ValueBuf<T> {
    /// Number of elements. Never touches.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Owned(v) => v.len(),
            Repr::Mapped { len, .. } => *len,
        }
    }

    /// True when there are no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn raw_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v,
            // SAFETY: `ValueBuf::mapped` validated that `off..off + len *
            // size_of::<T>()` lies inside the segment and that `off` is
            // element-aligned (segment bases are 64-byte aligned). `T: Pod`
            // is sealed to plain-old-data lane types, every bit pattern of
            // which is a valid value. The segment is kept alive by the
            // `Arc` in `Mapped`, so the borrow cannot outlive the bytes.
            Repr::Mapped { seg, off, len, .. } => unsafe {
                std::slice::from_raw_parts(seg.base_ptr().add(*off) as *const T, *len)
            },
        }
    }

    /// The full element slice, touching every covered chunk.
    #[inline]
    pub fn slice(&self) -> &[T] {
        if let Repr::Mapped { seg, off, len, win } = &self.repr {
            seg.touch(*win, *off, *off + *len * std::mem::size_of::<T>());
        }
        self.raw_slice()
    }

    /// The full element slice after touching only the chunks covering
    /// elements `r` — the lazy-residency fast path of the block decoders:
    /// callers index absolutely into the returned slice but must stay
    /// within `r`. For owned buffers this is free.
    #[inline]
    pub fn hot(&self, r: std::ops::Range<usize>) -> &[T] {
        if let Repr::Mapped { seg, off, win, .. } = &self.repr {
            let sz = std::mem::size_of::<T>();
            seg.touch(*win, *off + r.start * sz, *off + r.end * sz);
        }
        self.raw_slice()
    }

    /// Copy out every element (touches everything).
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.slice().to_vec()
    }

    /// Heap bytes owned by this buffer (mapped windows into heap-backed
    /// segments count here: the segment holds the bytes on the heap).
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Owned(v) => v.len() * std::mem::size_of::<T>(),
            Repr::Mapped { seg, len, .. } => {
                if seg.is_heap() {
                    *len * std::mem::size_of::<T>()
                } else {
                    0
                }
            }
        }
    }

    /// Bytes this buffer addresses through a lazy (mapped) segment —
    /// file-backed capacity, not heap footprint.
    pub fn mapped_bytes(&self) -> usize {
        match &self.repr {
            Repr::Owned(_) => 0,
            Repr::Mapped { seg, len, .. } => {
                if seg.is_heap() {
                    0
                } else {
                    *len * std::mem::size_of::<T>()
                }
            }
        }
    }

    /// True when backed by a segment (any backing) rather than owned heap.
    pub fn is_mapped(&self) -> bool {
        matches!(self.repr, Repr::Mapped { .. })
    }
}

impl<T> From<Vec<T>> for ValueBuf<T> {
    fn from(v: Vec<T>) -> Self {
        ValueBuf {
            repr: Repr::Owned(v),
        }
    }
}

impl<T> Default for ValueBuf<T> {
    fn default() -> Self {
        ValueBuf {
            repr: Repr::Owned(Vec::new()),
        }
    }
}

impl<T: Clone> Clone for ValueBuf<T> {
    fn clone(&self) -> Self {
        ValueBuf {
            repr: match &self.repr {
                Repr::Owned(v) => Repr::Owned(v.clone()),
                Repr::Mapped { seg, off, len, win } => Repr::Mapped {
                    seg: Arc::clone(seg),
                    off: *off,
                    len: *len,
                    win: *win,
                },
            },
        }
    }
}

impl<T: PartialEq> PartialEq for ValueBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.slice() == other.slice()
    }
}

impl<T: Eq> Eq for ValueBuf<T> {}

impl<T: std::fmt::Debug> std::fmt::Debug for ValueBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.repr {
            Repr::Owned(v) => f.debug_tuple("Owned").field(v).finish(),
            Repr::Mapped { seg, off, len, .. } => f
                .debug_struct("Mapped")
                .field("seg", seg)
                .field("off", off)
                .field("len", len)
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;

    /// `bytes` as a file in a scratch directory of its own; the file lives
    /// as long as the returned guard.
    fn write_tmp(name: &str, bytes: &[u8]) -> (TempDir, PathBuf) {
        let dir = TempDir::new("residency");
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        (dir, path)
    }

    /// `path` opened with one window, over its first `bytes` bytes.
    fn open_whole(
        path: &Path,
        bytes: usize,
        mode: SegmentMode,
        cache: &Arc<BlockCache>,
    ) -> Arc<Segment> {
        Segment::open(path, std::slice::from_ref(&(0..bytes)), mode, cache).unwrap()
    }

    fn le_bytes(vals: &[i64]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn mapped_buf_reads_file_values_in_every_mode() {
        let vals: Vec<i64> = (0..50_000).map(|i| i * 3 - 7).collect();
        let (_dir, path) = write_tmp("modes.bin", &le_bytes(&vals));
        for mode in [SegmentMode::Auto, SegmentMode::Heap] {
            let cache = BlockCache::unbounded();
            let seg = open_whole(&path, vals.len() * 8, mode, &cache);
            let mapped = mode == SegmentMode::Auto && cfg!(unix);
            assert_eq!(seg.is_mapped(), mapped, "{mode:?}");
            assert_eq!(seg.is_heap(), !mapped, "{mode:?}");
            let buf = ValueBuf::<i64>::mapped(seg, 0, vals.len()).unwrap();
            assert_eq!(buf.slice(), &vals[..], "{mode:?}");
            assert_eq!(buf.hot(100..164)[100..164], vals[100..164], "{mode:?}");
        }
    }

    #[test]
    fn untouched_chunks_never_fault() {
        let vals: Vec<i64> = (0..100_000).collect(); // 800 KB ≈ 13 chunks
        let (_dir, path) = write_tmp("lazy.bin", &le_bytes(&vals));
        let cache = BlockCache::unbounded();
        let seg = open_whole(&path, vals.len() * 8, SegmentMode::Auto, &cache);
        let buf = ValueBuf::<i64>::mapped(Arc::clone(&seg), 0, vals.len()).unwrap();
        // Touch one 64-row frame: at most 2 chunks fault.
        assert_eq!(buf.hot(0..64)[0..64], vals[0..64]);
        let s = cache.stats();
        assert!(s.faults <= 2, "faulted {} chunks for one frame", s.faults);
        assert!(
            (s.bytes_faulted as usize) < seg.len() / 4,
            "one frame faulted {} of {} file bytes",
            s.bytes_faulted,
            seg.len()
        );
    }

    #[test]
    fn repeated_touches_hit_not_fault() {
        let vals: Vec<i64> = (0..20_000).collect();
        let (_dir, path) = write_tmp("hits.bin", &le_bytes(&vals));
        let cache = BlockCache::unbounded();
        let seg = open_whole(&path, vals.len() * 8, SegmentMode::Auto, &cache);
        let buf = ValueBuf::<i64>::mapped(seg, 0, vals.len()).unwrap();
        buf.slice();
        let faults_once = cache.stats().faults;
        buf.slice();
        buf.hot(5..500);
        let s = cache.stats();
        assert_eq!(s.faults, faults_once, "re-touch refaulted");
        assert!(s.hits >= 2);
    }

    #[test]
    #[cfg_attr(not(unix), ignore)]
    fn tiny_budget_evicts_and_rereads_correctly() {
        let vals: Vec<i64> = (0..50_000i64)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .collect();
        let (_dir, path) = write_tmp("evict.bin", &le_bytes(&vals));
        // 400 KB file (7 chunks), 128 KiB budget (2 chunks): heavy churn.
        let cache = BlockCache::new(2 * CHUNK_BYTES);
        let seg = open_whole(&path, vals.len() * 8, SegmentMode::Auto, &cache);
        assert!(seg.is_mapped(), "lazy backing expected");
        let buf = ValueBuf::<i64>::mapped(Arc::clone(&seg), 0, vals.len()).unwrap();
        let heap_seg = open_whole(&path, vals.len() * 8, SegmentMode::Heap, &cache);
        let heap = ValueBuf::<i64>::mapped(heap_seg, 0, vals.len()).unwrap();
        assert_eq!(heap.slice(), &vals[..]);
        for round in 0..3 {
            let mut i = 0;
            while i < vals.len() {
                let end = (i + 64).min(vals.len());
                assert_eq!(
                    buf.hot(i..end)[i..end],
                    heap.slice()[i..end],
                    "round {round} at {i}"
                );
                i = end;
            }
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "no evictions under 2-chunk budget");
        assert!(
            s.resident_bytes <= (2 * CHUNK_BYTES) as u64,
            "resident {} over budget",
            s.resident_bytes
        );
    }

    /// One thread opens a segment, touches it and drops it, over and over,
    /// while another faults a second segment under a one-chunk budget, so
    /// every fault's eviction scan meets the first segment. The first
    /// thread lets go while the second holds the cache lock — mid-scan,
    /// often, and then the scan's reference is the last one. Dropping that
    /// reference under the lock ran `Segment::drop`, which takes the same
    /// lock: a self-deadlock. The dropped file is a sparse 64 MiB, so a scan
    /// holds it across 1 024 chunks; a watchdog turns a hang into a failure.
    #[test]
    #[cfg_attr(any(miri, not(unix)), ignore)]
    fn a_segment_dropped_during_an_eviction_scan_never_deadlocks() {
        use std::sync::mpsc::RecvTimeoutError;
        use std::time::{Duration, Instant};
        let vals: Vec<i64> = (0..100_000).collect(); // 800 KB ≈ 13 chunks
        let (dir, kept) = write_tmp("kept.bin", &le_bytes(&vals));
        let dropped = dir.join("dropped.bin");
        File::create(&dropped).unwrap().set_len(64 << 20).unwrap();
        let cache = BlockCache::new(CHUNK_BYTES);
        let until = Instant::now() + Duration::from_secs(1);
        let (done, finished) = std::sync::mpsc::channel();
        let threads = [(kept, true), (dropped, false)].map(|(path, faults)| {
            let (cache, done) = (Arc::clone(&cache), done.clone());
            std::thread::spawn(move || {
                let open = || {
                    let seg = open_whole(&path, 800_000, SegmentMode::Auto, &cache);
                    ValueBuf::<i64>::mapped(seg, 0, 100_000).unwrap()
                };
                if faults {
                    let kept = open();
                    while Instant::now() < until {
                        for i in (0..100_000).step_by(CHUNK_BYTES / 8) {
                            kept.hot(i..i + 1);
                        }
                    }
                } else {
                    while Instant::now() < until {
                        let buf = open();
                        buf.hot(0..64);
                        while cache.inner.try_lock().is_some() && Instant::now() < until {
                            std::hint::spin_loop();
                        }
                        drop(buf);
                    }
                }
                done.send(()).unwrap();
            })
        });
        // Not joined until both report: a deadlocked thread never would be.
        drop(done);
        for _ in 0..2 {
            match finished.recv_timeout(Duration::from_secs(30)) {
                Err(RecvTimeoutError::Timeout) => {
                    panic!("a thread hung: a fault deadlocked on the cache lock")
                }
                Ok(()) | Err(RecvTimeoutError::Disconnected) => {}
            }
        }
        for thread in threads {
            thread.join().expect("a racing thread panicked");
        }
    }

    #[test]
    fn dropping_a_segment_releases_its_residency() {
        let vals: Vec<i64> = (0..50_000).collect();
        let (_dir, path) = write_tmp("drop.bin", &le_bytes(&vals));
        let cache = BlockCache::unbounded();
        let seg = open_whole(&path, vals.len() * 8, SegmentMode::Auto, &cache);
        let buf = ValueBuf::<i64>::mapped(seg, 0, vals.len()).unwrap();
        buf.slice();
        assert!(cache.stats().resident_bytes > 0);
        drop(buf);
        assert_eq!(cache.stats().resident_bytes, 0);
    }

    #[test]
    fn mapped_window_validation() {
        let (_dir, path) = write_tmp("valid.bin", &le_bytes(&[1, 2, 3, 4]));
        let cache = BlockCache::unbounded();
        let seg = Segment::open(&path, &[0..16, 16..32], SegmentMode::Auto, &cache).unwrap();
        assert!(ValueBuf::<i64>::mapped(Arc::clone(&seg), 0, 2).is_ok());
        assert!(ValueBuf::<i64>::mapped(Arc::clone(&seg), 16, 2).is_ok());
        assert!(ValueBuf::<i64>::mapped(Arc::clone(&seg), 32, 0).is_ok());
        assert!(ValueBuf::<i64>::mapped(Arc::clone(&seg), 16, 3).is_err());
        assert!(ValueBuf::<i64>::mapped(Arc::clone(&seg), 3, 1).is_err());
        let straddle = ValueBuf::<i64>::mapped(Arc::clone(&seg), 8, 2).unwrap_err();
        assert!(straddle.contains("not inside one section"), "{straddle}");
        for overlapping in [[0..16, 8..32], [16..32, 0..16]] {
            let e = Segment::open(&path, &overlapping, SegmentMode::Auto, &cache).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{overlapping:?}");
        }
        // Empty windows may share an offset with anything.
        assert!(Segment::open(&path, &[0..16, 8..8, 16..32], SegmentMode::Heap, &cache).is_ok());
    }

    /// Windows at every phase of the page and chunk grids of the file: each
    /// is charged the pages it lies on, counted from its own first page, and
    /// never a neighbour's.
    #[test]
    fn a_window_is_charged_the_pages_it_lies_on() {
        let page = page_bytes();
        let vals: Vec<i64> = (0..(3 * CHUNK_BYTES / 8) as i64).collect();
        let (_dir, path) = write_tmp("grid.bin", &le_bytes(&vals));
        // (first byte, bytes, pages charged, chunks)
        let cases = [
            (0, 64, 1, 1),
            (page - 64, 128, 2, 1),
            (CHUNK_BYTES - 64, 128, 2, 1),
            (CHUNK_BYTES - 64, CHUNK_BYTES, CHUNK_BYTES / page + 1, 2),
            (
                CHUNK_BYTES + 64,
                CHUNK_BYTES + 64,
                CHUNK_BYTES / page + 1,
                2,
            ),
        ];
        for (start, bytes, pages, chunks) in cases {
            // The window and one neighbour on either side, sharing its edge
            // pages.
            let windows = [
                0..start,
                start..start + bytes,
                start + bytes..vals.len() * 8,
            ];
            let cache = BlockCache::unbounded();
            let seg = Segment::open(&path, &windows, SegmentMode::Auto, &cache).unwrap();
            let buf = ValueBuf::<i64>::mapped(Arc::clone(&seg), start, bytes / 8).unwrap();
            assert_eq!(buf.slice(), &vals[start / 8..(start + bytes) / 8]);
            let s = cache.stats();
            let label = format!("{bytes} bytes at {start}");
            if seg.is_mapped() {
                assert_eq!(s.faults, chunks as u64, "{label}");
                assert_eq!(s.resident_bytes, (pages * page) as u64, "{label}");
                assert_eq!(s.bytes_faulted, s.resident_bytes, "{label}");
                assert_eq!(seg.resident_bytes(), pages * page, "{label}");
            }
            drop(buf);
            drop(seg);
            assert_eq!(cache.stats().resident_bytes, 0, "{label}: dropped");
        }
    }

    #[test]
    fn owned_and_mapped_bufs_compare_equal() {
        let vals: Vec<i64> = (0..5_000).map(|i| i * i).collect();
        let (_dir, path) = write_tmp("eq.bin", &le_bytes(&vals));
        let cache = BlockCache::unbounded();
        let owned: ValueBuf<i64> = vals.into();
        assert_eq!(owned.heap_bytes(), 5_000 * 8);
        let seg = open_whole(&path, owned.len() * 8, SegmentMode::Auto, &cache);
        let mapped = ValueBuf::<i64>::mapped(seg, 0, owned.len()).unwrap();
        assert_eq!(owned, mapped);
        #[cfg(unix)]
        {
            assert_eq!(mapped.heap_bytes(), 0);
            assert_eq!(mapped.mapped_bytes(), 5_000 * 8);
        }
    }

    #[test]
    fn stats_merge_sums() {
        let mut a = BlockCacheStats {
            budget: 10,
            resident_bytes: 5,
            faults: 2,
            bytes_faulted: 100,
            hits: 7,
            evictions: 1,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.budget, 20);
        assert_eq!(a.faults, 4);
        assert_eq!(a.bytes_faulted, 200);
        assert_eq!(a.hits, 14);
        assert_eq!(a.evictions, 2);
    }
}
