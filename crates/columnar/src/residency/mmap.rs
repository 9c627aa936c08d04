//! A read-only, private mapping of a whole file over raw `mmap(2)`: the
//! zero-copy, evictable backing of a lazy [`Segment`](super::Segment).
//!
//! The surface is what the segment needs and no more — map, view the
//! bytes, drop the physical pages of a sub-range
//! ([`Mmap::advise_dontneed`], the block cache's eviction primitive: the
//! kernel refaults identical bytes from the file on the next access), unmap
//! on drop — and the page size those ranges are counted in. The libc
//! symbols are the ones `std` already links; declaring them here keeps the
//! crate free of a dependency for four calls.
//!
//! Miri cannot run that FFI, so under `cfg(miri)` an [`Mmap`] is a heap
//! copy of the file read at open and its advice is a no-op: the segment
//! above it runs the same residency state machine either way.

#[cfg(miri)]
pub(super) use super::RawBuf as Mmap;
#[cfg(not(miri))]
pub(super) use mapped::{page_size, Mmap};

/// The page size the stand-in reports: the common one.
#[cfg(miri)]
pub(super) fn page_size() -> usize {
    4096
}

#[cfg(not(miri))]
mod mapped {
    use std::ffi::c_void;
    use std::fs::File;
    use std::io;

    const PROT_READ: i32 = 0x1;
    const MAP_PRIVATE: i32 = 0x02;
    const MADV_DONTNEED: i32 = 4;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
        fn getpagesize() -> i32;
    }

    /// The host's page size: the grain `madvise` takes offsets in.
    pub(in super::super) fn page_size() -> usize {
        // SAFETY: `getpagesize` takes nothing and reads a constant of the
        // process.
        let page = unsafe { getpagesize() };
        usize::try_from(page).expect("a positive page size")
    }

    /// A read-only, private memory map of an entire file.
    pub(in super::super) struct Mmap {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is read-only (PROT_READ) and the file's lifetime
    // is not borrowed — the kernel keeps the backing alive via the mapping
    // itself — so ownership can move between threads freely.
    unsafe impl Send for Mmap {}
    // SAFETY: all access through `&Mmap` is read-only; concurrent readers of
    // an immutable mapping cannot race.
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Map the first `len` bytes of `file` read-only: its whole length,
        /// as the caller read it once at open.
        ///
        /// # Safety
        ///
        /// The caller must ensure the underlying file is not truncated or
        /// rewritten while the map is alive: unix gives no way to make a
        /// file-backed mapping immune to outside modification, so reads
        /// through the map could otherwise observe torn data or fault. The
        /// storage layer only maps sealed, immutable `hvc` files.
        pub(in super::super) unsafe fn map(file: &File, len: usize) -> io::Result<Mmap> {
            use std::os::fd::AsRawFd;
            if len == 0 {
                // mmap rejects zero-length maps; represent as a dangling map.
                return Ok(Mmap {
                    ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                    len: 0,
                });
            }
            // SAFETY: a fresh private read-only mapping at an address the
            // kernel picks aliases nothing this process owns; `file` is an
            // open descriptor for the duration of the call, and the result
            // is checked against `MAP_FAILED` before it is kept.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Mmap {
                ptr: ptr as *const u8,
                len,
            })
        }

        /// The mapped bytes.
        #[inline]
        pub(in super::super) fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is either a live `len`-byte mapping owned by
            // self (unmapped only in Drop) or dangling with `len == 0`,
            // which `from_raw_parts` permits. Immutability of the bytes is
            // the caller contract documented on `Mmap::map`.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }

        /// Drop the physical pages backing `offset .. offset + len`
        /// (clipped to the mapping). The next access refaults the same
        /// bytes from the file. `offset` must be page-aligned — the kernel
        /// refuses one that is not.
        pub(in super::super) fn advise_dontneed(
            &self,
            offset: usize,
            len: usize,
        ) -> io::Result<()> {
            if len == 0 || self.len == 0 {
                return Ok(());
            }
            if offset >= self.len {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "advise range must start inside the mapping",
                ));
            }
            let len = len.min(self.len - offset);
            // SAFETY: `offset < self.len` and `len` clipped above keep the
            // range inside this mapping; MADV_DONTNEED on a file-backed
            // private read-only map only drops clean physical pages — the
            // virtual range stays valid and refaults from the file.
            let rc = unsafe { madvise(self.ptr.add(offset) as *mut c_void, len, MADV_DONTNEED) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            if self.len > 0 {
                // SAFETY: `len > 0` implies `ptr` came from a successful
                // `mmap` of exactly `len` bytes, and Drop runs at most once.
                unsafe {
                    munmap(self.ptr as *mut c_void, self.len);
                }
            }
        }
    }
}

/// Under Miri the mapping is the file's bytes read onto the heap at open.
#[cfg(miri)]
impl super::RawBuf {
    /// Read the first `len` bytes of `file`.
    ///
    /// # Safety
    ///
    /// None of its own: it is `unsafe` only so that the one call site is
    /// the one the real mapping needs.
    pub(super) unsafe fn map(file: &std::fs::File, len: usize) -> std::io::Result<Self> {
        Self::read(file, len)
    }

    /// Nothing to drop: the copy stays whole.
    pub(super) fn advise_dontneed(&self, _offset: usize, _len: usize) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::Mmap;
    use crate::TempDir;
    use std::fs::File;

    fn file_of(dir: &TempDir, name: &str, bytes: &[u8]) -> File {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        File::open(&path).unwrap()
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn maps_file_contents() {
        let dir = TempDir::new("mmap");
        let data: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let f = file_of(&dir, "m.bin", &data);
        // SAFETY: the file was fully written and closed above; nothing
        // mutates it while the map lives.
        let m = unsafe { Mmap::map(&f, data.len()) }.unwrap();
        assert_eq!(m.as_slice(), &data[..]);
        // Dropping pages and re-reading yields the same bytes.
        m.advise_dontneed(0, data.len()).unwrap();
        assert_eq!(m.as_slice(), &data[..]);
    }

    #[test]
    fn empty_file_maps_empty() {
        let dir = TempDir::new("mmap");
        let f = file_of(&dir, "empty.bin", &[]);
        // SAFETY: empty file created above; nothing mutates it while the
        // map lives.
        let m = unsafe { Mmap::map(&f, 0) }.unwrap();
        assert_eq!(m.as_slice(), &[] as &[u8]);
        m.advise_dontneed(0, 0).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn unaligned_advise_rejected() {
        let dir = TempDir::new("mmap");
        let f = file_of(&dir, "a.bin", &[1u8; 64]);
        // SAFETY: the file was fully written and closed above; nothing
        // mutates it while the map lives.
        let m = unsafe { Mmap::map(&f, 64) }.unwrap();
        assert!(m.advise_dontneed(1, 10).is_err());
        assert!(m.advise_dontneed(64, 10).is_err());
    }
}
