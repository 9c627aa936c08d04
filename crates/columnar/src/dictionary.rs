//! Dictionary encoding for string and categorical columns.
//!
//! Paper §6: "String columns use dictionary encoding for compression." A
//! column stores `u32` codes; the dictionary maps codes to strings.
//! Dictionaries are immutable once built (tables are snapshots).
//!
//! **Codes sort.** Code order is the byte order of the strings (`str::cmp`,
//! which is also [`crate::Value`]'s order), so inside one dictionary a
//! question about string order is a question about `u32`s: the smallest
//! present string is the string of the smallest present code, and a sort
//! key becomes a [`Dictionary::rank`] that rows compare their codes against
//! without reading a string. [`DictionaryBuilder::finish`] sorts, and
//! rewrites the caller's codes in the same call.
//!
//! **Representation.** A [`Dictionary`] is one byte arena of front-coded
//! entries plus one `u32` offset per bucket of 16 entries. A
//! bucket's first entry is stored whole; each later one as the length of
//! the prefix it shares with its predecessor, its suffix's length and the
//! suffix bytes. Both lengths sit in the nibbles of one header byte — a
//! nibble of 15 says the length is 15 plus a LEB128 varint that follows,
//! prefix's first — so a sorted run of six-character tail numbers costs
//! about three bytes an entry where a whole string and an offset cost ten.
//! The shared prefix always ends on a character boundary and is the longest
//! that does, so every suffix is UTF-8 and a set of strings has exactly one
//! encoding, in memory and in a file alike: [`Dictionary::front_coded`] is
//! what `hvc` stores, and [`Dictionary::from_front_coded`] the one parser
//! (and validator) of those bytes. The 4 GiB a bucket offset can address is
//! a hard limit: passing it is [`Error::DictionaryTooLarge`].
//!
//! **Reading, and what a `&str` lives for.** An entry other than a bucket's
//! first exists nowhere whole, so nothing lends a `&str` out of the arena.
//! There are three reads instead: [`Dictionary::for_each`] walks every
//! entry in code order through one reused buffer (the text predicates, the
//! per-entry hash tables of the kernels); [`Dictionary::read`] decodes one
//! code into a caller's buffer, walking at most 15 predecessors and
//! allocating nothing once the buffer has grown; and [`Dictionary::rank`] /
//! [`Dictionary::compare`] place a string among the entries without
//! decoding one, by tracking how many bytes of the probe the walk has
//! matched. A `&str` handed out lives as long as the buffer or the
//! callback, never as long as the dictionary.
//!
//! **Who pays, and when.** A dictionary built in memory
//! ([`DictionaryBuilder::finish`]) holds its entries from the start; the
//! builder pays one sort per column. One that describes bytes elsewhere — a
//! section of a mapped file — is made [`Dictionary::deferred`]: it knows how
//! many strings it has, which is all that opening a file, planning over it
//! and scanning its codes ask, and fetches them through its loader when an
//! entry is first read. That first reader pays the whole parse; the readers
//! racing it wait on the same [`OnceLock`] and none parses twice; every
//! later one pays a load and a branch. [`Dictionary::heap_bytes`] says 0
//! before and the exact footprint after, so a table's heap side follows the
//! string columns that have been presented, not the ones it has.
//!
//! **Who builds a `Value::Str`.** Kernels, predicates and the file codec
//! work on codes and on borrowed decodes. A reference-counted
//! [`crate::Value::Str`] is built only where a value *leaves* its column —
//! [`crate::Column::value`] (display rows, sort keys that enter a summary)
//! and the handful of strings a summary keeps (heavy hitters, bottom-k,
//! range extremes) — so that is where the allocation is paid, once per kept
//! value rather than once per dictionary entry.

use crate::error::{Error, Result};
use std::cmp::Ordering;
use std::hash::{BuildHasher, RandomState};
use std::sync::{Arc, OnceLock};

/// Entries per bucket: one `u32` offset is kept per bucket, and a point
/// read walks at most this many entries.
const BUCKET: usize = 16;

/// The largest length a header nibble holds itself; a nibble of `ESCAPE`
/// says the length is `ESCAPE` plus a varint that follows.
const ESCAPE: usize = 15;

/// The most bytes an entry's header takes: the nibble byte and two
/// five-byte varints. Every entry costs at most this plus its own length.
const MAX_HEAD: usize = 1 + 5 + 5;

/// Arena and bucket offsets, laid out as the module doc describes.
#[derive(Debug, Clone, Default)]
struct Coded {
    arena: Box<[u8]>,
    /// Byte offset of each bucket's first entry: `len.div_ceil(BUCKET)`.
    buckets: Box<[u32]>,
}

/// One entry's header, read at a byte position of an arena.
#[derive(Debug, Clone, Copy)]
struct Head {
    /// Bytes the entry shares with its predecessor.
    prefix: usize,
    /// Where its suffix starts in the arena.
    from: usize,
    /// One past its suffix: where the next entry's header starts.
    to: usize,
}

/// Read the header of the entry at `at`, refusing one the arena cannot
/// back. The error says what is wrong, for [`Dictionary::from_front_coded`].
fn head(arena: &[u8], at: usize) -> std::result::Result<Head, &'static str> {
    let &nibbles = arena.get(at).ok_or("truncated")?;
    let mut at = at + 1;
    let prefix = length(arena, &mut at, nibbles >> 4)?;
    let suffix = length(arena, &mut at, nibbles & 0xF)?;
    let to = at
        .checked_add(suffix)
        .filter(|&to| to <= arena.len())
        .ok_or("truncated")?;
    Ok(Head {
        prefix,
        from: at,
        to,
    })
}

/// The length a header nibble says, reading its escape varint at `at` if
/// it has one: minimal LEB128, and the length at most `u32::MAX`.
fn length(arena: &[u8], at: &mut usize, nibble: u8) -> std::result::Result<usize, &'static str> {
    let nibble = nibble as usize;
    if nibble < ESCAPE {
        return Ok(nibble);
    }
    let mut rest = 0u64;
    for shift in (0..35).step_by(7) {
        let &b = arena.get(*at).ok_or("truncated")?;
        *at += 1;
        rest |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            if b == 0 && shift > 0 {
                return Err("non-canonical escape");
            }
            return u32::try_from(ESCAPE as u64 + rest)
                .map(|n| n as usize)
                .map_err(|_| "escape overflows");
        }
    }
    Err("escape overflows")
}

fn put_varint(out: &mut Vec<u8>, mut v: usize) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The longest prefix `a` and `b` share that ends on a character boundary
/// of both.
fn shared(a: &str, b: &str) -> usize {
    let mut n = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
    while !(a.is_char_boundary(n) && b.is_char_boundary(n)) {
        n -= 1;
    }
    n
}

/// Appends sorted, distinct strings as front-coded entries.
#[derive(Debug, Default)]
struct Coder {
    coded: Vec<u8>,
    buckets: Vec<u32>,
    /// The last entry pushed.
    last: String,
    len: usize,
}

impl Coder {
    /// Append `s`, which must sort strictly after every entry so far.
    fn push(&mut self, s: &str) -> Result<()> {
        debug_assert!(self.len == 0 || *s > *self.last, "entries ascend");
        let prefix = if self.len.is_multiple_of(BUCKET) {
            let at = u32::try_from(self.coded.len()).map_err(|_| Error::DictionaryTooLarge)?;
            self.buckets.push(at);
            0
        } else {
            shared(&self.last, s)
        };
        let suffix = &s.as_bytes()[prefix..];
        let nibble = |n: usize| n.min(ESCAPE) as u8;
        self.coded.push(nibble(prefix) << 4 | nibble(suffix.len()));
        for n in [prefix, suffix.len()] {
            if n >= ESCAPE {
                put_varint(&mut self.coded, n - ESCAPE);
            }
        }
        self.coded.extend_from_slice(suffix);
        self.last.truncate(prefix);
        self.last.push_str(&s[prefix..]);
        self.len += 1;
        Ok(())
    }

    fn finish(self) -> Result<Dictionary> {
        if u32::try_from(self.coded.len()).is_err() {
            return Err(Error::DictionaryTooLarge);
        }
        Ok(Dictionary::loaded(
            self.len,
            Coded {
                arena: self.coded.into_boxed_slice(),
                buckets: self.buckets.into_boxed_slice(),
            },
        ))
    }
}

/// Where a string stands against the entries of a walk: the order of the
/// entry last stepped over, and how many of its leading bytes equal the
/// probe's. A front-coded entry either keeps more of its predecessor than
/// the probe matched — then it differs from the probe where its predecessor
/// did, the same way — or its suffix is compared with the probe's bytes
/// from its prefix on. Nothing is decoded.
struct Probe<'s> {
    s: &'s [u8],
    matched: usize,
    order: Ordering,
}

impl<'s> Probe<'s> {
    fn new(s: &'s str) -> Self {
        Probe {
            s: s.as_bytes(),
            matched: 0,
            order: Ordering::Equal,
        }
    }

    /// Step to the entry `head` describes; its order against the probe.
    #[inline]
    fn step(&mut self, arena: &[u8], head: Head) -> Ordering {
        if head.prefix <= self.matched {
            let (suffix, rest) = (&arena[head.from..head.to], &self.s[head.prefix..]);
            self.matched =
                head.prefix + suffix.iter().zip(rest).take_while(|(a, b)| a == b).count();
            self.order = suffix.cmp(rest);
        }
        self.order
    }
}

impl Coded {
    /// The header at `at` of an arena validated at construction.
    #[inline]
    fn head(&self, at: usize) -> Head {
        head(&self.arena, at).expect("a dictionary's entries are validated when it is built")
    }

    #[inline]
    fn suffix(&self, head: Head) -> &str {
        std::str::from_utf8(&self.arena[head.from..head.to]).expect("suffixes are validated UTF-8")
    }
}

/// Fetches a deferred dictionary's entries; see [`Dictionary::deferred`].
type Loader = Arc<dyn Fn() -> Dictionary + Send + Sync>;

/// An immutable, sorted, deduplicated code → string mapping.
#[derive(Clone)]
pub struct Dictionary {
    /// Number of distinct strings: known before any of them is.
    len: usize,
    /// Set at construction, or by the first reader of a deferred dictionary.
    coded: OnceLock<Coded>,
    loader: Option<Loader>,
}

impl Default for Dictionary {
    fn default() -> Self {
        Dictionary::loaded(0, Coded::default())
    }
}

impl std::fmt::Debug for Dictionary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dictionary")
            .field("len", &self.len)
            .field("coded", &self.coded.get())
            .finish()
    }
}

impl Dictionary {
    fn loaded(len: usize, coded: Coded) -> Dictionary {
        Dictionary {
            len,
            coded: OnceLock::from(coded),
            loader: None,
        }
    }

    /// A dictionary of `len` strings that `load` fetches when one is first
    /// read: [`Dictionary::len`] answers at once, and the first read of an
    /// entry runs `load` — once, whichever thread gets there first; the
    /// others wait for it and read the same entries. `load` must return
    /// `len` strings. It may panic instead; the reader that ran it unwinds,
    /// nothing is kept, and the next reader runs it again.
    pub fn deferred(len: usize, load: impl Fn() -> Dictionary + Send + Sync + 'static) -> Self {
        Dictionary {
            len,
            coded: OnceLock::new(),
            loader: Some(Arc::new(load)),
        }
    }

    /// Parse `entries` front-coded entries — the bytes
    /// [`Dictionary::front_coded`] returns — rebuilding the bucket offsets
    /// in the same pass that validates them. Refused, as
    /// [`Error::BadDictionary`] naming the entry: a header, escape or suffix
    /// the bytes cannot back; an escape past `u32::MAX` or not minimal; a
    /// suffix that is not UTF-8; a bucket's first entry that claims a
    /// prefix; a prefix longer than the previous entry, ending inside one
    /// of its characters, or shorter than the longest it shares; an entry
    /// not above its predecessor (which also refuses repeats); and bytes
    /// left after the last entry.
    pub fn from_front_coded(bytes: Vec<u8>, entries: usize) -> Result<Dictionary> {
        let bad = |what: String| Error::BadDictionary(what);
        // An entry takes at least its header byte.
        if entries > bytes.len() {
            let n = bytes.len();
            return Err(bad(format!("{entries} entries exceed its {n} bytes")));
        }
        if u32::try_from(bytes.len()).is_err() {
            return Err(Error::DictionaryTooLarge);
        }
        let mut buckets = Vec::with_capacity(entries.div_ceil(BUCKET));
        let mut last = String::new();
        let mut at = 0;
        for code in 0..entries {
            let fault = |what: &str| bad(format!("entry {code}: {what}"));
            let h = head(&bytes, at).map_err(fault)?;
            let suffix = std::str::from_utf8(&bytes[h.from..h.to])
                .map_err(|_| fault("suffix is not UTF-8"))?;
            let p = h.prefix;
            if code.is_multiple_of(BUCKET) {
                if p != 0 {
                    return Err(fault(&format!("opens a bucket but shares {p} bytes")));
                }
                buckets.push(at as u32);
            } else if p > last.len() {
                let had = last.len();
                return Err(fault(&format!(
                    "prefix of {p} bytes exceeds the previous {had}"
                )));
            } else if !last.is_char_boundary(p) {
                return Err(fault(&format!("prefix of {p} bytes ends mid-character")));
            }
            // Both share `last[..p]`, so the tails decide the order.
            if code > 0 && *suffix <= last[p..] {
                return Err(fault("not ascending"));
            }
            if !code.is_multiple_of(BUCKET) && shared(&last[p..], suffix) > 0 {
                return Err(fault(&format!(
                    "prefix of {p} bytes is not the longest shared"
                )));
            }
            last.truncate(p);
            last.push_str(suffix);
            at = h.to;
        }
        if at < bytes.len() {
            let left = bytes.len() - at;
            return Err(bad(format!("{left} bytes follow its {entries} entries")));
        }
        let coded = Coded {
            arena: bytes.into_boxed_slice(),
            buckets: buckets.into_boxed_slice(),
        };
        Ok(Dictionary::loaded(entries, coded))
    }

    #[inline]
    fn coded(&self) -> &Coded {
        match self.coded.get() {
            Some(coded) => coded,
            None => self.load(),
        }
    }

    #[cold]
    fn load(&self) -> &Coded {
        self.coded.get_or_init(|| {
            let load = self
                .loader
                .as_ref()
                .expect("built with entries or a loader");
            let loaded = load();
            assert_eq!(
                loaded.len, self.len,
                "a deferred dictionary's loader returned another count of strings"
            );
            // Moved, not copied — once a loader that itself defers has run.
            loaded.coded();
            loaded.coded.into_inner().expect("just read")
        })
    }

    /// Number of distinct strings. Never loads them.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the dictionary holds no strings.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Call `f` with every code and its string, in code (= byte) order,
    /// decoding each entry onto its predecessor in one reused buffer.
    pub fn for_each(&self, mut f: impl FnMut(u32, &str)) {
        let coded = self.coded();
        let mut entry = String::new();
        let mut at = 0;
        for code in 0..self.len as u32 {
            let h = coded.head(at);
            entry.truncate(h.prefix);
            entry.push_str(coded.suffix(h));
            f(code, &entry);
            at = h.to;
        }
    }

    /// The string for `code`, decoded into `buf` (cleared first) from the
    /// first entry of its bucket: allocates only while `buf` grows. Panics
    /// on unknown codes (column invariant).
    pub fn read<'b>(&self, code: u32, buf: &'b mut String) -> &'b str {
        let c = code as usize;
        assert!(c < self.len, "code {c} of a {}-entry dictionary", self.len);
        let coded = self.coded();
        let mut at = coded.buckets[c / BUCKET] as usize;
        // Bytes first, checked as UTF-8 once: the walk's prefixes end on
        // character boundaries, so only the whole entry needs the check.
        let mut bytes = std::mem::take(buf).into_bytes();
        bytes.clear();
        for _ in 0..=c % BUCKET {
            let h = coded.head(at);
            bytes.truncate(h.prefix);
            bytes.extend_from_slice(&coded.arena[h.from..h.to]);
            at = h.to;
        }
        *buf = String::from_utf8(bytes).expect("entries are validated UTF-8");
        buf
    }

    /// Where `s` stands among the entries: `Ok(code)` if it is one,
    /// `Err(code)` for the code it would take — every entry below `code` is
    /// smaller, every one from it larger. A binary search over the buckets'
    /// whole first entries, then a walk of one bucket that decodes nothing.
    /// This is how `Predicate::Equals` on a string column compiles and how
    /// a sort key binds to a part.
    pub fn rank(&self, s: &str) -> std::result::Result<u32, u32> {
        let coded = self.coded();
        let b = coded.buckets.partition_point(|&at| {
            let first = coded.suffix(coded.head(at as usize));
            first <= s
        });
        let Some(b) = b.checked_sub(1) else {
            return Err(0);
        };
        let (first, end) = (b * BUCKET, self.len.min((b + 1) * BUCKET));
        let mut probe = Probe::new(s);
        let mut at = coded.buckets[b] as usize;
        for code in first..end {
            let h = coded.head(at);
            match probe.step(&coded.arena, h) {
                Ordering::Less => at = h.to,
                Ordering::Equal => return Ok(code as u32),
                Ordering::Greater => return Err(code as u32),
            }
        }
        Err(end as u32)
    }

    /// `self.read(code).cmp(s)`, without decoding the entry: a walk of its
    /// bucket up to it. Panics on unknown codes (column invariant).
    pub fn compare(&self, code: u32, s: &str) -> Ordering {
        let c = code as usize;
        assert!(c < self.len, "code {c} of a {}-entry dictionary", self.len);
        let coded = self.coded();
        let mut probe = Probe::new(s);
        let mut at = coded.buckets[c / BUCKET] as usize;
        let mut order = Ordering::Equal;
        for _ in 0..=c % BUCKET {
            let h = coded.head(at);
            order = probe.step(&coded.arena, h);
            at = h.to;
        }
        order
    }

    /// The entries whose flag in `keep` (one per code) is set, in the same
    /// order — a subset of a sorted dictionary is sorted, so this is one
    /// walk that re-codes the kept entries against their new neighbours.
    pub fn subset(&self, keep: &[bool]) -> Dictionary {
        assert_eq!(keep.len(), self.len, "one flag per entry");
        let mut coder = Coder::default();
        self.for_each(|code, s| {
            if keep[code as usize] {
                coder
                    .push(s)
                    .expect("a subset of a dictionary fits in 4 GiB when the dictionary does");
            }
        });
        coder
            .finish()
            .expect("a subset of a dictionary fits in 4 GiB when the dictionary does")
    }

    /// The front-coded entries, as [`Dictionary::from_front_coded`] reads
    /// them back: what a file stores. Loads a deferred dictionary.
    pub fn front_coded(&self) -> &[u8] {
        &self.coded().arena
    }

    /// Exact heap footprint in bytes: the arena plus one `u32` per bucket,
    /// both allocated to length — and nothing while a deferred dictionary's
    /// entries have not been read.
    pub fn heap_bytes(&self) -> usize {
        self.coded
            .get()
            .map_or(0, |c| c.arena.len() + std::mem::size_of_val(&*c.buckets))
    }
}

/// Marks a free slot of the builder's index. No code can collide with it:
/// a dictionary's strings are distinct, so `u32::MAX` of them would need
/// far more than the 4 GiB an arena may hold.
const FREE: u64 = u64::MAX;

/// Incrementally interns strings while building a dictionary-encoded column.
///
/// Strings are appended to a plain arena as they are first seen, under
/// provisional codes in that order; the index that finds repeats holds
/// *codes*, not keys — an open-addressed table of `hash fragment << 32 |
/// code` words whose candidates are compared against the arena slice the
/// code names — so interning allocates nothing per string.
/// [`DictionaryBuilder::finish`] sorts the strings and renumbers.
#[derive(Debug)]
pub struct DictionaryBuilder {
    arena: String,
    offsets: Vec<u32>,
    /// Bytes the front-coded dictionary could take at most: `MAX_HEAD`
    /// plus its length per string. Interning past 4 GiB of it is refused,
    /// so `finish` always fits.
    bound: usize,
    /// Power-of-two table, at most half full; a word's upper half (the top
    /// 32 bits of its string's hash) also places it, so growing the table
    /// never rehashes a string.
    slots: Vec<u64>,
    hasher: RandomState,
}

impl Default for DictionaryBuilder {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl DictionaryBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty builder with room for `strings` distinct strings.
    pub fn with_capacity(strings: usize) -> Self {
        let mut offsets = Vec::with_capacity(strings + 1);
        offsets.push(0);
        DictionaryBuilder {
            arena: String::new(),
            offsets,
            bound: 0,
            slots: vec![FREE; (strings * 2).next_power_of_two().max(16)],
            hasher: RandomState::new(),
        }
    }

    /// Intern `s`, returning its provisional code — the order of first
    /// sight, until [`DictionaryBuilder::finish`] renumbers. Fails — leaving
    /// the builder as it was — only when `s` could push the dictionary past
    /// the 4 GiB its offsets can address.
    #[inline]
    pub fn intern(&mut self, s: &str) -> Result<u32> {
        if (self.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let fragment = self.hasher.hash_one(s) & !(u32::MAX as u64);
        let mask = self.slots.len() - 1;
        let mut at = (fragment >> 32) as usize & mask;
        while self.slots[at] != FREE {
            let word = self.slots[at];
            if word & !(u32::MAX as u64) == fragment {
                // Compared as bytes, lengths first: a slice that is only
                // tested for equality needs no char-boundary checks, and
                // this is the hot path of every column built from strings.
                let code = word as u32 as usize;
                if self.bytes_of(code) == s.as_bytes() {
                    return Ok(word as u32);
                }
            }
            at = (at + 1) & mask;
        }
        self.bound = grow_bound(self.bound, s.len())?;
        let code = self.len() as u32;
        self.arena.push_str(s);
        self.offsets.push(self.arena.len() as u32);
        self.slots[at] = fragment | code as u64;
        Ok(code)
    }

    fn bytes_of(&self, code: usize) -> &[u8] {
        &self.arena.as_bytes()[self.offsets[code] as usize..self.offsets[code + 1] as usize]
    }

    fn str_of(&self, code: usize) -> &str {
        &self.arena[self.offsets[code] as usize..self.offsets[code + 1] as usize]
    }

    /// Double the index, re-placing each word by the hash fragment it
    /// carries.
    fn grow(&mut self) {
        let mask = self.slots.len() * 2 - 1;
        let mut slots = vec![FREE; mask + 1];
        for &word in self.slots.iter().filter(|&&w| w != FREE) {
            let mut at = (word >> 32) as usize & mask;
            while slots[at] != FREE {
                at = (at + 1) & mask;
            }
            slots[at] = word;
        }
        self.slots = slots;
    }

    /// Current number of distinct strings.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Finish building: sort the strings into byte order, rewrite `codes` —
    /// each one a code [`DictionaryBuilder::intern`] returned, or, when
    /// nothing was interned, 0 (a null row's placeholder) — from
    /// provisional to final codes in place, and front-code the dictionary.
    /// A null row's placeholder is renumbered like any code; a caller that
    /// parks null rows on 0 does so after this.
    pub fn finish(self, codes: &mut [u32]) -> Dictionary {
        let n = self.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| self.str_of(a as usize).cmp(self.str_of(b as usize)));
        let mut coder = Coder::default();
        let mut renumbered = vec![0u32; n];
        for (new, &old) in order.iter().enumerate() {
            renumbered[old as usize] = new as u32;
            coder
                .push(self.str_of(old as usize))
                .expect("interning bounds the front-coded size");
        }
        if n > 0 {
            for code in codes {
                *code = renumbered[*code as usize];
            }
        }
        coder
            .finish()
            .expect("interning bounds the front-coded size")
    }
}

/// `bound` after a string of `add` bytes joins it, or
/// [`Error::DictionaryTooLarge`] past 4 GiB.
fn grow_bound(bound: usize, add: usize) -> Result<usize> {
    bound
        .checked_add(add)
        .and_then(|b| b.checked_add(MAX_HEAD))
        .filter(|&b| b <= u32::MAX as usize)
        .ok_or(Error::DictionaryTooLarge)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(strings: &[&str]) -> Dictionary {
        let mut b = DictionaryBuilder::new();
        for s in strings {
            b.intern(s).unwrap();
        }
        b.finish(&mut [])
    }

    fn entries(d: &Dictionary) -> Vec<String> {
        let mut out = Vec::new();
        d.for_each(|_, s| out.push(s.to_string()));
        out
    }

    #[test]
    fn intern_dedups() {
        let mut b = DictionaryBuilder::new();
        let a = b.intern("SFO").unwrap();
        let c = b.intern("JFK").unwrap();
        let a2 = b.intern("SFO").unwrap();
        assert_eq!(a, a2);
        assert_ne!(a, c);
        let mut codes = [a, c, a2];
        let d = b.finish(&mut codes);
        assert_eq!(d.len(), 2);
        assert_eq!(codes, [1, 0, 1], "renumbered into byte order");
        let mut buf = String::new();
        assert_eq!(d.read(codes[0], &mut buf), "SFO");
        assert_eq!(d.read(codes[1], &mut buf), "JFK");
    }

    #[test]
    fn codes_are_dense_and_ordered_by_bytes() {
        let mut b = DictionaryBuilder::new();
        let mut codes: Vec<u32> = ["c", "a", "b", "a", "c", "B"]
            .iter()
            .map(|s| b.intern(s).unwrap())
            .collect();
        let d = b.finish(&mut codes);
        assert_eq!(d.len(), 4);
        assert_eq!(
            entries(&d),
            ["B", "a", "b", "c"],
            "byte order, not case-folded"
        );
        assert_eq!(codes, [3, 1, 2, 1, 3, 0]);
    }

    #[test]
    fn rank_round_trips_and_places_the_absent() {
        let d = sorted(&["x", "y", "z"]);
        for (code, s) in ["x", "y", "z"].iter().enumerate() {
            assert_eq!(d.rank(s), Ok(code as u32));
            assert_eq!(d.compare(code as u32, s), Ordering::Equal);
        }
        assert_eq!(d.rank("w"), Err(0));
        assert_eq!(d.rank("xa"), Err(1));
        assert_eq!(d.rank("zz"), Err(3));
        assert_eq!(Dictionary::default().rank("a"), Err(0));
    }

    #[test]
    fn tail_numbers_share_their_prefixes() {
        // Sorted N##### strings: a bucket head costs 7 bytes, every other
        // entry a header byte and the one or two digits that differ.
        let tails: Vec<String> = (0..64).map(|i| format!("N{:05}", 10_000 + i * 3)).collect();
        let refs: Vec<&str> = tails.iter().map(String::as_str).collect();
        let d = sorted(&refs);
        assert_eq!(entries(&d), tails);
        let per_entry = d.heap_bytes() as f64 / d.len() as f64;
        assert!(per_entry < 3.5, "{per_entry} B/entry");
        let mut buf = String::new();
        for (code, t) in tails.iter().enumerate() {
            assert_eq!(d.read(code as u32, &mut buf), t);
        }
    }

    #[test]
    fn long_prefixes_and_suffixes_escape() {
        // Lengths of 15 and more spill into varints; a shared run stops
        // before a character both strings begin but do not finish alike.
        let long = "p".repeat(200);
        let words = [
            format!("{long}é"),
            format!("{long}è"),
            format!("{long}{}", "s".repeat(300)),
            String::new(),
            "\0".to_string(),
        ];
        let refs: Vec<&str> = words.iter().map(String::as_str).collect();
        let d = sorted(&refs);
        let mut want: Vec<&str> = refs.clone();
        want.sort();
        assert_eq!(entries(&d), want);
        let back = Dictionary::from_front_coded(d.front_coded().to_vec(), d.len()).unwrap();
        assert_eq!(entries(&back), want);
        for s in &want {
            assert_eq!(d.rank(s), back.rank(s));
        }
    }

    #[test]
    fn subset_keeps_order_and_recodes() {
        let d = sorted(&["ab", "abc", "abd", "b"]);
        let s = d.subset(&[true, false, true, true]);
        assert_eq!(entries(&s), ["ab", "abd", "b"]);
        assert_eq!(
            s.front_coded(),
            sorted(&["ab", "abd", "b"]).front_coded(),
            "one encoding per set of strings"
        );
    }

    #[test]
    fn heap_bytes_nonzero_when_nonempty() {
        assert_eq!(Dictionary::default().heap_bytes(), 0);
        let d = sorted(&["", "hello", "wörld"]);
        // "" is a head (1 byte), "hello" shares nothing (1 + 5), "wörld"
        // shares nothing (1 + 6); one bucket.
        assert_eq!(d.heap_bytes(), 1 + 6 + 7 + 4);
    }

    #[test]
    fn malformed_entries_are_refused() {
        let fault = |bytes: &[u8], entries: usize| {
            Dictionary::from_front_coded(bytes.to_vec(), entries)
                .unwrap_err()
                .to_string()
        };
        assert!(fault(&[0x01, b'a', 0x01, b'a'], 2).contains("entry 1: not ascending"));
        assert!(fault(&[0x01, b'b', 0x01, b'a'], 2).contains("not ascending"));
        assert!(fault(&[0x01, b'a', 0x21, b'b'], 2).contains("exceeds the previous 1"));
        let e = [0x02, 0xC3, 0xA9, 0x11, b'b'];
        assert!(fault(&e, 2).contains("mid-character"));
        assert!(fault(&[0x02, b'a', b'b', 0x02, b'a', b'c'], 2).contains("not the longest"));
        assert!(fault(&[0x03, b'a'], 1).contains("truncated"));
        assert!(fault(&[0x0F, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F], 1).contains("overflows"));
        assert!(fault(&[0x0F, 0x80, 0x00], 1).contains("non-canonical"));
        assert!(fault(&[0x11, b'a'], 1).contains("opens a bucket"));
        assert!(fault(&[0x01, 0xFF], 1).contains("UTF-8"));
        assert!(fault(&[0x00, 0x00], 1).contains("1 bytes follow"));
        assert!(fault(&[0x00], 2).contains("2 entries exceed its 1 bytes"));
        let d = Dictionary::from_front_coded(vec![0x00, 0x01, b'a'], 2).unwrap();
        assert_eq!(entries(&d), ["", "a"]);
    }

    #[test]
    fn arena_past_four_gib_is_an_error() {
        // The bound is faked: nobody allocates 4 GiB in a test.
        let limit = u32::MAX as usize;
        assert_eq!(grow_bound(limit - 6 - MAX_HEAD, 6), Ok(limit));
        assert_eq!(
            grow_bound(limit - 6 - MAX_HEAD, 7),
            Err(Error::DictionaryTooLarge)
        );
        assert_eq!(
            grow_bound(limit, usize::MAX),
            Err(Error::DictionaryTooLarge)
        );
        assert_eq!(grow_bound(0, limit), Err(Error::DictionaryTooLarge));
    }

    #[test]
    fn index_survives_growth_and_neighbouring_strings() {
        // Enough strings to double the index several times; prefixes, the
        // empty string and multi-byte characters sit next to each other in
        // the arena and must not bleed into one another.
        let words: Vec<String> = (0..5000)
            .map(|i| match i % 4 {
                0 => format!("N{i}"),
                1 => format!("N{i}x"),
                2 => format!("é{i}"),
                _ => format!("{i}"),
            })
            .chain([String::new()])
            .collect();
        let mut b = DictionaryBuilder::with_capacity(3);
        for (i, w) in words.iter().enumerate() {
            assert_eq!(b.intern(w).unwrap(), i as u32, "first sight of {w:?}");
        }
        for (i, w) in words.iter().enumerate().rev() {
            assert_eq!(b.intern(w).unwrap(), i as u32, "second sight of {w:?}");
        }
        let mut codes: Vec<u32> = (0..words.len() as u32).collect();
        let d = b.finish(&mut codes);
        assert_eq!(d.len(), words.len());
        let mut buf = String::new();
        for (w, &code) in words.iter().zip(&codes) {
            assert_eq!(d.read(code, &mut buf), w);
            assert_eq!(d.rank(w), Ok(code));
        }
    }
}
