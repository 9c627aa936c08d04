//! Dictionary encoding for string and categorical columns.
//!
//! Paper §6: "String columns use dictionary encoding for compression." A
//! column stores `u32` codes; the dictionary maps codes to strings.
//! Dictionaries are immutable once built (tables are snapshots), so lookups
//! by code are two array reads.
//!
//! **Representation.** A [`Dictionary`] is one UTF-8 arena holding every
//! string back to back, plus `len + 1` `u32` offsets into it: string `c` is
//! `arena[offsets[c]..offsets[c + 1]]`. Two allocations per dictionary,
//! whatever its size, and 4 bytes of bookkeeping per string. The obvious
//! alternative, a vector of reference-counted strings (which is what
//! [`crate::Value::Str`] holds), costs a 16-byte fat pointer, a 16-byte
//! reference-count header and a malloc slot for every string — five times
//! the payload of a six-character tail number — and makes opening a file a
//! heap allocation per entry. The 4 GiB an offset can address is a hard
//! limit: passing it is [`Error::DictionaryTooLarge`], never a wrapped
//! offset.
//!
//! **Who pays, and when.** A dictionary built in memory
//! ([`DictionaryBuilder::finish`]) holds its strings from the start. One
//! that describes bytes elsewhere — a section of a mapped file — is made
//! [`Dictionary::deferred`]: it knows how many strings it has, which is all
//! that opening a file, planning over it and scanning its codes ask, and
//! fetches them through its loader when [`Dictionary::get`],
//! [`Dictionary::iter`] or [`Dictionary::code_of`] is first called. That
//! first reader pays the whole parse; the readers racing it wait on the same
//! [`OnceLock`] and none parses twice; every later one pays a load and a
//! branch. [`Dictionary::heap_bytes`] says 0 before and the exact footprint
//! after, so a table's heap side follows the string columns that have been
//! presented, not the ones it has.
//!
//! **Who builds a `Value::Str`.** Strings inside a column are `&str` slices
//! of the arena: kernels, predicates and the file codec read them in place.
//! A reference-counted [`crate::Value::Str`] is built only where a value
//! *leaves* its column — [`crate::Column::value`] (display rows, sort keys
//! that enter a summary) and the handful of strings a summary keeps (heavy
//! hitters, bottom-k) — so that is where the allocation is paid, once per
//! kept value rather than once per dictionary entry.

use crate::error::{Error, Result};
use std::hash::{BuildHasher, RandomState};
use std::sync::{Arc, OnceLock};

/// The strings of a dictionary, laid out as the module doc describes.
#[derive(Debug, Clone)]
struct Strings {
    /// Every string, concatenated in code order.
    arena: Box<str>,
    /// `len + 1` ascending byte offsets into `arena`, starting at 0.
    offsets: Box<[u32]>,
}

/// Fetches a deferred dictionary's strings; see [`Dictionary::deferred`].
type Loader = Arc<dyn Fn() -> Dictionary + Send + Sync>;

/// An immutable, deduplicated code → string mapping.
#[derive(Clone)]
pub struct Dictionary {
    /// Number of distinct strings: known before any of them is.
    len: usize,
    /// Set at construction, or by the first reader of a deferred dictionary.
    strings: OnceLock<Strings>,
    loader: Option<Loader>,
}

impl Default for Dictionary {
    fn default() -> Self {
        Dictionary::loaded(Box::default(), Box::new([0]))
    }
}

impl std::fmt::Debug for Dictionary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dictionary")
            .field("len", &self.len)
            .field("strings", &self.strings.get())
            .finish()
    }
}

impl Dictionary {
    fn loaded(arena: Box<str>, offsets: Box<[u32]>) -> Dictionary {
        Dictionary {
            len: offsets.len() - 1,
            strings: OnceLock::from(Strings { arena, offsets }),
            loader: None,
        }
    }

    /// A dictionary of `len` strings that `load` fetches when one is first
    /// asked for: [`Dictionary::len`] answers at once, and the first
    /// [`Dictionary::get`], [`Dictionary::iter`] or [`Dictionary::code_of`]
    /// runs `load` — once, whichever thread gets there first; the others
    /// wait for it and read the same strings. `load` must return `len`
    /// strings. It may panic instead; the reader that ran it unwinds, nothing
    /// is kept, and the next reader runs it again.
    pub fn deferred(len: usize, load: impl Fn() -> Dictionary + Send + Sync + 'static) -> Self {
        Dictionary {
            len,
            strings: OnceLock::new(),
            loader: Some(Arc::new(load)),
        }
    }

    #[inline]
    fn strings(&self) -> &Strings {
        match self.strings.get() {
            Some(strings) => strings,
            None => self.load(),
        }
    }

    #[cold]
    fn load(&self) -> &Strings {
        self.strings.get_or_init(|| {
            let load = self
                .loader
                .as_ref()
                .expect("built with strings or a loader");
            let loaded = load();
            assert_eq!(
                loaded.len, self.len,
                "a deferred dictionary's loader returned another count of strings"
            );
            // Moved, not copied — once a loader that itself defers has run.
            loaded.strings();
            loaded.strings.into_inner().expect("just read")
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

    /// The string for `code`. Panics on unknown codes (column invariant).
    #[inline]
    pub fn get(&self, code: u32) -> &str {
        let Strings { arena, offsets } = self.strings();
        let c = code as usize;
        &arena[offsets[c] as usize..offsets[c + 1] as usize]
    }

    /// Find the code of `s` by linear scan over the arena. This is how
    /// `Predicate::Equals` on a string column compiles — once per query
    /// per partition, O(dictionary bytes), no index kept resident for it.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.iter().position(|x| x == s).map(|i| i as u32)
    }

    /// Iterate all strings in code order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        let Strings { arena, offsets } = self.strings();
        offsets
            .windows(2)
            .map(move |w| &arena[w[0] as usize..w[1] as usize])
    }

    /// Exact heap footprint in bytes: the arena plus its offsets, both
    /// allocated to length — and nothing while a deferred dictionary's
    /// strings have not been asked for.
    pub fn heap_bytes(&self) -> usize {
        self.strings
            .get()
            .map_or(0, |s| s.arena.len() + std::mem::size_of_val(&*s.offsets))
    }
}

/// Marks a free slot of the builder's index. No code can collide with it:
/// a dictionary's strings are distinct, so `u32::MAX` of them would need
/// far more than the 4 GiB an arena may hold.
const FREE: u64 = u64::MAX;

/// Incrementally interns strings while building a dictionary-encoded column.
///
/// Strings are appended to the arena as they are first seen; the index that
/// finds repeats holds *codes*, not keys — an open-addressed table of
/// `hash fragment << 32 | code` words whose candidates are compared against
/// the arena slice the code names — so interning allocates nothing per
/// string.
#[derive(Debug)]
pub struct DictionaryBuilder {
    arena: String,
    offsets: Vec<u32>,
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
            slots: vec![FREE; (strings * 2).next_power_of_two().max(16)],
            hasher: RandomState::new(),
        }
    }

    /// Intern `s`, returning its (possibly new) code. Fails — leaving the
    /// builder as it was — only when `s` would push the arena past the
    /// 4 GiB its offsets can address.
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
                let (from, to) = (self.offsets[code] as usize, self.offsets[code + 1] as usize);
                if to - from == s.len() && self.arena.as_bytes()[from..to] == *s.as_bytes() {
                    return Ok(word as u32);
                }
            }
            at = (at + 1) & mask;
        }
        let end = arena_end(self.arena.len(), s.len())?;
        let code = self.len() as u32;
        self.arena.push_str(s);
        self.offsets.push(end);
        self.slots[at] = fragment | code as u64;
        Ok(code)
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
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish building; drops the intern index and trims both allocations
    /// to length.
    pub fn finish(self) -> Dictionary {
        Dictionary::loaded(self.arena.into_boxed_str(), self.offsets.into_boxed_slice())
    }
}

/// The offset one past a string of `add` bytes appended to an arena of
/// `arena_len` bytes.
fn arena_end(arena_len: usize, add: usize) -> Result<u32> {
    arena_len
        .checked_add(add)
        .and_then(|end| u32::try_from(end).ok())
        .ok_or(Error::DictionaryTooLarge)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups() {
        let mut b = DictionaryBuilder::new();
        let a = b.intern("SFO").unwrap();
        let c = b.intern("JFK").unwrap();
        let a2 = b.intern("SFO").unwrap();
        assert_eq!(a, a2);
        assert_ne!(a, c);
        let d = b.finish();
        assert_eq!(d.len(), 2);
        assert_eq!(d.get(a), "SFO");
        assert_eq!(d.get(c), "JFK");
    }

    #[test]
    fn codes_are_dense_and_ordered_by_first_appearance() {
        let mut b = DictionaryBuilder::new();
        for s in ["c", "a", "b", "a", "c"] {
            b.intern(s).unwrap();
        }
        let d = b.finish();
        assert_eq!(d.len(), 3);
        assert_eq!(d.iter().collect::<Vec<_>>(), ["c", "a", "b"]);
    }

    #[test]
    fn code_of_round_trips() {
        let mut b = DictionaryBuilder::new();
        for s in ["x", "y", "z"] {
            b.intern(s).unwrap();
        }
        let d = b.finish();
        for s in ["x", "y", "z"] {
            let c = d.code_of(s).unwrap();
            assert_eq!(d.get(c), s);
        }
        assert_eq!(d.code_of("w"), None);
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
        let d = b.finish();
        assert_eq!(d.len(), words.len());
        assert!(d.iter().eq(words.iter().map(String::as_str)));
    }

    #[test]
    fn heap_bytes_nonzero_when_nonempty() {
        // Exact, in fact: the arena's bytes plus `len + 1` offsets.
        assert_eq!(Dictionary::default().heap_bytes(), 4);
        let mut b = DictionaryBuilder::new();
        for s in ["hello", "", "wörld"] {
            b.intern(s).unwrap();
        }
        let d = b.finish();
        assert_eq!(d.heap_bytes(), (5 + 6) + 4 * (3 + 1));
    }

    #[test]
    fn arena_past_four_gib_is_an_error() {
        // The arena's length is faked: nobody allocates 4 GiB in a test.
        let limit = u32::MAX as usize;
        assert_eq!(arena_end(limit - 6, 6), Ok(u32::MAX));
        assert_eq!(arena_end(limit - 6, 7), Err(Error::DictionaryTooLarge));
        assert_eq!(arena_end(limit, usize::MAX), Err(Error::DictionaryTooLarge));
        assert_eq!(arena_end(0, limit + 1), Err(Error::DictionaryTooLarge));
    }
}
