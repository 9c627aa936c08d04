//! The tools of the `wire_totality` suite: round-trip and canonical-form
//! assertions, the seeded mutation loop, and an allocator that reports how
//! much a decode asked for.

use bytes::Bytes;
use hillview_net::{Wire, WireWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;

/// Mutants per frame.
const ROUNDS: usize = 700;

/// How many mutants a decoder refused and how many it took.
#[derive(Debug, Default)]
pub struct Tally {
    pub rejected: u32,
    pub accepted: u32,
}

/// SplitMix64: the mutants are a pure function of the seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: usize) -> usize {
    (splitmix(state) % n.max(1) as u64) as usize
}

pub fn varint(v: u64) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_varint(v);
    w.finish().to_vec()
}

/// `values` patched at any floor and width, honest or not, a bit at a
/// time: `varint(base)`, `width`, the slots `min(v − base, 2^width − 1)`
/// least significant bit first, then an escape varint per full slot.
pub fn patched(values: &[u64], base: u64, width: u32) -> Vec<u8> {
    let full = (1u64 << width) - 1;
    let mut bits = vec![0u8; (values.len() * width as usize).div_ceil(8)];
    let mut escapes = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        let offset = v - base;
        for b in 0..width as usize {
            let at = i * width as usize + b;
            bits[at / 8] |= ((offset.min(full) >> b & 1) as u8) << (at % 8);
        }
        if offset >= full {
            escapes.extend(varint(offset - full));
        }
    }
    [varint(base), vec![width as u8], bits, escapes].concat()
}

/// The sparse spelling of a count vector from whatever parts: the marker
/// `00 00`, `m` non-empty cells, their gaps and their counts less one,
/// each already patched.
pub fn sparse(m: u64, gaps: &[u8], less_one: &[u8]) -> Vec<u8> {
    [&[0, 0][..], &varint(m), gaps, less_one].concat()
}

/// The token of a maximal run of `k ≥ 2` zeros in a count vector:
/// `varint(k − 2)`, padded.
pub fn zero_run(k: u64) -> Vec<u8> {
    let mut token = varint(k - 2);
    *token.last_mut().expect("a varint has a byte") |= 0x80;
    token.push(0);
    token
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `s` survives the wire as itself and as its bytes; returns the bytes.
pub fn roundtrip<S: Wire + PartialEq + Debug>(s: &S) -> Vec<u8> {
    let bytes = s.to_bytes();
    let back = S::from_bytes(bytes.clone()).unwrap_or_else(|e| panic!("{s:?} refused: {e}"));
    assert_eq!(&back, s);
    assert_eq!(back.to_bytes(), bytes, "{s:?} re-encodes differently");
    // Equality may be coarser than representation (`0.0 == -0.0`): the
    // decoded value must also *print* as the original.
    assert_eq!(format!("{back:?}"), format!("{s:?}"));
    bytes.to_vec()
}

/// The decoder's verdict on arbitrary bytes: an error, or a value whose
/// encoding is exactly those bytes — never a panic.
pub fn verdict<S: Wire>(label: &str, mutant: &[u8], tally: &mut Tally) {
    match S::from_bytes(Bytes::from(mutant.to_vec())) {
        Err(_) => tally.rejected += 1,
        Ok(decoded) => {
            tally.accepted += 1;
            assert_eq!(
                hex(&decoded.to_bytes()),
                hex(mutant),
                "{label}: accepted a frame that is not its value's encoding"
            );
        }
    }
}

/// A frame that must be refused.
pub fn refused<S: Wire>(label: &str, frame: &[u8]) {
    let mut tally = Tally::default();
    verdict::<S>(label, frame, &mut tally);
    assert_eq!(tally.accepted, 0, "{label}: accepted {}", hex(frame));
}

/// One mutant of `frame`: the damage a transport does (bits, truncation)
/// and the lies a decoder might trust (lengths, runs, share counts).
fn mutate(frame: &[u8], round: usize, state: &mut u64) -> Vec<u8> {
    let mut m = frame.to_vec();
    let at = below(state, m.len());
    match round % 9 {
        // A flipped bit, or two.
        0 | 1 => {
            for _ in 0..=round % 2 {
                let bit = below(state, m.len() * 8);
                m[bit / 8] ^= 1 << (bit % 8);
            }
        }
        // Cut short.
        2 => m.truncate(at),
        // Whatever sits at `at` overwritten with u64::MAX: a count at the
        // top of its range, a length no frame can back.
        3 => drop(m.splice(at..at + 1, varint(u64::MAX))),
        // The varint at `at`, if it is one, inflated.
        4 => {
            let mut r = hillview_net::WireReader::new(Bytes::from(m[at..].to_vec()));
            if let Ok(v) = r.get_varint() {
                let len = m.len() - at - r.remaining();
                let grown = v.saturating_add(1 + splitmix(state) % 300);
                m.splice(at..at + len, varint(grown));
            }
        }
        // A zero run spliced in: one that ends inside the vector, and one
        // that runs past any vector a frame may hold.
        5 => {
            let run = [3, 1 << 12, 1 << 22, 1 << 28, u64::MAX][below(state, 5)];
            m.splice(at..at, zero_run(run));
        }
        // A lone zero or a run of two before `at`: beside another zero or
        // run it makes two adjacent runs, elsewhere a cell or two too many.
        6 => drop(m.splice(at..at, [vec![0], zero_run(2)][round % 2].clone())),
        // A byte nudged: a share count one short or one over, a length or
        // a tag off by one.
        7 => m[at] = m[at].wrapping_add([1, 0xFF][round % 2]),
        // A stretch of the frame repeated where it stood.
        _ => {
            let len = 1 + below(state, 12.min(m.len() - at));
            let again = m[at..at + len].to_vec();
            m.splice(at..at, again);
        }
    }
    m
}

/// Put [`ROUNDS`] seeded mutants of each frame to `S`'s decoder.
pub fn mutation_loop<S: Wire>(label: &str, frames: &[Vec<u8>], tally: &mut Tally) {
    // The seed is the label's, so one sketch's frames do not reshuffle
    // another's mutants.
    let mut state = label.bytes().fold(0x7074_A117, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
    });
    for (which, frame) in frames.iter().enumerate() {
        for round in 0..ROUNDS {
            let m = mutate(frame, round, &mut state);
            verdict::<S>(&format!("{label} frame {which} round {round}"), &m, tally);
        }
    }
}

/// The whole battery for one sketch: every summary round-trips, then the
/// mutation loop over their frames must reach both sides of the parser.
pub fn total_and_canonical<S: Wire + PartialEq + Debug>(label: &str, summaries: &[S]) {
    let frames: Vec<Vec<u8>> = summaries.iter().map(roundtrip).collect();
    let mut tally = Tally::default();
    mutation_loop::<S>(label, &frames, &mut tally);
    eprintln!("{label}: {tally:?}");
    assert!(
        tally.rejected >= 100 && tally.accepted >= 100,
        "{label}: {tally:?}"
    );
}

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, adding up what each thread asks it for.
pub struct TallyingAllocator;

// SAFETY: every request goes to `System` unchanged; the thread-local is a
// `const`-initialised `Cell<usize>` with no destructor, so touching it
// neither allocates nor outlives its thread (`try_with`).
unsafe impl GlobalAlloc for TallyingAllocator {
    // SAFETY: the caller's contract is `System.alloc`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get().saturating_add(layout.size())));
        System.alloc(layout)
    }
    // SAFETY: `ptr` came from `System.alloc` with this layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: TallyingAllocator = TallyingAllocator;

/// A frame that claims far more than it holds: refused, having allocated —
/// in all, on this thread — no more than `allowance` bytes.
pub fn bomb<S: Wire>(label: &str, frame: &[u8], allowance: usize) {
    let frame = Bytes::from(frame.to_vec());
    ALLOCATED.with(|a| a.set(0));
    let verdict = S::from_bytes(frame);
    let allocated = ALLOCATED.with(Cell::get);
    assert!(verdict.is_err(), "{label}: accepted");
    assert!(
        allocated <= allowance,
        "{label}: allocated {allocated} bytes"
    );
}
