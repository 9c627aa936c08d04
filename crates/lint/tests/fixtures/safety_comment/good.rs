/// Reads one byte.
///
/// # Safety
///
/// `p` must be valid for reads — the doc section alone satisfies the rule
/// for an `unsafe fn`.
unsafe fn read_raw(p: *const u8) -> u8 {
    // SAFETY: validity of `p` is the documented caller contract.
    unsafe { *p }
}

fn read(p: *const u8) -> u8 {
    // SAFETY: caller guarantees `p` is valid for reads; attributes between
    // the comment and the item are allowed.
    #[allow(clippy::let_and_return)]
    let v = unsafe { *p };
    v
}
