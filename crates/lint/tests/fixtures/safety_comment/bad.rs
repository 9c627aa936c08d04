// Fixture: an `unsafe` block with no justification comment must fire.
fn read(p: *const u8) -> u8 {
    unsafe { *p }
}
