// Fixture (virtual path crates/alpha/src/lib.rs): public functions no file
// outside the package's own `src/` names must fire, four times.

/// Called only from this package's own code.
pub fn only_here() -> u32 {
    only_here_helper()
}

fn only_here_helper() -> u32 {
    only_here() + in_comment() + in_string() + empty_reason()
}

/// Another package mentions it only in a comment.
pub fn in_comment() -> u32 {
    1
}

/// Another package mentions it only in a string literal.
pub const fn in_string() -> u32 {
    2
}

/// A marker without a reason clears nothing.
// lint: allow(pub-unused, )
pub fn empty_reason() -> u32 {
    3
}
