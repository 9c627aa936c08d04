//! A crate with one public item of each counted kind and some that are not.

pub mod inner {
    pub(crate) fn hidden() {}
}

/// Counted: a struct; its field is not.
pub struct Point {
    pub x: i64,
}

pub use inner as reexported;

pub fn double(p: &Point) -> i64 {
    // A comment line is neither code nor test.
    p.x * 2
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn helper() -> Point {
        Point { x: 2 }
    }

    #[test]
    fn doubles() {
        assert_eq!(double(&helper()), 4);
    }
}
