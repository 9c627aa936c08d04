//! Everything under `tests/` is test code.

#[test]
fn integration() {
    assert_eq!(alpha::double(&alpha::Point { x: 1 }), 2);
}
