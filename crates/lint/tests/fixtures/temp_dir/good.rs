// Fixture: scratch space comes from the shared helper, which names the
// directory uniquely and removes it on drop. Mentions of temp_dir() in a
// comment or a string are not calls.
#[test]
fn writes_a_file() {
    let dir = hillview_columnar::TempDir::new("fixture");
    std::fs::write(dir.join("any-name.bin"), b"std::env::temp_dir()").unwrap();
}
