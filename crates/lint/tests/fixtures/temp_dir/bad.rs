// Fixture: hand-rolled scratch paths must fire — a fixed name collides
// across parallel tests, and nothing removes it.
#[test]
fn writes_a_file() {
    let path = std::env::temp_dir().join("fixed-name.bin");
    std::fs::write(&path, b"x").unwrap();
}
