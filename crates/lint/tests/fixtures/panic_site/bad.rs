// Fixture (virtual path crates/core/src/…): panicking calls in non-test
// engine code must fire, one finding per site.
fn first(x: Option<u32>) -> u32 {
    x.unwrap()
}

fn second(x: Option<u32>) -> u32 {
    x.expect("present")
}

fn third() -> u32 {
    unreachable!("fixture")
}
