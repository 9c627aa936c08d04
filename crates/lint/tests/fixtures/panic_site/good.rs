// Fixture: marked sites and test code are exempt.
fn marked(x: Option<u32>) -> u32 {
    // lint: allow(panic, fixture demonstrating a justified site)
    x.expect("fixture")
}

fn trailing(x: Option<u32>) -> u32 {
    x.unwrap() // lint: allow(panic, trailing marker form)
}

fn structured(x: Option<u32>) -> Result<u32, String> {
    x.ok_or_else(|| "missing".to_string())
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit_tests_may_unwrap() {
        assert_eq!(Some(1u32).unwrap(), 1);
    }
}
