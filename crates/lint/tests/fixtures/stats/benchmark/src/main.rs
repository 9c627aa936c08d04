//! The standalone package the rules skip and the ledger counts.

fn main() {
    println!("{}", beta::first(b"x"));
}
