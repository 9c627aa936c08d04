//! The one micro-bench target: `cargo bench --bench micro -- [suite …]`
//! runs the named suites (all of them without an argument) and rewrites
//! each one's `BENCH_<suite>.json` at the repository root. How a suite is
//! written and what the files hold is in the `hillview_bench` crate docs.

mod cache;
mod data;
mod decode;
mod encoding;
mod filter;
mod fused;
mod ooc;
mod scan;
mod wire;

use hillview_bench::harness::{self, Registered};

/// Every suite, in the order a run without arguments takes them.
pub const SUITES: &[Registered] = &[
    scan::SUITE,
    encoding::SUITE,
    filter::SUITE,
    fused::SUITE,
    cache::SUITE,
    ooc::SUITE,
    decode::SUITE,
    wire::SUITE,
];

fn main() {
    harness::main(SUITES);
}
