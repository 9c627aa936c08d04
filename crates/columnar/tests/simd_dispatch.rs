//! The default build is the vectorised build: with no cargo feature in the
//! way, the dispatcher picks a vector tier whenever the CPU has one.
//!
//! This lives in an integration-test binary of its own because
//! [`simd::set_force_scalar`] is process-global: a sibling equivalence
//! test pinning the scalar tier on another thread would race the first
//! assertion.

use hillview_columnar::simd;

#[test]
fn default_build_dispatches_to_the_vector_tier_the_cpu_has() {
    // Miri interprets the scalar bodies only (see `detected_tier`).
    #[cfg(target_arch = "x86_64")]
    let vector = std::arch::is_x86_feature_detected!("avx2") && !cfg!(miri);
    #[cfg(not(target_arch = "x86_64"))]
    let vector = false;
    assert_eq!(simd::active(), vector);
    simd::set_force_scalar(true);
    assert!(!simd::active(), "pinned scalar, still dispatching vector");
    simd::set_force_scalar(false);
    assert_eq!(simd::active(), vector);
}
