//! Property-based agreement between the blocked GEMM subsystem and the
//! naive triple loop.
//!
//! Every arm (runtime-dispatched AVX-512/AVX2, forced scalar, pre-packed
//! `B`) computes the same re-associated sum, so all must agree with the
//! naive reference to 1e-12 for every shape — including `m`/`n`/`k` of 0
//! and 1, row counts that are not a multiple of any register-tile height,
//! column counts straddling the 16/8/4-wide vector tails, and `k` values
//! crossing the `GEMM_KC` cache-block boundary (where the kernel starts
//! reloading partial sums from `C`).

use bpmf_linalg::{gemm_into, gemm_into_scalar, gemm_packed_into, PackedB};
use proptest::prelude::*;

/// Random `(m, n, k, a, b)` with shapes biased toward tile remainders.
fn gemm_case() -> impl Strategy<Value = (usize, usize, usize, Vec<f64>, Vec<f64>)> {
    (0usize..=13, 0usize..=40, 0usize..=9).prop_flat_map(|(m, n, k)| {
        (
            Just(m),
            Just(n),
            Just(k),
            proptest::collection::vec(-2.0f64..2.0, m * k),
            proptest::collection::vec(-2.0f64..2.0, k * n),
        )
    })
}

fn naive(m: usize, n: usize, k: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut c = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for l in 0..k {
                s += a[i * k + l] * b[l * n + j];
            }
            c[i * n + j] = s;
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn all_arms_match_the_naive_triple_loop((m, n, k, a, b) in gemm_case()) {
        let want = naive(m, n, k, &a, &b);
        let mut dispatched = vec![f64::NAN; m * n];
        gemm_into(m, n, k, &a, &b, &mut dispatched);
        let mut scalar = vec![f64::NAN; m * n];
        gemm_into_scalar(m, n, k, &a, &b, &mut scalar);
        let packed = PackedB::pack(k, n, &b);
        let mut via_packed = vec![f64::NAN; m * n];
        gemm_packed_into(m, &a, packed.columns(0, n), &mut via_packed);
        for (idx, &w) in want.iter().enumerate() {
            prop_assert!(
                (dispatched[idx] - w).abs() < 1e-12,
                "dispatched m={m} n={n} k={k} idx={idx}: {} vs {w}", dispatched[idx]
            );
            prop_assert!(
                (scalar[idx] - w).abs() < 1e-12,
                "scalar m={m} n={n} k={k} idx={idx}: {} vs {w}", scalar[idx]
            );
            prop_assert!(
                (via_packed[idx] - w).abs() < 1e-12,
                "packed m={m} n={n} k={k} idx={idx}: {} vs {w}", via_packed[idx]
            );
        }
    }
}

/// `k` crossing the `GEMM_KC = 256` boundary exercises the reload-from-C
/// accumulation path in every arm; too slow for many proptest cases, so
/// one deterministic shape pins it.
#[test]
fn kc_boundary_reload_path_matches_naive() {
    let (m, n, k) = (7, 21, 300);
    let a: Vec<f64> = (0..m * k).map(|i| ((i as f64) * 0.37).sin()).collect();
    let b: Vec<f64> = (0..k * n).map(|i| ((i as f64) * 0.23).cos()).collect();
    let want = naive(m, n, k, &a, &b);
    let mut dispatched = vec![f64::NAN; m * n];
    gemm_into(m, n, k, &a, &b, &mut dispatched);
    let mut scalar = vec![f64::NAN; m * n];
    gemm_into_scalar(m, n, k, &a, &b, &mut scalar);
    let packed = PackedB::pack(k, n, &b);
    let mut via_packed = vec![f64::NAN; m * n];
    gemm_packed_into(m, &a, packed.columns(0, n), &mut via_packed);
    for (idx, &w) in want.iter().enumerate() {
        // k = 300 sums of O(1) terms: 1e-12 absolute still holds easily.
        assert!((dispatched[idx] - w).abs() < 1e-12, "dispatched idx={idx}");
        assert!((scalar[idx] - w).abs() < 1e-12, "scalar idx={idx}");
        assert!((via_packed[idx] - w).abs() < 1e-12, "packed idx={idx}");
    }
}
