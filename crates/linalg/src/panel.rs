//! Blocked panel kernels for the item-update hot path.
//!
//! The Gibbs item update builds `Λ* = Λ + α Σ_j v_j v_jᵀ` and
//! `b = Λμ + α Σ_j (r_j − m) v_j` from the counterpart rows `v_j` of an
//! item's ratings. Folding ratings in one at a time (d rank-1 `syrk_lower`
//! calls + d `axpy` calls) touches the whole `K × K` accumulator once per
//! rating and gives the CPU a single dependent accumulation chain per
//! element. The D-BPMF implementation (Vander Aa et al.) instead gathers the
//! counterpart rows into a contiguous row-major `d × K` *panel* and performs
//! one rank-d update — BLAS-3 shape, so the panel is streamed once per
//! output tile and the accumulator element is computed with independent FMA
//! chains held in registers.
//!
//! Two kernels live here:
//!
//! * [`syrk_ld_lower`] — `C[lower] += α · PᵀP` for a row-major `d × K`
//!   panel `P`: 2×2 register tiles over the output, two independent FMA
//!   chains down the panel, cache-blocked over `d` so the streamed panel
//!   block stays L1/L2-resident across output tiles.
//! * [`gemv_t_acc`] — `y += Pᵀ w`: the information-vector accumulation,
//!   processing four panel rows per pass so each output element gets four
//!   independent products per iteration.
//!
//! Both kernels are exact re-associations of the per-rating loop; the
//! property tests in `tests/panel_properties.rs` pin them to the naive
//! reference within 1e-12 across shapes (including `d = 0, 1` and sizes
//! that are not multiples of any block).
//!
//! Both dispatch through the shared [`crate::simd`] layer: on AVX2+FMA
//! hardware an explicit 4-lane kernel takes over (two output rows share
//! every loaded panel vector in `syrk`, eight broadcast rows fold into the
//! information vector at once in `gemv`), and `BPMF_NO_SIMD=1` — or any
//! non-x86_64 target — pins the portable arms
//! ([`syrk_ld_lower_scalar`]/[`gemv_t_acc_scalar`], also the references
//! the property tests compare against).

use crate::mat::Mat;
use crate::simd;
use crate::vecops;

/// Row count of one cache block of the panel. `PANEL_BLOCK · K` doubles are
/// streamed per output tile pass; at `K = 128` a 64-row block is 64 KiB —
/// L2-resident, and re-read once per 2-column output tile.
pub const PANEL_BLOCK: usize = 64;

/// Symmetric rank-`d` accumulation on the **lower** triangle from a
/// row-major panel: `c[lower] += alpha * panelᵀ · panel`.
///
/// `panel` holds `d = panel.len() / k` rows of length `k`, where `k` must
/// equal the order of `c`. Only the lower triangle of `c` is written (the
/// Cholesky kernels read only the lower triangle). `d = 0` is a no-op.
///
/// Panics if `c` is not square, `k` does not match its order, or
/// `panel.len()` is not a multiple of `k`.
pub fn syrk_ld_lower(c: &mut Mat, alpha: f64, panel: &[f64], k: usize) {
    if !syrk_check(c, panel, k) {
        return;
    }
    if simd::simd_enabled() {
        #[cfg(target_arch = "x86_64")]
        {
            // Cache-block over the panel rows: every output tile re-reads
            // the current block, so keep it small enough to stay resident.
            for block in panel.chunks(PANEL_BLOCK * k) {
                // SAFETY: `simd_enabled` guarantees AVX2+FMA; shapes were
                // validated by `syrk_check`.
                unsafe { syrk_block_avx2(c, alpha, block, k) };
            }
            return;
        }
    }
    for block in panel.chunks(PANEL_BLOCK * k) {
        syrk_block(c, alpha, block, k);
    }
}

/// [`syrk_ld_lower`] pinned to the portable scalar arm — the reference the
/// property tests and the `perf_snapshot` SIMD-ratio section run against.
pub fn syrk_ld_lower_scalar(c: &mut Mat, alpha: f64, panel: &[f64], k: usize) {
    if !syrk_check(c, panel, k) {
        return;
    }
    for block in panel.chunks(PANEL_BLOCK * k) {
        syrk_block(c, alpha, block, k);
    }
}

/// Shared shape validation; returns false for the `k = 0` no-op.
fn syrk_check(c: &Mat, panel: &[f64], k: usize) -> bool {
    let n = c.rows();
    assert_eq!(n, c.cols(), "syrk_ld_lower requires a square matrix");
    assert_eq!(n, k, "syrk_ld_lower panel width must match matrix order");
    if k == 0 {
        return false;
    }
    assert_eq!(
        panel.len() % k,
        0,
        "syrk_ld_lower panel length must be a multiple of k"
    );
    true
}

/// One cache block of the rank-d update: 2×2 register tiles over the lower
/// triangle of `c`, two independent accumulation chains down the block.
fn syrk_block(c: &mut Mat, alpha: f64, p: &[f64], k: usize) {
    let k_even = k & !1;
    let mut i = 0;
    while i < k_even {
        let mut j = 0;
        while j <= i {
            // Tile rows {i, i+1} × cols {j, j+1}. Two chains (even/odd
            // panel rows) per element keep eight FMAs in flight.
            let (mut a00, mut a01, mut a10, mut a11) = (0.0f64, 0.0, 0.0, 0.0);
            let (mut b00, mut b01, mut b10, mut b11) = (0.0f64, 0.0, 0.0, 0.0);
            let mut rows = p.chunks_exact(2 * k);
            for pair in rows.by_ref() {
                let (r0, r1) = pair.split_at(k);
                let (x0, x1, y0, y1) = (r0[i], r0[i + 1], r0[j], r0[j + 1]);
                a00 += x0 * y0;
                a01 += x0 * y1;
                a10 += x1 * y0;
                a11 += x1 * y1;
                let (x0, x1, y0, y1) = (r1[i], r1[i + 1], r1[j], r1[j + 1]);
                b00 += x0 * y0;
                b01 += x0 * y1;
                b10 += x1 * y0;
                b11 += x1 * y1;
            }
            let r0 = rows.remainder();
            if !r0.is_empty() {
                let (x0, x1, y0, y1) = (r0[i], r0[i + 1], r0[j], r0[j + 1]);
                a00 += x0 * y0;
                a01 += x0 * y1;
                a10 += x1 * y0;
                a11 += x1 * y1;
            }
            c[(i, j)] += alpha * (a00 + b00);
            c[(i + 1, j)] += alpha * (a10 + b10);
            c[(i + 1, j + 1)] += alpha * (a11 + b11);
            if j < i {
                // On the diagonal tile (j == i) this element is strictly
                // upper-triangular; everywhere else it belongs to row i.
                c[(i, j + 1)] += alpha * (a01 + b01);
            }
            j += 2;
        }
        i += 2;
    }
    if k_even < k {
        // Odd k: the last row of C, computed as plain dots down the block.
        let i = k - 1;
        for j in 0..=i {
            let mut s0 = 0.0f64;
            let mut s1 = 0.0f64;
            let mut rows = p.chunks_exact(2 * k);
            for pair in rows.by_ref() {
                let (r0, r1) = pair.split_at(k);
                s0 += r0[i] * r0[j];
                s1 += r1[i] * r1[j];
            }
            let rem = rows.remainder();
            if !rem.is_empty() {
                s0 += rem[i] * rem[j];
            }
            c[(i, j)] += alpha * (s0 + s1);
        }
    }
}

/// Scalar dots `c[row][j0..=jmax] += alpha · Σ_r p[r][row]·p[r][j]` — the
/// ragged columns at the triangle edge the vector tiles cannot cover.
/// Two accumulation chains (even/odd panel rows) per element, as in
/// [`syrk_block`].
fn syrk_tail_cols(
    c: &mut Mat,
    alpha: f64,
    p: &[f64],
    k: usize,
    row: usize,
    j0: usize,
    jmax: usize,
) {
    for j in j0..=jmax {
        let mut s0 = 0.0f64;
        let mut s1 = 0.0f64;
        let mut rows = p.chunks_exact(2 * k);
        for pair in rows.by_ref() {
            let (r0, r1) = pair.split_at(k);
            s0 += r0[row] * r0[j];
            s1 += r1[row] * r1[j];
        }
        let rem = rows.remainder();
        if !rem.is_empty() {
            s0 += rem[row] * rem[j];
        }
        c[(row, j)] += alpha * (s0 + s1);
    }
}

/// AVX2+FMA arm of one cache block of the rank-d update.
///
/// Output rows are walked in pairs so every loaded 4-lane panel segment
/// feeds two rows of `C`; panel rows are consumed two at a time into
/// disjoint (even/odd) accumulator sets, keeping eight independent FMA
/// chains in flight per 2×8 tile. Columns the 8- and 4-wide tiles cannot
/// reach (the ragged triangle edge, at most seven per row pair) fall back
/// to [`syrk_tail_cols`].
///
/// # Safety
///
/// Caller must ensure AVX2+FMA support and `syrk_check`-validated shapes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn syrk_block_avx2(c: &mut Mat, alpha: f64, p: &[f64], k: usize) {
    use std::arch::x86_64::*;
    let d = p.len() / k;
    let pp = p.as_ptr();
    let av = _mm256_set1_pd(alpha);
    let k_even = k & !1;
    let mut i = 0;
    while i < k_even {
        // Rows {i, i+1} of C. Vector tiles stop at column i (row i's
        // triangle edge); the tail helper finishes both rows. The raw
        // output pointer is re-derived per pair so the `&mut Mat` reborrow
        // inside `syrk_tail_cols` never overlaps its lifetime.
        let cp = c.as_mut_slice().as_mut_ptr();
        let mut j = 0usize;
        while j + 8 <= i + 1 {
            let mut a0l = _mm256_setzero_pd();
            let mut a0h = _mm256_setzero_pd();
            let mut a1l = _mm256_setzero_pd();
            let mut a1h = _mm256_setzero_pd();
            let mut b0l = _mm256_setzero_pd();
            let mut b0h = _mm256_setzero_pd();
            let mut b1l = _mm256_setzero_pd();
            let mut b1h = _mm256_setzero_pd();
            let mut r = 0usize;
            while r + 2 <= d {
                let e = pp.add(r * k);
                let o = pp.add((r + 1) * k);
                let x0 = _mm256_set1_pd(*e.add(i));
                let x1 = _mm256_set1_pd(*e.add(i + 1));
                let pl = _mm256_loadu_pd(e.add(j));
                let ph = _mm256_loadu_pd(e.add(j + 4));
                a0l = _mm256_fmadd_pd(x0, pl, a0l);
                a0h = _mm256_fmadd_pd(x0, ph, a0h);
                a1l = _mm256_fmadd_pd(x1, pl, a1l);
                a1h = _mm256_fmadd_pd(x1, ph, a1h);
                let y0 = _mm256_set1_pd(*o.add(i));
                let y1 = _mm256_set1_pd(*o.add(i + 1));
                let ql = _mm256_loadu_pd(o.add(j));
                let qh = _mm256_loadu_pd(o.add(j + 4));
                b0l = _mm256_fmadd_pd(y0, ql, b0l);
                b0h = _mm256_fmadd_pd(y0, qh, b0h);
                b1l = _mm256_fmadd_pd(y1, ql, b1l);
                b1h = _mm256_fmadd_pd(y1, qh, b1h);
                r += 2;
            }
            if r < d {
                let e = pp.add(r * k);
                let x0 = _mm256_set1_pd(*e.add(i));
                let x1 = _mm256_set1_pd(*e.add(i + 1));
                let pl = _mm256_loadu_pd(e.add(j));
                let ph = _mm256_loadu_pd(e.add(j + 4));
                a0l = _mm256_fmadd_pd(x0, pl, a0l);
                a0h = _mm256_fmadd_pd(x0, ph, a0h);
                a1l = _mm256_fmadd_pd(x1, pl, a1l);
                a1h = _mm256_fmadd_pd(x1, ph, a1h);
            }
            let c0 = cp.add(i * k + j);
            let c1 = cp.add((i + 1) * k + j);
            _mm256_storeu_pd(
                c0,
                _mm256_fmadd_pd(av, _mm256_add_pd(a0l, b0l), _mm256_loadu_pd(c0)),
            );
            _mm256_storeu_pd(
                c0.add(4),
                _mm256_fmadd_pd(av, _mm256_add_pd(a0h, b0h), _mm256_loadu_pd(c0.add(4))),
            );
            _mm256_storeu_pd(
                c1,
                _mm256_fmadd_pd(av, _mm256_add_pd(a1l, b1l), _mm256_loadu_pd(c1)),
            );
            _mm256_storeu_pd(
                c1.add(4),
                _mm256_fmadd_pd(av, _mm256_add_pd(a1h, b1h), _mm256_loadu_pd(c1.add(4))),
            );
            j += 8;
        }
        if j + 4 <= i + 1 {
            let mut a0 = _mm256_setzero_pd();
            let mut a1 = _mm256_setzero_pd();
            let mut b0 = _mm256_setzero_pd();
            let mut b1 = _mm256_setzero_pd();
            let mut r = 0usize;
            while r + 2 <= d {
                let e = pp.add(r * k);
                let o = pp.add((r + 1) * k);
                let pl = _mm256_loadu_pd(e.add(j));
                a0 = _mm256_fmadd_pd(_mm256_set1_pd(*e.add(i)), pl, a0);
                a1 = _mm256_fmadd_pd(_mm256_set1_pd(*e.add(i + 1)), pl, a1);
                let ql = _mm256_loadu_pd(o.add(j));
                b0 = _mm256_fmadd_pd(_mm256_set1_pd(*o.add(i)), ql, b0);
                b1 = _mm256_fmadd_pd(_mm256_set1_pd(*o.add(i + 1)), ql, b1);
                r += 2;
            }
            if r < d {
                let e = pp.add(r * k);
                let pl = _mm256_loadu_pd(e.add(j));
                a0 = _mm256_fmadd_pd(_mm256_set1_pd(*e.add(i)), pl, a0);
                a1 = _mm256_fmadd_pd(_mm256_set1_pd(*e.add(i + 1)), pl, a1);
            }
            let c0 = cp.add(i * k + j);
            let c1 = cp.add((i + 1) * k + j);
            _mm256_storeu_pd(
                c0,
                _mm256_fmadd_pd(av, _mm256_add_pd(a0, b0), _mm256_loadu_pd(c0)),
            );
            _mm256_storeu_pd(
                c1,
                _mm256_fmadd_pd(av, _mm256_add_pd(a1, b1), _mm256_loadu_pd(c1)),
            );
            j += 4;
        }
        syrk_tail_cols(c, alpha, p, k, i, j, i);
        syrk_tail_cols(c, alpha, p, k, i + 1, j, i + 1);
        i += 2;
    }
    if k_even < k {
        // Odd k: the last row, ragged by construction.
        syrk_tail_cols(c, alpha, p, k, k - 1, 0, k - 1);
    }
}

/// Fused transposed panel–vector accumulation: `y += panelᵀ · w`.
///
/// `panel` is row-major with rows of length `y.len()`; `w` has one weight
/// per panel row. This is the information-vector update `b += Σ_l w_l v_l`
/// done four rows per pass, so each element of `y` receives four
/// independent products per iteration instead of one dependent `axpy`
/// chain per rating.
///
/// Panics if `panel.len() != w.len() * y.len()`.
pub fn gemv_t_acc(y: &mut [f64], panel: &[f64], w: &[f64]) {
    let k = y.len();
    assert_eq!(
        panel.len(),
        w.len() * k,
        "gemv_t_acc panel/weight shape mismatch"
    );
    if k == 0 {
        return;
    }
    if simd::simd_enabled() {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `simd_enabled` guarantees AVX2+FMA; shapes were
            // validated above.
            unsafe { gemv_t_acc_avx2(y, panel, w) };
            return;
        }
    }
    gemv_t_scalar(y, panel, w);
}

/// [`gemv_t_acc`] pinned to the portable scalar arm — the reference the
/// property tests and the `perf_snapshot` SIMD-ratio section run against.
pub fn gemv_t_acc_scalar(y: &mut [f64], panel: &[f64], w: &[f64]) {
    let k = y.len();
    assert_eq!(
        panel.len(),
        w.len() * k,
        "gemv_t_acc panel/weight shape mismatch"
    );
    if k == 0 {
        return;
    }
    gemv_t_scalar(y, panel, w);
}

/// Portable arm: four panel rows fused per pass (see [`gemv_t_acc`]).
fn gemv_t_scalar(y: &mut [f64], panel: &[f64], w: &[f64]) {
    let k = y.len();
    let mut rows = panel.chunks_exact(4 * k);
    let mut weights = w.chunks_exact(4);
    for (quad, wq) in rows.by_ref().zip(weights.by_ref()) {
        let (r0, rest) = quad.split_at(k);
        let (r1, rest) = rest.split_at(k);
        let (r2, r3) = rest.split_at(k);
        let (w0, w1, w2, w3) = (wq[0], wq[1], wq[2], wq[3]);
        for ((((yi, a), b), c), d) in y.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
            *yi += (w0 * a + w1 * b) + (w2 * c + w3 * d);
        }
    }
    for (row, &wl) in rows.remainder().chunks_exact(k).zip(weights.remainder()) {
        for (yi, &v) in y.iter_mut().zip(row) {
            *yi += wl * v;
        }
    }
}

/// AVX2+FMA arm: eight broadcast weights folded into `y` in 32-element
/// blocks (8 × 4-lane accumulators — enough independent FMA chains to
/// cover the FMA latency on both ports).
///
/// # Safety
///
/// Caller must ensure AVX2+FMA support and `panel.len() == w.len() * y.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemv_t_acc_avx2(y: &mut [f64], panel: &[f64], w: &[f64]) {
    use std::arch::x86_64::*;
    let k = y.len();
    let mut octs = panel.chunks_exact(8 * k);
    let mut weights = w.chunks_exact(8);
    for (oct, wo) in octs.by_ref().zip(weights.by_ref()) {
        let base = oct.as_ptr();
        let xv: [__m256d; 8] = std::array::from_fn(|r| _mm256_set1_pd(wo[r]));
        let yp = y.as_mut_ptr();
        let mut i = 0usize;
        while i + 32 <= k {
            let mut acc: [__m256d; 8] = std::array::from_fn(|l| _mm256_loadu_pd(yp.add(i + 4 * l)));
            for (r, xr) in xv.iter().enumerate() {
                let rp = base.add(r * k + i);
                for (l, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_fmadd_pd(*xr, _mm256_loadu_pd(rp.add(4 * l)), *a);
                }
            }
            for (l, a) in acc.iter().enumerate() {
                _mm256_storeu_pd(yp.add(i + 4 * l), *a);
            }
            i += 32;
        }
        while i + 4 <= k {
            let mut a = _mm256_loadu_pd(yp.add(i));
            for (r, xr) in xv.iter().enumerate() {
                a = _mm256_fmadd_pd(*xr, _mm256_loadu_pd(base.add(r * k + i)), a);
            }
            _mm256_storeu_pd(yp.add(i), a);
            i += 4;
        }
        while i < k {
            let mut s = *y.get_unchecked(i);
            for (r, &xr) in wo.iter().enumerate() {
                s += xr * *base.add(r * k + i);
            }
            *y.get_unchecked_mut(i) = s;
            i += 1;
        }
    }
    for (row, &wl) in octs.remainder().chunks_exact(k).zip(weights.remainder()) {
        vecops::axpy(wl, row, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_syrk(c: &mut Mat, alpha: f64, panel: &[f64], k: usize) {
        for row in panel.chunks_exact(k) {
            c.syrk_lower(alpha, row);
        }
    }

    fn panel_of(d: usize, k: usize, seed: u64) -> Vec<f64> {
        (0..d * k)
            .map(|i| {
                let h = (i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15 ^ seed);
                ((h >> 12) as f64 / (1u64 << 52) as f64) - 0.5
            })
            .collect()
    }

    #[test]
    fn blocked_syrk_matches_per_rating_reference() {
        for &k in &[1usize, 2, 3, 4, 7, 8, 16, 17] {
            for &d in &[0usize, 1, 2, 3, 5, 63, 64, 65, 130, 200] {
                let p = panel_of(d, k, 11);
                let mut blocked = Mat::zeros(k, k);
                syrk_ld_lower(&mut blocked, 1.7, &p, k);
                let mut naive = Mat::zeros(k, k);
                naive_syrk(&mut naive, 1.7, &p, k);
                assert!(
                    blocked.max_abs_diff(&naive) < 1e-12,
                    "k={k} d={d}: {:?}",
                    blocked.max_abs_diff(&naive)
                );
            }
        }
    }

    #[test]
    fn blocked_syrk_leaves_upper_triangle_untouched() {
        let k = 6;
        let p = panel_of(10, k, 3);
        let mut c = Mat::from_fn(k, k, |i, j| if j > i { 99.0 } else { 0.0 });
        syrk_ld_lower(&mut c, 2.0, &p, k);
        for i in 0..k {
            for j in i + 1..k {
                assert_eq!(c[(i, j)], 99.0, "upper ({i},{j}) was written");
            }
        }
    }

    #[test]
    fn gemv_t_matches_axpy_loop() {
        for &k in &[1usize, 3, 8, 16, 17] {
            for &d in &[0usize, 1, 2, 3, 4, 5, 8, 63, 100] {
                let p = panel_of(d, k, 77);
                let w: Vec<f64> = (0..d).map(|i| (i as f64 * 0.3).cos()).collect();
                let mut fused = vec![0.5; k];
                gemv_t_acc(&mut fused, &p, &w);
                let mut naive = vec![0.5; k];
                for (row, &wl) in p.chunks_exact(k).zip(&w) {
                    crate::vecops::axpy(wl, row, &mut naive);
                }
                for (a, b) in fused.iter().zip(&naive) {
                    assert!((a - b).abs() < 1e-12, "k={k} d={d}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn zero_rows_are_noops() {
        let mut c = Mat::identity(4);
        syrk_ld_lower(&mut c, 3.0, &[], 4);
        assert_eq!(c, Mat::identity(4));
        let mut y = vec![1.0; 4];
        gemv_t_acc(&mut y, &[], &[]);
        assert_eq!(y, vec![1.0; 4]);
    }
}
