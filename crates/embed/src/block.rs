//! The f32 block kernel: scores a block of rows against a block of columns
//! in one call, and every score has exactly the bits [`fused_dot`] gives
//! that pair. IVF training (each sampled row against every centroid, eight
//! Lloyd passes and one full pass) and cell probing (a query against every
//! centroid) are all-pairs products of this shape.
//!
//! A single 256-lane [`fused_dot`] is latency-bound — eight dependent adds
//! per accumulator — and re-reads its column for every row. With AVX-512F a
//! 4 × 2 register tile keeps each pair's 32 lane sums in two zmm registers:
//! lanes 0–15 hold `fused_dot`'s `acc0..acc3`, lanes 16–31 hold
//! `acc4..acc7`. Every 32-wide block adds its products into the same lanes
//! in the same order, 4-lane tail chunks go into `acc0`'s lanes before the
//! reduction, the reduction is `fused_dot`'s tree, and the last `len % 4`
//! products are added one at a time after it. Multiplies and adds stay
//! separate instructions (no FMA), so each lane sees the same roundings,
//! and the tile only reorders *which pair* is worked on, never the
//! arithmetic inside one. The tile loads each column once per four rows.
//!
//! Without AVX-512F the block is one [`fused_dot`] per pair, so every host
//! produces the same scores — and trains the same IVF index — bit for bit.
//!
//! [`fused_dot`]: crate::fused_dot

use crate::index::dot;

/// Rows the wide tile scores at once: callers that walk a long row list in
/// blocks load each column once per block when they hand over this many.
pub const BLOCK_ROWS: usize = 4;

/// Which path [`dot_block`] takes. Values come only from
/// [`DotKernel::PER_PAIR`] and [`DotKernel::detect`], so holding the wide
/// variant is proof the CPU supports it. Detect once per call of the work
/// that needs it, not once per block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DotKernel(Path);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    PerPair,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl DotKernel {
    /// One [`crate::fused_dot`] per pair; available everywhere.
    pub const PER_PAIR: DotKernel = DotKernel(Path::PerPair);

    /// The AVX-512F tile when the CPU has it, the per-pair path otherwise.
    #[inline]
    pub fn detect() -> DotKernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return DotKernel(Path::Avx512);
        }
        DotKernel::PER_PAIR
    }
}

/// `out[r * C + c] = fused_dot(row r, column c)` for `R` rows of `rows` and
/// `C` columns of `cols`, both row-major with stride `dims`; `out` holds
/// `R × C` scores. With `dims == 0` every score is the empty dot, `+0.0`.
///
/// # Panics
/// When `rows` or `cols` is not a whole number of `dims`-long rows, or
/// `out` is not `R × C` long.
pub fn dot_block(kernel: DotKernel, dims: usize, rows: &[f32], cols: &[f32], out: &mut [f32]) {
    if dims == 0 {
        out.fill(dot(&[], &[]));
        return;
    }
    let (nr, nc) = (rows.len() / dims, cols.len() / dims);
    assert_eq!(nr * dims, rows.len(), "rows are not a whole number of rows");
    assert_eq!(nc * dims, cols.len(), "cols are not a whole number of rows");
    assert_eq!(out.len(), nr * nc, "out must hold rows × cols scores");
    match kernel.0 {
        Path::PerPair => {
            for (row, out) in rows.chunks_exact(dims).zip(out.chunks_exact_mut(nc.max(1))) {
                for (col, o) in cols.chunks_exact(dims).zip(out) {
                    *o = dot(row, col);
                }
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Path::Avx512` is only constructed by `DotKernel::detect`
        // after the CPU reported AVX-512F.
        Path::Avx512 => unsafe { avx512::block(dims, nr, nc, rows, cols, out) },
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    /// Row blocks of [`super::BLOCK_ROWS`], then single leftover rows, for
    /// `rows` of `nr × dims` values, `cols` of `nc × dims` and `out` of
    /// `nr × nc` (`dims > 0`).
    #[target_feature(enable = "avx512f")]
    pub(super) fn block(
        dims: usize,
        nr: usize,
        nc: usize,
        rows: &[f32],
        cols: &[f32],
        out: &mut [f32],
    ) {
        let row = |r: usize| &rows[r * dims..(r + 1) * dims];
        let mut r = 0;
        while r + 4 <= nr {
            let block = [row(r), row(r + 1), row(r + 2), row(r + 3)];
            sweep(dims, block, cols, nc, &mut out[r * nc..]);
            r += 4;
        }
        while r < nr {
            sweep(dims, [row(r)], cols, nc, &mut out[r * nc..]);
            r += 1;
        }
    }

    /// `R` rows against every column, two columns per tile; row `r`'s
    /// scores go to `out[r * nc..]`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn sweep<const R: usize>(
        dims: usize,
        rows: [&[f32]; R],
        cols: &[f32],
        nc: usize,
        out: &mut [f32],
    ) {
        let col = |c: usize| &cols[c * dims..(c + 1) * dims];
        let mut c = 0;
        while c + 2 <= nc {
            let s = tile(dims, rows, [col(c), col(c + 1)]);
            for (r, s) in s.iter().enumerate() {
                out[r * nc + c..r * nc + c + 2].copy_from_slice(s);
            }
            c += 2;
        }
        if c < nc {
            let s = tile(dims, rows, [col(c)]);
            for (r, s) in s.iter().enumerate() {
                out[r * nc + c] = s[0];
            }
        }
    }

    /// `R × C` dots over the first `dims` lanes, `fused_dot`'s arithmetic
    /// per pair: `lo` is its `acc0..acc3`, `hi` its `acc4..acc7`, and rows
    /// are the left operand of every multiply as `a` is in `fused_dot(a, b)`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn tile<const R: usize, const C: usize>(
        dims: usize,
        rows: [&[f32]; R],
        cols: [&[f32]; C],
    ) -> [[f32; C]; R] {
        assert!(rows.iter().chain(&cols).all(|v| v.len() >= dims));
        let (rows, cols) = (rows.map(<[f32]>::as_ptr), cols.map(<[f32]>::as_ptr));
        let mut lo = [[_mm512_setzero_ps(); C]; R];
        let mut hi = [[_mm512_setzero_ps(); C]; R];
        let blocks = dims / 32;
        for blk in 0..blocks {
            let i = blk * 32;
            // SAFETY: every row and column holds at least `dims` values
            // (asserted above) and `i + 32 <= dims`, so each 16-lane load
            // at `i` or `i + 16` stays inside it; unaligned loads are
            // allowed.
            unsafe {
                let cl: [__m512; C] = std::array::from_fn(|c| _mm512_loadu_ps(cols[c].add(i)));
                let ch: [__m512; C] = std::array::from_fn(|c| _mm512_loadu_ps(cols[c].add(i + 16)));
                for r in 0..R {
                    let a = _mm512_loadu_ps(rows[r].add(i));
                    for c in 0..C {
                        lo[r][c] = _mm512_add_ps(lo[r][c], _mm512_mul_ps(a, cl[c]));
                    }
                    let a = _mm512_loadu_ps(rows[r].add(i + 16));
                    for c in 0..C {
                        hi[r][c] = _mm512_add_ps(hi[r][c], _mm512_mul_ps(a, ch[c]));
                    }
                }
            }
        }
        let mut i = blocks * 32;
        while i + 4 <= dims {
            // SAFETY: as above, with `i + 4 <= dims` for the 4-lane loads.
            unsafe {
                let b: [__m128; C] = std::array::from_fn(|c| _mm_loadu_ps(cols[c].add(i)));
                for r in 0..R {
                    let a = _mm_loadu_ps(rows[r].add(i));
                    for c in 0..C {
                        // `acc0 += a·b`: only lanes 0–3 take the sum, the
                        // other lanes keep their bits.
                        let p = _mm512_castps128_ps512(_mm_mul_ps(a, b[c]));
                        lo[r][c] = _mm512_mask_add_ps(lo[r][c], 0x000f, lo[r][c], p);
                    }
                }
            }
            i += 4;
        }
        let mut out = [[0f32; C]; R];
        for r in 0..R {
            for c in 0..C {
                let mut sum = reduce(lo[r][c], hi[r][c]);
                for j in i..dims {
                    // SAFETY: `j < dims`, inside every row and column.
                    sum += unsafe { *rows[r].add(j) * *cols[c].add(j) };
                }
                out[r][c] = sum;
            }
        }
        out
    }

    /// `fused_dot`'s tree over `acc0..acc7`:
    /// `((acc0+acc4) + (acc1+acc5)) + ((acc2+acc6) + (acc3+acc7))`, then
    /// `(s0+s2) + (s1+s3)` across the four lanes.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn reduce(lo: __m512, hi: __m512) -> f32 {
        let t = _mm512_add_ps(lo, hi);
        let s01 = _mm_add_ps(_mm512_castps512_ps128(t), _mm512_extractf32x4_ps::<1>(t));
        let s23 = _mm_add_ps(
            _mm512_extractf32x4_ps::<2>(t),
            _mm512_extractf32x4_ps::<3>(t),
        );
        let s = _mm_add_ps(s01, s23);
        let pair = _mm_add_ps(s, _mm_movehl_ps(s, s));
        _mm_cvtss_f32(_mm_add_ss(pair, _mm_shuffle_ps(pair, pair, 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::dot_portable;
    use proptest::prelude::*;

    /// Score bits, with every NaN one value: Rust leaves a NaN result's sign
    /// and payload unspecified (which operand of a commutative add the
    /// compiler puts first decides them), so no kernel can promise them.
    fn bits(x: f32) -> u32 {
        if x.is_nan() {
            f32::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    /// Values that stress the arithmetic beyond [-1, 1]: signed zeros,
    /// infinities, NaN, subnormals and magnitudes whose products overflow.
    const SPECIAL: [f32; 10] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        1e-40,
        -3e-39,
        f32::MIN_POSITIVE,
        3e38,
        -2e19,
    ];

    /// `n` values from the seed, with a few specials planted.
    fn vector(seed: u64, n: usize, plants: &[(usize, usize)]) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut v: Vec<f32> = (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            })
            .collect();
        if n > 0 {
            for &(at, which) in plants {
                v[at % n] = SPECIAL[which % SPECIAL.len()];
            }
        }
        v
    }

    fn check_block(kernel: DotKernel, dims: usize, rows: &[f32], cols: &[f32]) {
        let (nr, nc) = (rows.len() / dims.max(1), cols.len() / dims.max(1));
        let mut out = vec![f32::NAN; nr * nc];
        dot_block(kernel, dims, rows, cols, &mut out);
        for r in 0..nr {
            for c in 0..nc {
                let want = dot(
                    &rows[r * dims..(r + 1) * dims],
                    &cols[c * dims..(c + 1) * dims],
                );
                assert_eq!(
                    bits(out[r * nc + c]),
                    bits(want),
                    "{kernel:?} dims={dims} r={r} c={c}: {} vs {want}",
                    out[r * nc + c]
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// Every block shape from 1 × 1 to 6 × 6 (full 4-row tiles, single
        /// leftover rows, odd columns), every length from 0 to 300 (whole
        /// 32-lane blocks, 4-lane tail chunks and scalar tails), and planted
        /// ±0, ±∞, NaN, subnormals and overflowing products: the block
        /// scores carry `fused_dot`'s bits on every kernel this host has.
        #[test]
        fn block_scores_equal_fused_dot(
            nr in 1usize..=6,
            nc in 1usize..=6,
            dims in 0usize..=300,
            seed in any::<u64>(),
            row_plants in prop::collection::vec((0usize..2000, 0usize..10), 0..4),
            col_plants in prop::collection::vec((0usize..2000, 0usize..10), 0..4),
        ) {
            let rows = vector(seed, nr * dims, &row_plants);
            let cols = vector(seed ^ 0x5151, nc * dims, &col_plants);
            for kernel in [DotKernel::PER_PAIR, DotKernel::detect()] {
                check_block(kernel, dims, &rows, &cols);
            }
        }

        /// The portable loop — `fused_dot` on targets without SSE2 — adds
        /// in the x86 kernel's slots, tree and tail order.
        #[test]
        fn portable_dot_equals_fused_dot(
            dims in 0usize..=300,
            seed in any::<u64>(),
            plants in prop::collection::vec((0usize..2000, 0usize..10), 0..4),
        ) {
            let a = vector(seed, dims, &plants);
            let b = vector(!seed, dims, &[]);
            prop_assert_eq!(bits(dot_portable(&a, &b)), bits(dot(&a, &b)));
        }
    }

    #[test]
    fn empty_rows_score_positive_zero() {
        let mut out = [f32::NAN; 6];
        dot_block(DotKernel::detect(), 0, &[], &[], &mut out);
        assert!(out.iter().all(|s| s.to_bits() == 0));
    }

    /// Run with `--nocapture` to see which paths this CPU exercised: a
    /// host without AVX-512F (or AVX2, or AVX-512 VNNI) passes every kernel
    /// test having checked only the paths it has, and says so here.
    #[test]
    fn kernel_paths_on_this_host() {
        let rows = vector(3, 5 * 259, &[(7, 4)]);
        let cols = vector(4, 3 * 259, &[]);
        check_block(DotKernel::detect(), 259, &rows, &cols);
        let f32_path = if DotKernel::detect() == DotKernel::PER_PAIR {
            "per-pair fused_dot only (no AVX-512F: the 4x2 tile went untested)"
        } else {
            "AVX-512F 4x2 tile and per-pair fused_dot"
        };
        let i8_path = crate::quant::Kernel::paths_on_this_host();
        println!("kernel paths tested: f32 block = {f32_path}; i8 code dot = {i8_path}");
    }
}
