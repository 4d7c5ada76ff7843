//! 8-bit scalar quantization (SQ8) of L2-normalised rows, and the one
//! integer dot kernel every quantized scan in the workspace shares.
//!
//! Each row gets one symmetric scale: `code = round(v / scale)` clamped to
//! `[-127, 127]` with `scale = max|v| / 127`, so the decoded value
//! `code * scale` is within `scale / 2` of the original per component. Scores
//! computed over codes are *approximate* and never reach a caller: the flat
//! scan turns them into a provable upper bound and runs the exact f32 dot on
//! every row the bound cannot rule out (see [`bound_terms`]); the IVF search
//! in `t2v-ann` uses them to build a shortlist it rescores exactly.
//!
//! The kernel is dispatched at run time (AVX2 when the CPU has it, the
//! x86-64 baseline SSE2 otherwise). That is safe for determinism in a way it
//! would not be for the f32 dot: integer arithmetic is exact, so every
//! kernel returns the same `i32` for the same codes and the choice of ISA
//! cannot change a single result across hosts.

/// Which integer kernel scores code rows. Values are only obtainable through
/// [`Kernel::BASELINE`] and [`Kernel::detect`], so holding the wide variant
/// is proof the CPU supports it — an explicit-kernel seam for tests, in the
/// same spirit as `VectorIndex::top_k_prenormalized_in`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernel(Isa);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    /// SSE2 on x86-64 (always present), the portable loop elsewhere.
    pub const BASELINE: Kernel = Kernel(Isa::Baseline);

    /// The widest kernel this CPU supports.
    #[inline]
    pub fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel(Isa::Avx2);
        }
        Kernel::BASELINE
    }
}

/// Quantize one row into `out` (appending `v.len()` codes), returning the
/// row's scale. A zero (or non-finite) row encodes as all-zero codes with
/// scale `0.0`, which decodes back to the zero row; non-finite components of
/// an otherwise finite row encode as `0`.
///
/// Both passes are branch-free selects over plain slices so they vectorise:
/// this runs once per row on every library build and snapshot load.
pub fn encode_row(v: &[f32], out: &mut Vec<i8>) -> f32 {
    // Non-negative floats order like their bit patterns, so the max-abs pass
    // is an integer max reduction (which LLVM vectorises; an f32 max
    // reduction it will not reassociate). Non-finite magnitudes count as 0.
    let mut max_bits = 0i32;
    for &x in v {
        let bits = (x.to_bits() & 0x7fff_ffff) as i32;
        let bits = if bits < 0x7f80_0000 { bits } else { 0 };
        max_bits = max_bits.max(bits);
    }
    let max_abs = f32::from_bits(max_bits as u32);
    let start = out.len();
    out.resize(start + v.len(), 0);
    if max_abs == 0.0 {
        return 0.0;
    }
    let inv = 127.0 / max_abs;
    for (c, &x) in out[start..].iter_mut().zip(v) {
        let y = x * inv;
        // Finite components land in ±127 (plus rounding); only a non-finite
        // `x` (or an overflowed `inv` on a denormal row) fails this test.
        let y = if y.abs() <= 127.5 { y } else { 0.0 };
        // Round half away from zero without the libm `round` call.
        let t = y + 0.5f32.copysign(y);
        // SAFETY: `|y| <= 127.5` was just selected, so `t` is finite and
        // within ±128 — inside i32. The checked `as` cast saturates and
        // tests for NaN per lane, which LLVM scalarises into branches
        // (measured: 430 ns → 205 ns per 256-wide row).
        *c = unsafe { t.to_int_unchecked::<i32>() } as i8;
    }
    max_abs / 127.0
}

/// The two per-row terms of the flat scan's upper bound, for a row `v`
/// encoded as `codes` × `scale`: `(‖c‖, ‖v/scale − c‖)` — the norm of the
/// code row and of the quantization residual, both **in code units** (the
/// decoded row is `v̂ = c · scale`, so in f32 units they are `‖v̂‖` and
/// `‖v − v̂‖` once multiplied by `scale`).
///
/// For a query `q` with decoded form `q̂`, splitting
/// `q·v = q̂·v̂ + (q − q̂)·v̂ + q·(v − v̂)` and applying Cauchy–Schwarz to the
/// last two terms gives `q·v ≤ q̂·v̂ + ‖q − q̂‖·‖v̂‖ + ‖q‖·‖v − v̂‖`, and
/// `q̂·v̂` is the exact integer code dot times the two scales. The residual
/// is measured against the *actual* codes and scale, so the inequality holds
/// however the encoder rounded. Working in code units keeps every
/// intermediate O(127·√dims) whatever the row's magnitude — squaring f32
/// residuals of a tiny row would underflow and lose the bound. Both terms
/// are computed in f32; the scan inflates them by a relative margin that
/// covers the rounding (see `QueryBound` in `index.rs`). A row with a
/// non-finite component reports an infinite residual, which no floor can
/// beat — such rows are always rescored.
pub fn bound_terms(v: &[f32], codes: &[i8], scale: f32) -> (f32, f32) {
    debug_assert_eq!(v.len(), codes.len());
    if scale == 0.0 {
        // All-zero codes: either the zero row (nothing to bound) or a row
        // with no finite non-zero component at all.
        let zero = v.iter().all(|&x| x == 0.0);
        return (0.0, if zero { 0.0 } else { f32::INFINITY });
    }
    let inv = 1.0 / scale;
    // Eight independent lanes: an f32 sum only vectorises when the source
    // already spells out the reassociation.
    let mut acc = [0f32; 8];
    let mut cv = v.chunks_exact(8);
    let mut cc = codes.chunks_exact(8);
    for (xv, xc) in (&mut cv).zip(&mut cc) {
        for lane in 0..8 {
            let r = xv[lane] * inv - xc[lane] as f32;
            acc[lane] += r * r;
        }
    }
    let mut sum: f32 = acc.iter().sum();
    for (&x, &c) in cv.remainder().iter().zip(cc.remainder()) {
        let r = x * inv - c as f32;
        sum += r * r;
    }
    let residual = if sum.is_finite() {
        sum.sqrt()
    } else {
        f32::INFINITY
    };
    // Σ code² is an exact integer (same i32 headroom as any code dot).
    ((dot_i8(codes, codes) as f32).sqrt(), residual)
}

/// Integer dot product of two code rows with the widest kernel available.
/// Exact for every `i8` input (including `-128`, which the encoder never
/// emits but a snapshot could carry); worst-case accumulation is
/// `dims * 128²`, far inside i32 for any realistic stride.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    dot_i8_in(Kernel::detect(), a, b)
}

/// [`dot_i8`] with an explicit kernel — the test seam that reaches the
/// fallback on any host.
#[doc(hidden)]
#[inline]
pub fn dot_i8_in(kernel: Kernel, a: &[i8], b: &[i8]) -> i32 {
    match kernel.0 {
        Isa::Baseline => dot_i8_baseline(a, b),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => {
            debug_assert_eq!(a.len(), b.len());
            let a = &a[..a.len().min(b.len())];
            // SAFETY: `Isa::Avx2` is only constructed by `Kernel::detect`
            // after the CPU reported AVX2, and `b` holds at least
            // `a.len()` codes after the truncation above.
            unsafe { dot_i8_avx2::<1>(a, b.as_ptr())[0] }
        }
    }
}

/// One query against consecutive rows: `out[r] = q · rows[r * q.len()..]`.
/// The kernel is dispatched once for the whole block and inlined into the
/// row loop, which is what the flat scan's prefilter wants.
///
/// # Panics
/// If `rows` does not hold exactly `out.len()` rows of `q.len()` codes.
#[doc(hidden)]
#[inline]
pub fn dot_i8_rows_in(kernel: Kernel, q: &[i8], rows: &[i8], out: &mut [i32]) {
    assert_eq!(rows.len(), q.len() * out.len(), "code block shape mismatch");
    if q.is_empty() {
        out.fill(0);
        return;
    }
    match kernel.0 {
        Isa::Baseline => {
            for (o, row) in out.iter_mut().zip(rows.chunks_exact(q.len())) {
                *o = dot_i8_baseline(q, row);
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `dot_i8_in`, the variant proves AVX2 is present.
        Isa::Avx2 => unsafe { dot_i8_rows_avx2(q, rows, out) },
    }
}

/// AVX2 kernel: `q` against `R` consecutive rows of `q.len()` codes starting
/// at `rows`. Sign-extends 16 codes to 16-bit lanes (`vpmovsxbw`), then
/// `vpmaddwd` fuses the multiply and pairwise add into eight i32 lanes.
/// Sign extension (rather than the `abs`/`sign` + `vpmaddubsw` trick) keeps
/// the kernel exact for `-128` as well — and is its bottleneck (one
/// shuffle-port µop per 16 codes), which is why the row-block form runs
/// `R = 4`: each query chunk is widened once for four rows, 1.25 instead of
/// 2 extensions per row chunk.
///
/// # Safety
/// The CPU must support AVX2, and `rows..rows + R * q.len()` must be
/// readable.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn dot_i8_avx2<const R: usize>(q: &[i8], rows: *const i8) -> [i32; R] {
    use std::arch::x86_64::*;
    let n = q.len();
    let wide = n / 16 * 16;
    let mut acc = [_mm256_setzero_si256(); R];
    let mut i = 0;
    while i < wide {
        // SAFETY: `i + 16 <= wide <= n`, so every 16-byte load below stays
        // inside `q` or inside row `r` (`_mm_loadu_si128` tolerates
        // unaligned pointers).
        let wq = _mm256_cvtepi8_epi16(_mm_loadu_si128(q.as_ptr().add(i) as *const __m128i));
        for (r, a) in acc.iter_mut().enumerate() {
            let row = rows.add(r * n + i);
            let wr = _mm256_cvtepi8_epi16(_mm_loadu_si128(row as *const __m128i));
            *a = _mm256_add_epi32(*a, _mm256_madd_epi16(wq, wr));
        }
        i += 16;
    }
    let mut out = [0i32; R];
    for (r, (o, a)) in out.iter_mut().zip(acc).enumerate() {
        let quad = _mm_add_epi32(_mm256_castsi256_si128(a), _mm256_extracti128_si256(a, 1));
        let pair = _mm_add_epi32(quad, _mm_shuffle_epi32(quad, 0b01_00_11_10));
        let one = _mm_add_epi32(pair, _mm_shuffle_epi32(pair, 0b00_00_00_01));
        // SAFETY: row `r` spans `rows.add(r * n)..rows.add((r + 1) * n)`.
        let row = std::slice::from_raw_parts(rows.add(r * n), n);
        let tail: i32 = (q[wide..].iter().zip(&row[wide..]))
            .map(|(&x, &y)| x as i32 * y as i32)
            .sum();
        *o = _mm_cvtsi128_si32(one) + tail;
    }
    out
}

/// Row-block form of [`dot_i8_avx2`]: quads of rows, then the remainder one
/// at a time.
///
/// # Safety
/// The CPU must support AVX2; `rows.len() == q.len() * out.len()`, `q`
/// non-empty.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_rows_avx2(q: &[i8], rows: &[i8], out: &mut [i32]) {
    debug_assert_eq!(rows.len(), q.len() * out.len());
    let mut quads = out.chunks_exact_mut(4);
    let mut row_quads = rows.chunks_exact(4 * q.len());
    for (o, quad) in (&mut quads).zip(&mut row_quads) {
        // SAFETY: `quad` holds exactly four rows of `q.len()` codes.
        o.copy_from_slice(&dot_i8_avx2::<4>(q, quad.as_ptr()));
    }
    let rest = row_quads.remainder().chunks_exact(q.len());
    for (o, row) in quads.into_remainder().iter_mut().zip(rest) {
        // SAFETY: `row` holds exactly one row of `q.len()` codes.
        *o = dot_i8_avx2::<1>(q, row.as_ptr())[0];
    }
}

/// x86-64 baseline (SSE2) kernel. Bytes are sign-extended to 16 bits with
/// the classic interleave-then-arithmetic-shift trick (SSE2 has no
/// `_mm_cvtepi8_epi16`), then `_mm_madd_epi16` fuses the multiply and
/// pairwise add.
#[cfg(target_arch = "x86_64")]
#[inline]
fn dot_i8_baseline(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let blocks = n / 16;
    // SAFETY: `_mm_loadu_si128` tolerates unaligned pointers, and every
    // 16-byte load starts at `blk * 16` with `blk < n / 16`.
    unsafe {
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm_setzero_si128();
        let mut acc1 = _mm_setzero_si128();
        for blk in 0..blocks {
            let i = blk * 16;
            let xa = _mm_loadu_si128(pa.add(i) as *const __m128i);
            let xb = _mm_loadu_si128(pb.add(i) as *const __m128i);
            let a_lo = _mm_srai_epi16(_mm_unpacklo_epi8(xa, xa), 8);
            let a_hi = _mm_srai_epi16(_mm_unpackhi_epi8(xa, xa), 8);
            let b_lo = _mm_srai_epi16(_mm_unpacklo_epi8(xb, xb), 8);
            let b_hi = _mm_srai_epi16(_mm_unpackhi_epi8(xb, xb), 8);
            acc0 = _mm_add_epi32(acc0, _mm_madd_epi16(a_lo, b_lo));
            acc1 = _mm_add_epi32(acc1, _mm_madd_epi16(a_hi, b_hi));
        }
        let acc = _mm_add_epi32(acc0, acc1);
        let hi = _mm_add_epi32(acc, _mm_shuffle_epi32(acc, 0b01_00_11_10));
        let one = _mm_add_epi32(hi, _mm_shuffle_epi32(hi, 0b00_00_00_01));
        let mut sum = _mm_cvtsi128_si32(one);
        for i in blocks * 16..n {
            sum += a[i] as i32 * b[i] as i32;
        }
        sum
    }
}

/// Portable fallback, shaped for auto-vectorisation like the f32 dot.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn dot_i8_baseline(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0i32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for lane in 0..8 {
            acc[lane] += xa[lane] as i32 * xb[lane] as i32;
        }
    }
    let mut sum: i32 = acc.iter().sum();
    for (xa, xb) in ca.remainder().iter().zip(cb.remainder()) {
        sum += *xa as i32 * *xb as i32;
    }
    sum
}

/// Scalar reference for the SIMD paths' tests.
#[cfg(test)]
fn dot_i8_reference(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_bounds_error_by_half_scale() {
        let v = [0.9f32, -0.3, 0.0001, -0.9999, 0.5];
        let mut codes = Vec::new();
        let scale = encode_row(&v, &mut codes);
        assert!(scale > 0.0);
        for (&x, &c) in v.iter().zip(&codes) {
            let decoded = c as f32 * scale;
            assert!(
                (decoded - x).abs() <= scale * 0.5 + f32::EPSILON,
                "component {x} decoded to {decoded} (scale {scale})"
            );
        }
    }

    #[test]
    fn zero_row_encodes_to_zero_scale() {
        let mut codes = Vec::new();
        let scale = encode_row(&[0.0; 16], &mut codes);
        assert_eq!(scale, 0.0);
        assert!(codes.iter().all(|&c| c == 0));
    }

    #[test]
    fn non_finite_components_are_dropped() {
        let mut codes = Vec::new();
        let scale = encode_row(&[f32::NAN, 1.0, f32::INFINITY, -0.5], &mut codes);
        assert_eq!(scale, 1.0 / 127.0);
        assert_eq!(codes[0], 0);
        assert_eq!(codes[1], 127);
        assert_eq!(codes[2], 0);
    }

    #[test]
    fn encode_rounds_half_away_and_reaches_both_extremes() {
        // max|v| = 127 makes the scale exactly 1: halves round away from
        // zero, ±max hit ±127, and appending leaves earlier codes alone.
        let v = [127.0f32, -127.0, 0.5, -0.5, 1.5, 0.0, 2.4999];
        let mut codes = vec![42i8];
        assert_eq!(encode_row(&v, &mut codes), 1.0);
        assert_eq!(codes, [42, 127, -127, 1, -1, 2, 0, 2]);
    }

    #[test]
    fn dot_i8_matches_reference_across_lengths() {
        // Odd lengths exercise the block loop, the 16-wide boundary, and the
        // scalar tail; extreme codes exercise sign extension.
        for n in [0usize, 1, 7, 15, 16, 17, 31, 32, 33, 64, 100, 256, 300] {
            let a: Vec<i8> = (0..n).map(|i| ((i * 37 + 11) % 255) as i8).collect();
            let b: Vec<i8> = (0..n)
                .map(|i| (((i * 73 + 5) % 255) as u8 as i8).wrapping_neg())
                .collect();
            assert_eq!(dot_i8(&a, &b), dot_i8_reference(&a, &b), "n={n}");
        }
        let extremes = [i8::MIN + 1, -127, -1, 0, 1, 127];
        let a: Vec<i8> = extremes.iter().cycle().take(48).copied().collect();
        let b: Vec<i8> = extremes.iter().rev().cycle().take(48).copied().collect();
        assert_eq!(dot_i8(&a, &b), dot_i8_reference(&a, &b));
    }

    /// Every kernel — the detected one and the fallback, reached through the
    /// explicit seam — agrees with the scalar reference, per pair and per
    /// row block, on lengths around every vector-width boundary.
    #[test]
    fn every_kernel_matches_the_scalar_reference() {
        let extremes = [i8::MIN, -127, -1, 0, 1, 127];
        for kernel in [Kernel::BASELINE, Kernel::detect()] {
            for n in [
                0usize, 1, 7, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 256, 300,
            ] {
                let q: Vec<i8> = (0..n).map(|i| ((i * 37 + 11) % 256) as u8 as i8).collect();
                let rows: Vec<i8> = (0..5 * n)
                    .map(|i| match i / n.max(1) {
                        0 => 127,
                        1 => -127,
                        2 => extremes[i % extremes.len()],
                        _ => ((i * 73 + 5) % 256) as u8 as i8,
                    })
                    .collect();
                let want: Vec<i32> = if n == 0 {
                    vec![0; 5]
                } else {
                    rows.chunks_exact(n)
                        .map(|r| dot_i8_reference(&q, r))
                        .collect()
                };
                let mut got = [i32::MIN; 5];
                dot_i8_rows_in(kernel, &q, &rows, &mut got);
                assert_eq!(got.as_slice(), want, "{kernel:?} n={n}");
                for (r, w) in rows.chunks_exact(n.max(1)).zip(&want) {
                    assert_eq!(dot_i8_in(kernel, &q, r), *w, "{kernel:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn bound_terms_measure_the_decoded_row_in_code_units() {
        let v = [0.6f32, -0.8, 0.003, 0.0];
        let mut codes = Vec::new();
        let scale = encode_row(&v, &mut codes);
        let (code_norm, residual) = bound_terms(&v, &codes, scale);
        let want_norm = (codes.iter().map(|&c| (c as f32).powi(2)).sum::<f32>()).sqrt();
        let want_res = (v.iter().zip(&codes))
            .map(|(x, &c)| (x / scale - c as f32).powi(2))
            .sum::<f32>()
            .sqrt();
        assert_eq!(code_norm, want_norm);
        assert!(
            (residual - want_res).abs() <= 1e-4,
            "{residual} vs {want_res}"
        );
        assert!(residual <= 0.5 * 2.0 + 1e-4, "‖r‖ ≤ √dims · ½ code");

        // Magnitude does not matter: a row a billion-billion times smaller
        // has the same codes and the same code-unit terms (its f32 residual
        // squared would underflow to nothing).
        let tiny: Vec<f32> = v.iter().map(|x| x * 1e-18).collect();
        let mut tiny_codes = Vec::new();
        let tiny_scale = encode_row(&tiny, &mut tiny_codes);
        assert_eq!(tiny_codes, codes);
        let (tiny_norm, tiny_res) = bound_terms(&tiny, &tiny_codes, tiny_scale);
        assert_eq!(tiny_norm, code_norm);
        assert!(
            (tiny_res - residual).abs() <= 1e-3,
            "{tiny_res} vs {residual}"
        );

        // A non-finite component makes the residual infinite — also when it
        // leaves nothing finite to set a scale; a zero row has none at all.
        for bad in [
            [0.5f32, f32::NAN, 0.5],
            [f32::NAN; 3],
            [0.0, f32::INFINITY, 0.0],
        ] {
            codes.clear();
            let scale = encode_row(&bad, &mut codes);
            assert_eq!(bound_terms(&bad, &codes, scale).1, f32::INFINITY, "{bad:?}");
        }
        codes.clear();
        let scale = encode_row(&[0.0; 9], &mut codes);
        assert_eq!(bound_terms(&[0.0; 9], &codes, scale), (0.0, 0.0));
    }
}
