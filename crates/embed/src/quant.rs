//! 8-bit scalar quantization (SQ8) of L2-normalised rows, and the integer
//! dot kernels every quantized scan in the workspace shares: [`dot_i8`] for
//! one pair of code rows ([`bound_terms`]), [`QueryCodes`] for one query
//! against many rows (the IVF cell scan), and the tile kernel behind the
//! flat scan, which scores 64 rows at once and reads only the lanes where
//! the query's code is non-zero.
//!
//! Each row gets one symmetric scale: `code = round(v / scale)` clamped to
//! `[-127, 127]` with `scale = max|v| / 127`, so the decoded value
//! `code * scale` is within `scale / 2` of the original per component. Scores
//! computed over codes are *approximate* and never reach a caller: the flat
//! scan turns them into a provable upper bound and runs the exact f32 dot on
//! every row the bound cannot rule out (see [`bound_terms`]); the IVF search
//! in `t2v-ann` uses them to build a shortlist it rescores exactly.
//!
//! The kernels are dispatched at run time (AVX-512 VNNI for [`dot_i8`] and
//! AVX2 for the tile when the CPU has them, AVX2 for both on a CPU with
//! only that, the x86-64 baseline otherwise). That is safe for determinism
//! in a way it would not be for the f32 dot: integer arithmetic is exact
//! and order-free, so every kernel — and every order of walking the lanes —
//! returns the same `i32` for the same codes and the choice of ISA cannot
//! change a single result across hosts.

/// Which integer kernel scores code rows. Values are only obtainable through
/// [`Kernel::BASELINE`], [`Kernel::detect`] and [`Kernel::supported`], so
/// holding a wide variant is proof the CPU supports it — an explicit-kernel
/// seam for scans that read the kernel once and for tests, in the same
/// spirit as `VectorIndex::top_k_prenormalized_in`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernel(Isa);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512 VNNI for [`dot_i8`]; the tile kernel runs its AVX2 path
    /// (this variant is only detected on a CPU that has AVX2 as well).
    #[cfg(target_arch = "x86_64")]
    Vnni,
}

impl Kernel {
    /// SSE2 on x86-64 (always present), the portable loop elsewhere.
    pub const BASELINE: Kernel = Kernel(Isa::Baseline);

    /// The widest kernel this CPU supports.
    #[inline]
    pub fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512vnni")
            {
                return Kernel(Isa::Vnni);
            }
            return Kernel(Isa::Avx2);
        }
        Kernel::BASELINE
    }

    /// Every kernel this CPU supports, narrowest first and
    /// [`Kernel::detect`]'s last — the set the equivalence tests walk.
    #[doc(hidden)]
    pub fn supported() -> Vec<Kernel> {
        let mut all = vec![Kernel::BASELINE];
        #[cfg(target_arch = "x86_64")]
        if Kernel::detect() != Kernel::BASELINE {
            all.push(Kernel(Isa::Avx2));
        }
        #[cfg(target_arch = "x86_64")]
        if Kernel::detect() == Kernel(Isa::Vnni) {
            all.push(Kernel(Isa::Vnni));
        }
        all
    }

    /// The code-dot paths the kernel tests exercise on this CPU, for the
    /// log line that names them.
    #[cfg(test)]
    pub(crate) fn paths_on_this_host() -> &'static str {
        match Kernel::detect().0 {
            Isa::Baseline => "SSE2/portable only (no AVX2: the wide code dots went untested)",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "AVX2 and SSE2 (no AVX-512 VNNI: its code dot went untested)",
            #[cfg(target_arch = "x86_64")]
            Isa::Vnni => "AVX-512 VNNI, AVX2 and SSE2",
        }
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

/// [`dot_i8`] with an explicit kernel — the seam through which tests reach
/// every kernel the host has.
#[doc(hidden)]
#[inline]
pub fn dot_i8_in(kernel: Kernel, a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    match kernel.0 {
        Isa::Baseline => dot_i8_baseline(a, b),
        // SAFETY: `Isa::Avx2` is only constructed after the CPU reported
        // AVX2 (`Kernel::detect`, `Kernel::supported`).
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { dot_i8_avx2(a, b) },
        // SAFETY: `Isa::Vnni` is only constructed after the CPU reported
        // AVX-512F, AVX-512BW and AVX-512 VNNI.
        #[cfg(target_arch = "x86_64")]
        Isa::Vnni => unsafe { dot_i8_vnni(a, b, code_sum(&b[..a.len().min(b.len())])) },
    }
}

/// `Σ code`, wrapping — exact for any row shorter than 2²⁴ codes.
fn code_sum(codes: &[i8]) -> i32 {
    codes.iter().fold(0i32, |s, &c| s.wrapping_add(c as i32))
}

/// One code row that many stored rows are scored against: the query of a
/// scan. The VNNI kernel needs the signed operand's `Σ code` for every
/// dot, so the query takes that side and sums itself once, here, instead
/// of once per row.
#[derive(Debug)]
pub struct QueryCodes<'a> {
    codes: &'a [i8],
    sum: i32,
}

impl<'a> QueryCodes<'a> {
    pub fn new(codes: &'a [i8]) -> QueryCodes<'a> {
        QueryCodes {
            codes,
            sum: code_sum(codes),
        }
    }

    /// The code dot of `row` with the query: the same `i32` as
    /// [`dot_i8_in`] on every kernel.
    #[inline]
    pub fn dot_in(&self, kernel: Kernel, row: &[i8]) -> i32 {
        match kernel.0 {
            // SAFETY: as in `dot_i8_in`; the query's sum covers exactly the
            // codes the kernel reads because the lengths are equal.
            #[cfg(target_arch = "x86_64")]
            Isa::Vnni if row.len() == self.codes.len() => unsafe {
                dot_i8_vnni(row, self.codes, self.sum)
            },
            _ => dot_i8_in(kernel, row, self.codes),
        }
    }
}

/// AVX-512 VNNI kernel for one pair of code rows (over their common
/// length), 64 codes per `vpdpbusd`, given `sum_b = Σ b`. That instruction
/// multiplies *unsigned* bytes by signed ones, so `a` goes in flipped:
/// `a ^ 0x80` read as `u8` is `a + 128`, and
/// `Σ (a + 128)·b = Σ a·b + 128·Σ b`, from which the kernel subtracts
/// `128·sum_b`. Every step is the non-saturating form, so the sum and the
/// difference are exact modulo 2³²: wherever the true dot fits an `i32`
/// (every realistic stride, see [`dot_i8`]) the result is that dot, `-128`
/// codes included. The last `len % 64` codes are read through a masked
/// load, which leaves the lanes past the end zero (a zero `b` adds nothing)
/// and never touches memory past the rows.
///
/// # Safety
/// The CPU must support AVX-512F, AVX-512BW and AVX-512 VNNI.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
#[inline]
unsafe fn dot_i8_vnni(a: &[i8], b: &[i8], sum_b: i32) -> i32 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let flip = _mm512_set1_epi8(i8::MIN);
    let mut dot = _mm512_setzero_si512();
    let mut i = 0;
    while i + 64 <= n {
        // SAFETY: `i + 64 <= n`, and both rows hold at least `n` codes
        // (`_mm512_loadu_si512` tolerates unaligned pointers).
        let wa = _mm512_loadu_si512(a.as_ptr().add(i) as *const __m512i);
        let wb = _mm512_loadu_si512(b.as_ptr().add(i) as *const __m512i);
        dot = _mm512_dpbusd_epi32(dot, _mm512_xor_si512(wa, flip), wb);
        i += 64;
    }
    if i < n {
        let mask: __mmask64 = (1u64 << (n - i)) - 1;
        // SAFETY: the mask selects bytes `i..n` only; a masked-off byte is
        // neither read nor able to fault.
        let wa = _mm512_maskz_loadu_epi8(mask, a.as_ptr().add(i));
        let wb = _mm512_maskz_loadu_epi8(mask, b.as_ptr().add(i));
        dot = _mm512_dpbusd_epi32(dot, _mm512_xor_si512(wa, flip), wb);
    }
    _mm512_reduce_add_epi32(dot).wrapping_sub(sum_b.wrapping_mul(128))
}

/// AVX2 kernel for one pair of code rows (over their common length).
/// Sign-extends 16 codes to 16-bit lanes (`vpmovsxbw`), then `vpmaddwd`
/// fuses the multiply and pairwise add into eight i32 lanes. Sign extension
/// (rather than the `abs`/`sign` + `vpmaddubsw` trick) keeps the kernel exact
/// for `-128` as well. Written without a panicking path: the IVF cell scans
/// call it once per probed row.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let wide = n / 16 * 16;
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i < wide {
        // SAFETY: `i + 16 <= wide <= n`, and both rows hold at least `n`
        // codes, so both 16-byte loads stay inside their rows
        // (`_mm_loadu_si128` tolerates unaligned pointers).
        let wa = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i) as *const __m128i));
        let wb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i) as *const __m128i));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(wa, wb));
        i += 16;
    }
    let quad = _mm_add_epi32(
        _mm256_castsi256_si128(acc),
        _mm256_extracti128_si256(acc, 1),
    );
    let pair = _mm_add_epi32(quad, _mm_shuffle_epi32(quad, 0b01_00_11_10));
    let one = _mm_add_epi32(pair, _mm_shuffle_epi32(pair, 0b00_00_00_01));
    let tail: i32 = (a.iter().zip(b).skip(wide))
        .map(|(&x, &y)| x as i32 * y as i32)
        .sum();
    _mm_cvtsi128_si32(one) + tail
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

/// Rows per tile of the flat index's lane-major code store.
pub(crate) const TILE_ROWS: usize = 64;

/// One lane of one tile: the codes that [`TILE_ROWS`] consecutive rows hold
/// at the same dimension — exactly one cache line, and aligned to one. A tile
/// is `dims` of these, lane 0 first; a row past the end of the store has
/// code `0` in every lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(64))]
pub(crate) struct LaneRows(pub(crate) [i8; TILE_ROWS]);

impl LaneRows {
    pub(crate) const ZERO: LaneRows = LaneRows([0; TILE_ROWS]);
}

/// The query side of the tile kernel: the non-zero codes of one code row.
/// A hashed embedding leaves most of them zero (a question touches about 75
/// of 256 lanes, a DVQ 56), a zero code contributes nothing to any row's
/// dot, and an integer sum does not care in which order its terms arrive —
/// so a scan that walks only this list reads that share of the code store
/// and still computes every row's exact code dot.
#[derive(Debug)]
pub(crate) struct QueryLanes {
    /// Length of the code row this was built from.
    dims: usize,
    /// `(lane, code)` for each `code != 0`, lanes ascending.
    lanes: Vec<(u32, i8)>,
}

impl QueryLanes {
    pub(crate) fn from_codes(codes: &[i8]) -> QueryLanes {
        assert!(
            u32::try_from(codes.len()).is_ok(),
            "code row too long for u32 lane ids"
        );
        let lanes = (codes.iter().enumerate())
            .filter(|(_, &code)| code != 0)
            .map(|(lane, &code)| (lane as u32, code))
            .collect();
        QueryLanes {
            dims: codes.len(),
            lanes,
        }
    }
}

/// Code dots of one query against the [`TILE_ROWS`] rows of one tile:
/// `out[r] = Σ_lane code_q[lane] · tile[lane][r]`, the same `i32` that
/// [`dot_i8`] returns for the query's and row `r`'s code rows. When `tile`
/// sits inside a longer store, the AVX2 kernel prefetches the lanes it reads
/// `tile.len()` elements further on — the next tile (a hint only: past the
/// end of the store it touches nothing).
///
/// # Panics
/// If `tile` is not `dims` lanes long, for the `dims` the query was built
/// from.
#[inline]
pub(crate) fn tile_dots_in(
    kernel: Kernel,
    q: &QueryLanes,
    tile: &[LaneRows],
    out: &mut [i32; TILE_ROWS],
) {
    assert_eq!(tile.len(), q.dims, "tile shape mismatch");
    match kernel.0 {
        Isa::Baseline => {
            out.fill(0);
            for &(lane, code) in &q.lanes {
                let code = code as i32;
                for (o, &c) in out.iter_mut().zip(&tile[lane as usize].0) {
                    *o += code * c as i32;
                }
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: either variant proves AVX2 is present (see `dot_i8_in`).
        Isa::Avx2 | Isa::Vnni => unsafe { tile_dots_avx2(&q.lanes, tile, out) },
    }
}

/// AVX2 tile kernel, two lanes per step. Each lane's 64 codes are widened
/// 16 at a time (`vpmovsxbw`), the two lanes' words interleaved
/// (`vpunpck{l,h}wd`) so every i32 slot holds one row's `(a, b)` pair, and
/// `vpmaddwd` against the broadcast `(q_a, q_b)` pair multiplies and adds
/// both lanes at once into eight accumulators — all 64 rows' dots stay in
/// registers for the whole walk. The unpacks work per 128-bit half, so
/// accumulator `2g` holds rows `16g + {0..4, 8..12}` and `2g + 1` rows
/// `16g + {4..8, 12..16}`; one `vperm2i128` per store puts them back in row
/// order. Bound by the shuffle port: two widenings and two unpacks per 16
/// rows per lane pair, about 14 cycles per pair per tile — which is why the
/// lanes are indexed with their bounds checks left in (one predictable
/// compare per 64 rows).
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_dots_avx2(lanes: &[(u32, i8)], tile: &[LaneRows], out: &mut [i32; TILE_ROWS]) {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_setzero_si256(); 8];
    let mut pairs = lanes.chunks_exact(2);
    for pair in &mut pairs {
        tile_madd_avx2(&mut acc, tile, pair[0], pair[1]);
    }
    if let [last] = *pairs.remainder() {
        // An odd lane out pairs with itself at code 0.
        tile_madd_avx2(&mut acc, tile, last, (last.0, 0));
    }
    let out = out.as_mut_ptr() as *mut __m256i;
    for g in 0..4 {
        let (lo, hi) = (acc[2 * g], acc[2 * g + 1]);
        // SAFETY: `out` is 64 i32s — eight 32-byte stores, `2g + 1 < 8`
        // (`_mm256_storeu_si256` tolerates unaligned pointers).
        _mm256_storeu_si256(out.add(2 * g), _mm256_permute2x128_si256::<0x20>(lo, hi));
        _mm256_storeu_si256(
            out.add(2 * g + 1),
            _mm256_permute2x128_si256::<0x31>(lo, hi),
        );
    }
}

/// One step of [`tile_dots_avx2`]: `acc += code_a · lane_a + code_b · lane_b`
/// over all 64 rows.
///
/// # Safety
/// The CPU must support AVX2.
///
/// # Panics
/// If a lane is not `< tile.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn tile_madd_avx2(
    acc: &mut [std::arch::x86_64::__m256i; 8],
    tile: &[LaneRows],
    (lane_a, code_a): (u32, i8),
    (lane_b, code_b): (u32, i8),
) {
    use std::arch::x86_64::*;
    let (lane_a, lane_b) = (lane_a as usize, lane_b as usize);
    let a = tile[lane_a].0.as_ptr() as *const __m128i;
    let b = tile[lane_b].0.as_ptr() as *const __m128i;
    // The same two lanes of the next tile, one cache line each. Formed with
    // `wrapping_add` because after the last tile the address lies outside
    // the store: a prefetch never faults, and nothing here dereferences it.
    let next = tile.as_ptr().wrapping_add(tile.len());
    _mm_prefetch::<_MM_HINT_T0>(next.wrapping_add(lane_a) as *const i8);
    _mm_prefetch::<_MM_HINT_T0>(next.wrapping_add(lane_b) as *const i8);
    let pair = (code_a as i16 as u16 as u32) | ((code_b as i16 as u16 as u32) << 16);
    let q = _mm256_set1_epi32(pair as i32);
    for g in 0..4 {
        // SAFETY: `a` and `b` each point at one lane's 64 codes and `g < 4`,
        // so each 16-byte load covers codes `16g..16g + 16` of its lane
        // (`_mm_loadu_si128` tolerates unaligned pointers).
        let wa = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.add(g)));
        let wb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.add(g)));
        let lo = _mm256_madd_epi16(_mm256_unpacklo_epi16(wa, wb), q);
        let hi = _mm256_madd_epi16(_mm256_unpackhi_epi16(wa, wb), q);
        acc[2 * g] = _mm256_add_epi32(acc[2 * g], lo);
        acc[2 * g + 1] = _mm256_add_epi32(acc[2 * g + 1], hi);
    }
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

    /// Every kernel this host has — the fallback, AVX2 and AVX-512 VNNI,
    /// each reached through the explicit seam — agrees with the scalar
    /// reference at every length from 0 to 300 (whole 16- and 64-code
    /// blocks and every tail), on every code from −128 to 127, and on
    /// `a == b` (the Σ code² of [`bound_terms`], whose −128s flip to 0 in
    /// the VNNI kernel's unsigned operand).
    #[test]
    fn every_kernel_matches_the_scalar_reference() {
        let extremes = [i8::MIN, -127, -1, 0, 1, 127];
        // Every code, in an order that puts both signs next to each other.
        let all: Vec<i8> = (0..256).map(|i| (i * 167 % 256) as u8 as i8).collect();
        for kernel in Kernel::supported() {
            for n in 0usize..=300 {
                let q: Vec<i8> = (0..n).map(|i| all[(i * 37 + 11) % 256]).collect();
                let rows: Vec<i8> = (0..6 * n)
                    .map(|i| match i / n.max(1) {
                        0 => 127,
                        1 => -127,
                        2 => i8::MIN,
                        3 => extremes[i % extremes.len()],
                        _ => all[(i * 73 + 5) % 256],
                    })
                    .collect();
                let query = QueryCodes::new(&q);
                for r in rows.chunks_exact(n.max(1)).chain([q.as_slice()]) {
                    let want = dot_i8_reference(&q, r);
                    assert_eq!(dot_i8_in(kernel, &q, r), want, "{kernel:?} n={n}");
                    assert_eq!(query.dot_in(kernel, r), want, "{kernel:?} n={n} query");
                    assert_eq!(
                        dot_i8_in(kernel, r, r),
                        dot_i8_reference(r, r),
                        "{kernel:?} n={n} a == b"
                    );
                }
            }
            // The worst case of the i32 headroom: 300 × (−128)² and
            // 300 × (−128 · 127), both ways round.
            let (lo, hi) = ([i8::MIN; 300], [127i8; 300]);
            assert_eq!(dot_i8_in(kernel, &lo, &lo), 300 * 128 * 128, "{kernel:?}");
            assert_eq!(dot_i8_in(kernel, &lo, &hi), -300 * 128 * 127, "{kernel:?}");
            assert_eq!(dot_i8_in(kernel, &hi, &lo), -300 * 128 * 127, "{kernel:?}");
            assert_eq!(
                QueryCodes::new(&lo).dot_in(kernel, &lo),
                300 * 128 * 128,
                "{kernel:?}"
            );
            assert_eq!(
                QueryCodes::new(&lo).dot_in(kernel, &hi),
                -300 * 128 * 127,
                "{kernel:?}"
            );
        }
    }

    /// Lane-major copy of 64 row-major code rows (`rows[r * dims + lane]`).
    fn tile_of(rows: &[i8], dims: usize) -> Vec<LaneRows> {
        let mut tile = vec![LaneRows::ZERO; dims];
        for (r, row) in rows.chunks_exact(dims).enumerate() {
            for (lane, &code) in tile.iter_mut().zip(row) {
                lane.0[r] = code;
            }
        }
        tile
    }

    /// A code row with `-128`, `±127` and `0` all likely.
    fn spiky(raw: u8) -> i8 {
        match raw % 8 {
            0 => i8::MIN,
            1 => 127,
            2 => -127,
            3 => 0,
            _ => raw as i8,
        }
    }

    proptest::proptest! {
        /// The tile kernel returns, for every row of a tile, the code dot
        /// the pairwise kernel's scalar reference returns — on both kernels,
        /// for query rows with no, one, an odd few, about a third (a hashed
        /// question) and only non-zero codes, and strides on both sides of
        /// every kernel width.
        #[test]
        fn tile_dots_match_the_scalar_reference(
            raw in proptest::collection::vec(0u8..=255, 300 * (TILE_ROWS + 2)),
            dims in proptest::sample::select(vec![1usize, 3, 63, 64, 65, 256, 300]),
            keep in 0usize..5,
        ) {
            let (raw_q, rest) = raw.split_at(300);
            let (order_keys, raw_rows) = rest.split_at(300);
            let rows: Vec<i8> = raw_rows[..dims * TILE_ROWS].iter().map(|&b| spiky(b)).collect();
            // Keep `kept` lanes of the query, chosen by the random keys, and
            // make sure each of them is non-zero; zero the rest.
            let kept = [0, 1, 3, (dims / 3) | 1, dims][keep].min(dims);
            let mut order: Vec<usize> = (0..dims).collect();
            order.sort_by_key(|&lane| (order_keys[lane], lane));
            let mut q = vec![0i8; dims];
            for &lane in &order[..kept] {
                q[lane] = match spiky(raw_q[lane]) {
                    0 => i8::MIN,
                    code => code,
                };
            }
            let lanes = QueryLanes::from_codes(&q);
            proptest::prop_assert_eq!(lanes.lanes.len(), kept);
            let tile = tile_of(&rows, dims);
            let want: Vec<i32> = rows.chunks_exact(dims).map(|r| dot_i8_reference(&q, r)).collect();
            for kernel in Kernel::supported() {
                let mut got = [i32::MIN; TILE_ROWS];
                tile_dots_in(kernel, &lanes, &tile, &mut got);
                proptest::prop_assert_eq!(got.as_slice(), want.as_slice(), "{:?} dims={}", kernel, dims);
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
