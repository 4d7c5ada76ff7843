//! Flat, SIMD-friendly top-K cosine retrieval.
//!
//! Vectors live in one contiguous row-major `Vec<f32>` with a fixed `dims`
//! stride and are **L2-normalised on insert**, so scoring a pair is a single
//! fused dot product (cosine of the normalised pair) instead of the three
//! passes a naive `dot / (|a|·|b|)` costs per comparison. The scan is
//! exact — a linear pass with a bounded min-heap — but it is memory-bound,
//! so it reads a fraction of the bytes: every row also has an 8-bit code
//! sidecar, an integer dot over the codes gives a *provable upper bound* on
//! the row's f32 score. The scan bounds every row first, rescores the `k`
//! rows with the highest bounds to set a floor, and then runs the f32 dot
//! only on rows whose bound reaches it. Skipped rows are exactly rows the
//! f32 scan would have scored and then discarded, so ids, order and scores
//! are unchanged by construction (see DESIGN.md §5 for the inequality and
//! measurements).
//!
//! The codes are stored **lane-major in tiles of 64 rows** (one cache line
//! per lane per tile), because a hashed embedding is mostly zeros: the scan
//! walks only the lanes where the *query's* code is non-zero — about 75 of
//! 256 for a question — and an integer dot does not care which order its
//! terms arrive in, so the code dot, the bound and everything after it are
//! the same numbers for under a third of the bytes.
//!
//! Determinism: scores are bit-exact regardless of thread count or CPU
//! because each surviving row's dot product is computed identically, the
//! prefilter is integer arithmetic, and chunk results are merged in chunk
//! order; ties break toward lower ids everywhere.

use crate::embedder::l2_normalize;
use crate::quant::{self, Kernel, LaneRows, QueryLanes, TILE_ROWS};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scored hit returned by [`VectorIndex::top_k`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    pub id: usize,
    pub score: f32,
}

// Min-heap ordering by score (ties broken by id for determinism).
#[derive(Debug, PartialEq)]
struct HeapItem(Hit);

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the *worst* on top —
        // lowest score first, and among ties the *largest* id (so lower ids
        // survive eviction). `total_cmp` keeps the order coherent even for
        // NaN scores (possible only if callers insert non-finite vectors).
        other
            .0
            .score
            .total_cmp(&self.0.score)
            .then_with(|| self.0.id.cmp(&other.0.id))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Bounded best-`k` accumulator for a scan that visits rows in ascending id
/// order (`k ≥ 1`).
struct TopK {
    k: usize,
    heap: BinaryHeap<HeapItem>,
    /// Score at or below which a row cannot enter a full heap. Ids grow
    /// with the scan, so a row that merely *ties* the current k-th best
    /// loses the lower-id-wins tie-break and is dropped without heap
    /// traffic — the common case once the heap is warm.
    floor: f32,
}

impl TopK {
    fn new(k: usize) -> TopK {
        debug_assert!(k > 0, "the floor bookkeeping peeks a non-empty heap");
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
            floor: f32::NEG_INFINITY,
        }
    }

    /// Whether a row scoring at most `bound` is certain to be dropped.
    /// Written so a NaN bound (non-finite input) is never rejected.
    #[inline]
    fn rejects(&self, bound: f32) -> bool {
        bound <= self.floor && self.heap.len() >= self.k
    }

    #[inline]
    fn offer(&mut self, id: usize, score: f32) {
        if self.rejects(score) {
            return;
        }
        self.heap.push(HeapItem(Hit { id, score }));
        if self.heap.len() > self.k {
            self.heap.pop();
        }
        if self.heap.len() >= self.k {
            self.floor = self.heap.peek().expect("heap is non-empty").0.score;
        }
    }

    fn into_sorted(self) -> Vec<Hit> {
        let mut hits: Vec<Hit> = self.heap.into_iter().map(|h| h.0).collect();
        hits.sort_unstable_by(best_first);
        hits
    }

    /// The held hits in ascending id order.
    fn into_by_id(self) -> Vec<Hit> {
        let mut hits: Vec<Hit> = self.heap.into_iter().map(|h| h.0).collect();
        hits.sort_unstable_by_key(|h| h.id);
        hits
    }
}

/// Best-first ordering shared by every sort in this module — and by any
/// other index implementation that wants to match the flat scan's output
/// contract: descending score under `total_cmp`, ties toward lower ids.
#[inline]
pub fn best_first(a: &Hit, b: &Hit) -> Ordering {
    b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id))
}

/// Fused dot product over the x86-64 baseline SIMD (SSE2), eight independent
/// 4-lane accumulators.
///
/// Written with intrinsics rather than a hand-unrolled scalar loop because
/// LLVM's auto-vectorisation of the latter is fragile across inlining
/// contexts — in release builds of downstream crates it kept the packed
/// arithmetic but scalarised the *loads* (element `movss` + shuffle soup),
/// halving throughput. The eight accumulators break the FP-add dependency
/// chain so the loop retires multiple multiply-adds per cycle.
///
/// Safety: `_mm_loadu_ps` tolerates unaligned pointers, and every load is
/// bounds-limited by `n` below.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let blocks = n / 32;
    unsafe {
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm_setzero_ps();
        let mut acc1 = _mm_setzero_ps();
        let mut acc2 = _mm_setzero_ps();
        let mut acc3 = _mm_setzero_ps();
        let mut acc4 = _mm_setzero_ps();
        let mut acc5 = _mm_setzero_ps();
        let mut acc6 = _mm_setzero_ps();
        let mut acc7 = _mm_setzero_ps();
        for blk in 0..blocks {
            let i = blk * 32;
            acc0 = _mm_add_ps(
                acc0,
                _mm_mul_ps(_mm_loadu_ps(pa.add(i)), _mm_loadu_ps(pb.add(i))),
            );
            acc1 = _mm_add_ps(
                acc1,
                _mm_mul_ps(_mm_loadu_ps(pa.add(i + 4)), _mm_loadu_ps(pb.add(i + 4))),
            );
            acc2 = _mm_add_ps(
                acc2,
                _mm_mul_ps(_mm_loadu_ps(pa.add(i + 8)), _mm_loadu_ps(pb.add(i + 8))),
            );
            acc3 = _mm_add_ps(
                acc3,
                _mm_mul_ps(_mm_loadu_ps(pa.add(i + 12)), _mm_loadu_ps(pb.add(i + 12))),
            );
            acc4 = _mm_add_ps(
                acc4,
                _mm_mul_ps(_mm_loadu_ps(pa.add(i + 16)), _mm_loadu_ps(pb.add(i + 16))),
            );
            acc5 = _mm_add_ps(
                acc5,
                _mm_mul_ps(_mm_loadu_ps(pa.add(i + 20)), _mm_loadu_ps(pb.add(i + 20))),
            );
            acc6 = _mm_add_ps(
                acc6,
                _mm_mul_ps(_mm_loadu_ps(pa.add(i + 24)), _mm_loadu_ps(pb.add(i + 24))),
            );
            acc7 = _mm_add_ps(
                acc7,
                _mm_mul_ps(_mm_loadu_ps(pa.add(i + 28)), _mm_loadu_ps(pb.add(i + 28))),
            );
        }
        let mut i = blocks * 32;
        while i + 4 <= n {
            acc0 = _mm_add_ps(
                acc0,
                _mm_mul_ps(_mm_loadu_ps(pa.add(i)), _mm_loadu_ps(pb.add(i))),
            );
            i += 4;
        }
        let s01 = _mm_add_ps(_mm_add_ps(acc0, acc4), _mm_add_ps(acc1, acc5));
        let s23 = _mm_add_ps(_mm_add_ps(acc2, acc6), _mm_add_ps(acc3, acc7));
        let s = _mm_add_ps(s01, s23);
        let hi = _mm_movehl_ps(s, s);
        let pair = _mm_add_ps(s, hi);
        let one = _mm_add_ss(pair, _mm_shuffle_ps(pair, pair, 1));
        let mut sum = _mm_cvtss_f32(one);
        while i < n {
            sum += a[i] * b[i];
            i += 1;
        }
        sum
    }
}

/// Portable fallback: [`dot_portable`].
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_portable(a, b)
}

/// The x86 kernel's arithmetic in plain Rust, compiled on every target: the
/// same 32 lane slots (eight 4-lane accumulators, one 32-wide block at a
/// time), the same tail (4-lane chunks into the first accumulator before the
/// reduction, the last `len % 4` products one at a time after it) and the
/// same reduction tree, so a pair scores the same bits on every host. It is
/// [`dot`] where SSE2 is not the baseline, and the reference the x86 kernels
/// are tested against (their only use of it).
#[cfg_attr(all(target_arch = "x86_64", not(test)), allow(dead_code))]
#[inline]
pub(crate) fn dot_portable(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [[0f32; 4]; 8];
    let mut ca = a.chunks_exact(32);
    let mut cb = b.chunks_exact(32);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for (slot, (qa, qb)) in acc
            .iter_mut()
            .zip(xa.chunks_exact(4).zip(xb.chunks_exact(4)))
        {
            for lane in 0..4 {
                slot[lane] += qa[lane] * qb[lane];
            }
        }
    }
    let mut qa = ca.remainder().chunks_exact(4);
    let mut qb = cb.remainder().chunks_exact(4);
    for (xa, xb) in (&mut qa).zip(&mut qb) {
        for lane in 0..4 {
            acc[0][lane] += xa[lane] * xb[lane];
        }
    }
    let s: [f32; 4] = std::array::from_fn(|l| {
        ((acc[0][l] + acc[4][l]) + (acc[1][l] + acc[5][l]))
            + ((acc[2][l] + acc[6][l]) + (acc[3][l] + acc[7][l]))
    });
    let mut sum = (s[0] + s[2]) + (s[1] + s[3]);
    for (x, y) in qa.remainder().iter().zip(qb.remainder()) {
        sum += x * y;
    }
    sum
}

/// Rows below which a scan stays on the calling thread. Measured on the
/// tiled scan (2 vCPUs, 256 dims, min of 25 runs over 32 rotated queries;
/// DESIGN.md §5 has the table), not assumed: a scoped spawn + join costs
/// 70–100 µs here, and the whole paper library (6100 rows) scans in 35–50 µs
/// for a hashed question and ~95 µs for a dense query, so fanning out there
/// triples the latency. Two threads lose at 16k rows for either kind of
/// query (dense 256 → 285 µs, hashed 103 → 182 µs), a dense query wins from
/// here on (32 768: 540 → 440 µs; 100k: 1.61 → 0.99 ms) and a hashed one,
/// whose scan is a third of the work, breaks even here (209 → 221 µs) and
/// wins from 50k (340 → 291 µs; 100k: 646 → 544 µs).
const PAR_SCAN_THRESHOLD: usize = 32_768;

/// Per-row constants of the prefilter bound (see [`quant::bound_terms`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct RowBound {
    /// Quantization step: decoded row `v̂ = codes · scale`.
    scale: f32,
    /// `‖codes‖` — `‖v̂‖` in code units.
    code_norm: f32,
    /// `‖v / scale − codes‖` — `‖v − v̂‖` in code units; infinite when the
    /// row has a non-finite component.
    residual: f32,
}

/// Encode one stored row, appending its codes to `codes`.
fn encode_bound(row: &[f32], codes: &mut Vec<i8>) -> RowBound {
    let start = codes.len();
    let scale = quant::encode_row(row, codes);
    let (code_norm, residual) = quant::bound_terms(row, &codes[start..], scale);
    RowBound {
        scale,
        code_norm,
        residual,
    }
}

/// The query side of the prefilter: its non-zero codes plus the coefficients
/// that turn a row's integer code dot into an upper bound on
/// `dot(query, row).clamp(-1, 1)` **as the f32 kernel computes it**:
///
/// ```text
/// ub = scale_q · scale_v · (code_dot + on_norm · ‖c_v‖ + on_residual · ‖r_v‖) + slack
/// ```
///
/// where `c` are codes and `r = v / scale − c` residuals, all in code units
/// so nothing underflows however small the vectors are. With exact
/// arithmetic `on_norm = ‖r_q‖` and `on_residual = ‖q / scale_q‖`
/// (Cauchy–Schwarz on the two cross terms of `q·v = q̂·v̂ + (q−q̂)·v̂ +
/// q·(v−v̂)`). Both are inflated by a relative margin `κ = (dims + 32) · ε`
/// of `‖q‖·(‖c_v‖ + ‖r_v‖) ≥ ‖q‖·‖v‖`, which pays for every rounding on
/// the way: the f32 dot's own error (at most `dims · ε/2` of
/// `Σ|qᵢvᵢ| ≤ ‖q‖‖v‖` for any summation order), the f32 norms and residuals
/// on both sides (`≈ dims · ε/4` each), and the handful of roundings in
/// evaluating `ub` itself — about half of `κ` in total. `slack` is absolute
/// and covers the one place a relative margin cannot: `scale_q · scale_v`
/// underflowing, where the whole score is below
/// `MIN_POSITIVE · 127² · dims`. A non-finite (or denormal) query makes the
/// coefficients infinite, so `ub` is `+∞` or NaN: no row seeds the floor
/// or falls below it, and every row is rescored.
struct QueryBound {
    lanes: QueryLanes,
    scale: f32,
    on_norm: f32,
    on_residual: f32,
    slack: f32,
}

impl QueryBound {
    fn new(query: &[f32]) -> QueryBound {
        let mut codes = Vec::with_capacity(query.len());
        let q = encode_bound(query, &mut codes);
        let width = (query.len() + 32) as f32;
        let margin = width * f32::EPSILON;
        // ‖q/scale‖ ≤ ‖c_q‖ + ‖r_q‖: one triangle inequality is cheaper
        // than a third pass over the query and costs the bound ~1e-4 of
        // tightness.
        let norm = (q.code_norm + q.residual) * (1.0 + margin);
        QueryBound {
            lanes: QueryLanes::from_codes(&codes),
            scale: q.scale,
            on_norm: q.residual * (1.0 + margin) + norm * margin,
            on_residual: norm * (1.0 + margin),
            slack: f32::MIN_POSITIVE * 16384.0 * width,
        }
    }

    /// Upper bound on the clamped f32 score of a row with this `code_dot`.
    #[inline]
    fn upper(&self, code_dot: i32, row: RowBound) -> f32 {
        (self.scale * row.scale)
            * (code_dot as f32 + self.on_norm * row.code_norm + self.on_residual * row.residual)
            + self.slack
    }
}

/// The prefilter's bound for one `(query, row)` pair, exactly as the scan
/// evaluates it — so tests can check the inequality itself, not only its
/// consequences for top-k.
#[cfg(test)]
pub(crate) fn upper_bound(query: &[f32], row: &[f32]) -> f32 {
    let (mut codes, mut query_codes) = (Vec::new(), Vec::new());
    let row_bound = encode_bound(row, &mut codes);
    quant::encode_row(query, &mut query_codes);
    QueryBound::new(query).upper(quant::dot_i8(&query_codes, &codes), row_bound)
}

/// An append-only exact cosine index over a contiguous row-major store.
///
/// Rows are L2-normalised copies of the inserted vectors; [`VectorIndex::get`]
/// therefore returns the *normalised* row. Scores returned by `top_k` equal
/// the cosine similarity of the original pair (clamped to `[-1, 1]`), with
/// the zero vector scoring `0.0` against everything, matching
/// [`crate::embedder::cosine`].
#[derive(Debug, Clone, Default)]
pub struct VectorIndex {
    /// Row stride; fixed by the first inserted vector.
    dims: usize,
    /// Row-major normalised vectors, `len / dims` rows.
    data: Vec<f32>,
    /// SQ8 sidecar, derived from `data` and never persisted: one
    /// [`RowBound`] per row, and the rows' codes lane-major in tiles of
    /// [`TILE_ROWS`] — tile `t` is `codes[t * dims..(t + 1) * dims]`, lane
    /// `l` of row `id` is `codes[id / 64 * dims + l].0[id % 64]`. Always
    /// whole tiles, `len().div_ceil(64) * dims` lanes; the slots past the
    /// last row hold code `0` and are never offered. Every path that grows
    /// `data` grows these in step.
    codes: Vec<LaneRows>,
    bounds: Vec<RowBound>,
    /// One row of codes on its way from the encoder into its tile — kept so
    /// an insert does not allocate.
    row_codes: Vec<i8>,
}

impl VectorIndex {
    pub fn new() -> Self {
        VectorIndex::default()
    }

    /// Reserve for `n` vectors of the default [`crate::EmbedConfig`] width.
    /// Prefer [`VectorIndex::with_capacity_dims`] when the stride is known —
    /// this guess over-reserves for narrow configs and regrows for wide ones.
    pub fn with_capacity(n: usize) -> Self {
        VectorIndex::with_capacity_dims(n, crate::EmbedConfig::default().dims)
    }

    /// Reserve for `n` vectors of `dims` elements each (whole code tiles, so
    /// a build of the announced size never regrows any buffer).
    pub fn with_capacity_dims(n: usize, dims: usize) -> Self {
        VectorIndex {
            dims: 0,
            data: Vec::with_capacity(n.saturating_mul(dims)),
            codes: Vec::with_capacity(n.div_ceil(TILE_ROWS).saturating_mul(dims)),
            bounds: Vec::with_capacity(n),
            row_codes: Vec::with_capacity(dims),
        }
    }

    /// Reassemble an index from a previously captured raw store (see
    /// [`VectorIndex::raw_rows`]) without re-normalising: `data` must hold
    /// row-major **already L2-normalised** rows of stride `dims`, exactly as
    /// a live index stores them. This is the snapshot-restore path — feeding
    /// it unnormalised rows silently skews every cosine score, so only pass
    /// bytes that came out of `raw_rows`. The code sidecar is rebuilt here,
    /// straight into its final buffers, so a restored index scans exactly
    /// like the one that was captured.
    pub fn from_parts(dims: usize, data: Vec<f32>) -> Result<VectorIndex, String> {
        if data.is_empty() {
            return Ok(VectorIndex::new());
        }
        if dims == 0 {
            return Err("vector index stride must be non-zero".to_string());
        }
        if !data.len().is_multiple_of(dims) {
            return Err(format!(
                "raw store length {} is not a multiple of stride {dims}",
                data.len()
            ));
        }
        let rows = data.len() / dims;
        let mut index = VectorIndex {
            dims,
            data,
            codes: Vec::with_capacity(rows.div_ceil(TILE_ROWS) * dims),
            bounds: Vec::with_capacity(rows),
            row_codes: Vec::with_capacity(dims),
        };
        for _ in 0..rows {
            index.encode_next_row();
        }
        Ok(index)
    }

    /// The raw row-major store behind the index: `(stride, rows)`. Rows are
    /// the L2-normalised vectors in insertion order — the exact bytes
    /// [`VectorIndex::from_parts`] accepts back.
    pub fn raw_rows(&self) -> (usize, &[f32]) {
        (self.dims, &self.data)
    }

    /// Add a vector; returns its id. The vector is stored L2-normalised.
    ///
    /// # Panics
    /// If `v`'s length differs from previously inserted vectors'.
    pub fn add(&mut self, v: Vec<f32>) -> usize {
        self.add_slice(&v)
    }

    /// [`VectorIndex::add`] without taking ownership (callers can reuse a
    /// scratch buffer filled by `embed_into`).
    pub fn add_slice(&mut self, v: &[f32]) -> usize {
        if self.data.is_empty() {
            assert!(!v.is_empty(), "cannot index zero-dimensional vectors");
            self.dims = v.len();
        } else {
            assert_eq!(v.len(), self.dims, "inconsistent vector dimensionality");
        }
        let start = self.data.len();
        self.data.extend_from_slice(v);
        l2_normalize(&mut self.data[start..]);
        self.encode_next_row();
        start / self.dims
    }

    /// Give the first stored row that has no sidecar yet (row
    /// `bounds.len()`) its bound and its codes.
    fn encode_next_row(&mut self) {
        let (dims, id) = (self.dims, self.bounds.len());
        self.row_codes.clear();
        let row = &self.data[id * dims..(id + 1) * dims];
        self.bounds.push(encode_bound(row, &mut self.row_codes));
        let (tile, slot) = tile_slot(&mut self.codes, dims, id);
        for (lane, &code) in tile.iter_mut().zip(&self.row_codes) {
            lane.0[slot] = code;
        }
    }

    /// Move every row of `other` onto the end of this index, keeping their
    /// order. Rows are already normalised and encoded, so when this index
    /// ends on a tile boundary it is three buffer appends — bulk builders
    /// fill partial indexes of whole tiles on worker threads and stitch them
    /// here. Otherwise `other`'s tiles do not line up with this index's and
    /// its codes are moved slot by slot.
    ///
    /// # Panics
    /// If both indexes hold rows and their strides differ.
    pub fn append(&mut self, other: VectorIndex) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.dims = other.dims;
        } else {
            assert_eq!(other.dims, self.dims, "inconsistent vector dimensionality");
        }
        let start = self.len();
        self.data.extend_from_slice(&other.data);
        self.bounds.extend_from_slice(&other.bounds);
        if start.is_multiple_of(TILE_ROWS) {
            self.codes.extend_from_slice(&other.codes);
            return;
        }
        for (from, tile) in other.codes.chunks_exact(other.dims).enumerate() {
            let rows = (other.len() - from * TILE_ROWS).min(TILE_ROWS);
            for row in 0..rows {
                let id = start + from * TILE_ROWS + row;
                let (into, slot) = tile_slot(&mut self.codes, self.dims, id);
                for (to, lane) in into.iter_mut().zip(tile) {
                    to.0[slot] = lane.0[row];
                }
            }
        }
    }

    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dims).unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The vector dimensionality (0 until the first insert).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The stored (L2-normalised) row for `id`.
    pub fn get(&self, id: usize) -> Option<&[f32]> {
        if id < self.len() {
            Some(&self.data[id * self.dims..(id + 1) * self.dims])
        } else {
            None
        }
    }

    /// The `k` nearest vectors by cosine similarity, best first. Ties break
    /// toward lower ids, so results are deterministic.
    pub fn top_k(&self, query: &[f32], k: usize) -> Vec<Hit> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        assert_eq!(query.len(), self.dims, "query dimensionality mismatch");
        let mut q = query.to_vec();
        l2_normalize(&mut q);
        self.top_k_prenormalized(&q, k)
    }

    /// `top_k` for a query that is already L2-normalised (the embedder's
    /// output invariant) — skips the defensive copy + renormalisation.
    pub fn top_k_prenormalized(&self, query: &[f32], k: usize) -> Vec<Hit> {
        self.top_k_prenormalized_in(t2v_parallel::thread_count(), query, k)
    }

    /// [`VectorIndex::top_k_prenormalized`] with an explicit worker count —
    /// a test seam for exercising multi-threaded chunking on any host.
    #[doc(hidden)]
    pub fn top_k_prenormalized_in(&self, threads: usize, query: &[f32], k: usize) -> Vec<Hit> {
        self.top_k_with(Kernel::detect(), threads, query, k)
    }

    /// The one scan entry point: explicit integer kernel and worker count.
    /// Neither can change a result — only how fast it arrives.
    pub(crate) fn top_k_with(
        &self,
        kernel: Kernel,
        threads: usize,
        query: &[f32],
        k: usize,
    ) -> Vec<Hit> {
        let threads = if self.len() < PAR_SCAN_THRESHOLD {
            1
        } else {
            threads
        };
        self.top_k_chunked(kernel, threads, PAR_SCAN_THRESHOLD / 2, query, k)
    }

    /// [`VectorIndex::top_k_with`] below its threshold: up to `threads`
    /// chunks of at least `min_rows` rows each, one chunk meaning no thread
    /// is spawned. Split out so tests can chunk a store of a few tiles.
    pub(crate) fn top_k_chunked(
        &self,
        kernel: Kernel,
        threads: usize,
        min_rows: usize,
        query: &[f32],
        k: usize,
    ) -> Vec<Hit> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        assert_eq!(query.len(), self.dims, "query dimensionality mismatch");
        let bound = QueryBound::new(query);
        // Sizes in *elements* of `data`; granularity = one tile's worth of
        // rows, so a chunk always starts on the first row of a code tile
        // (and between rows, never through one).
        let tile = TILE_ROWS * self.dims;
        t2v_parallel::par_chunk_reduce_in(
            threads,
            &self.data,
            min_rows * self.dims,
            tile,
            |offset, chunk| {
                debug_assert_eq!(offset % tile, 0);
                debug_assert_eq!(chunk.len() % self.dims, 0);
                self.scan(kernel, offset / tile, chunk, query, &bound, k)
            },
            |a, b| merge_topk(a, b, k),
        )
        .unwrap_or_default()
    }

    /// Exact scan over `chunk` (the rows from the start of tile
    /// `first_tile` on), returning up to `k` hits sorted best-first. The
    /// sidecar is indexed by global tile and row id, so a chunk deep inside
    /// the store reads its own codes.
    ///
    /// Three steps, so the floor is warm before the first rescore:
    /// 1. bound every row (`ub`) and keep the `k` rows with the highest
    ///    finite bounds;
    /// 2. rescore those `k`; the lowest of their scores is `floor` (`−∞`
    ///    when the chunk holds fewer than `k` such rows or one scores NaN);
    /// 3. rescore, in ascending id order, every other row that can still
    ///    reach `floor`, through [`TopK`] as the f32 scan would.
    ///
    /// A row skipped in step 3 scores at most `max(ub, −1)` (clamping lifts
    /// a restored non-unit row's raw dot below −1 to −1), which is below
    /// `floor`; `k` rows score at least `floor`, so the final k-th best does
    /// too and the skipped row is strictly below it — no tie-break can
    /// admit it.
    fn scan(
        &self,
        kernel: Kernel,
        first_tile: usize,
        chunk: &[f32],
        query: &[f32],
        bound: &QueryBound,
        k: usize,
    ) -> Vec<Hit> {
        let dims = self.dims;
        let first = first_tile * TILE_ROWS;
        let rows = chunk.len() / dims;
        let row = |id: usize| &chunk[(id - first) * dims..][..dims];
        UPPERS.with_borrow_mut(|uppers| {
            uppers.clear();
            let mut seeds = TopK::new(k);
            let mut code_dots = [0i32; TILE_ROWS];
            for t in 0..rows.div_ceil(TILE_ROWS) {
                let tile = first_tile + t;
                let codes = &self.codes[tile * dims..(tile + 1) * dims];
                quant::tile_dots_in(kernel, &bound.lanes, codes, &mut code_dots);
                // The last tile may be short: its spare slots hold zero
                // codes and no row, and are not visited.
                let ids = tile * TILE_ROWS..(first + rows).min((tile + 1) * TILE_ROWS);
                let start = uppers.len();
                uppers.extend(
                    code_dots
                        .iter()
                        .zip(&self.bounds[ids])
                        .map(|(&code_dot, &row)| bound.upper(code_dot, row)),
                );
                for (id, &ub) in (first + start..).zip(&uppers[start..]) {
                    // `seeds.floor` is −∞ until `k` are held, so this is
                    // "finite and not rejected", one compare in the usual case.
                    if ub > seeds.floor && ub < f32::INFINITY {
                        seeds.offer(id, ub);
                    }
                }
            }

            let mut seeds = seeds.into_by_id();
            if seeds.len() < k {
                seeds.clear();
            }
            for seed in &mut seeds {
                seed.score = rescore(query, row(seed.id));
            }
            // Skip a row iff `max(ub, -1) < floor`. No seeds, a NaN seed or
            // a floor of -1 or less skips nothing, and a NaN bound never
            // compares below the cut.
            let floor = seeds
                .iter()
                .map(|seed| seed.score)
                .fold(f32::INFINITY, f32::min);
            let sound = !seeds.is_empty() && seeds.iter().all(|seed| !seed.score.is_nan());
            let cut = if sound && -1.0 < floor {
                floor
            } else {
                f32::NEG_INFINITY
            };
            let mut top = TopK::new(k);
            // Every seed is kept (its bound is at least its score, which is
            // at least `floor`), so the seeds meet the kept rows in id order.
            let mut seeds = seeds.into_iter().peekable();
            for (t, tile) in uppers.chunks(TILE_ROWS).enumerate() {
                let mut skip = 0u64;
                for (j, &ub) in tile.iter().enumerate() {
                    skip |= u64::from(ub < cut) << j;
                }
                let mut keep = !skip & (u64::MAX >> (TILE_ROWS - tile.len()));
                while keep != 0 {
                    let j = keep.trailing_zeros() as usize;
                    keep &= keep - 1;
                    let id = first + t * TILE_ROWS + j;
                    let seed = seeds.next_if(|seed| seed.id == id);
                    if top.rejects(tile[j]) {
                        continue;
                    }
                    let score = seed.map_or_else(|| rescore(query, row(id)), |seed| seed.score);
                    top.offer(id, score);
                }
            }
            top.into_sorted()
        })
    }
}

thread_local! {
    /// Every row's bound for the chunk a thread is scanning, reused across
    /// scans.
    static UPPERS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

#[cfg(test)]
thread_local! {
    /// The f32 dots [`rescore`] has run on this thread.
    static RESCORED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A row's exact score: the f32 dot the scan's answer is made of.
#[inline]
fn rescore(query: &[f32], row: &[f32]) -> f32 {
    #[cfg(test)]
    RESCORED.set(RESCORED.get() + 1);
    dot(query, row).clamp(-1.0, 1.0)
}

/// The tile that row `id` — the last row or the one after it — lands in and
/// its slot there, opening a zeroed tile when `id` is the first row of one.
fn tile_slot(codes: &mut Vec<LaneRows>, dims: usize, id: usize) -> (&mut [LaneRows], usize) {
    let first = id / TILE_ROWS * dims;
    if codes.len() == first {
        codes.resize(first + dims, LaneRows::ZERO);
    }
    (&mut codes[first..first + dims], id % TILE_ROWS)
}

/// Merge two best-first hit lists, keeping the best `k` (ties toward lower
/// ids). Deterministic for any chunking because scores are bit-exact.
fn merge_topk(a: Vec<Hit>, b: Vec<Hit>, k: usize) -> Vec<Hit> {
    let mut out = Vec::with_capacity((a.len() + b.len()).min(k));
    let (mut ia, mut ib) = (0, 0);
    while out.len() < k && (ia < a.len() || ib < b.len()) {
        let take_a = match (a.get(ia), b.get(ib)) {
            (Some(x), Some(y)) => best_first(x, y) != Ordering::Greater,
            (Some(_), None) => true,
            _ => false,
        };
        if take_a {
            out.push(a[ia]);
            ia += 1;
        } else {
            out.push(b[ib]);
            ib += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(dir: usize, dims: usize) -> Vec<f32> {
        let mut v = vec![0.0; dims];
        v[dir] = 1.0;
        v
    }

    /// The scan as it was before the prefilter — every row through the f32
    /// dot, one thread — kept as the oracle the two-level scan must equal
    /// hit for hit and bit for bit.
    fn f32_scan(idx: &VectorIndex, query: &[f32], k: usize) -> Vec<Hit> {
        if k == 0 {
            return Vec::new();
        }
        let mut top = TopK::new(k);
        for (id, v) in idx.data.chunks_exact(idx.dims.max(1)).enumerate() {
            top.offer(id, dot(query, v).clamp(-1.0, 1.0));
        }
        top.into_sorted()
    }

    fn normalized(mut q: Vec<f32>) -> Vec<f32> {
        l2_normalize(&mut q);
        q
    }

    #[test]
    fn top_k_orders_by_similarity() {
        let mut idx = VectorIndex::new();
        idx.add(unit(0, 4)); // id 0
        idx.add(unit(1, 4)); // id 1
        idx.add(vec![0.9, 0.1, 0.0, 0.0]); // id 2, close to e0
        let hits = idx.top_k(&unit(0, 4), 2);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[1].id, 2);
    }

    #[test]
    fn top_k_larger_than_len_returns_all() {
        let mut idx = VectorIndex::new();
        idx.add(unit(0, 3));
        idx.add(unit(1, 3));
        let hits = idx.top_k(&unit(0, 3), 10);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn top_k_zero_is_empty() {
        let mut idx = VectorIndex::new();
        idx.add(unit(0, 3));
        assert!(idx.top_k(&unit(0, 3), 0).is_empty());
        assert!(VectorIndex::new().top_k(&unit(0, 3), 3).is_empty());
    }

    #[test]
    fn ties_break_toward_lower_ids() {
        let mut idx = VectorIndex::new();
        idx.add(unit(1, 4));
        idx.add(unit(1, 4));
        idx.add(unit(1, 4));
        let hits = idx.top_k(&unit(1, 4), 2);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[1].id, 1);
    }

    #[test]
    fn monotone_in_k() {
        let mut idx = VectorIndex::new();
        for i in 0..20 {
            let mut v = vec![0.1f32; 8];
            v[i % 8] += i as f32 * 0.05;
            idx.add(v);
        }
        let q = vec![1.0; 8];
        let a = idx.top_k(&q, 3);
        let b = idx.top_k(&q, 6);
        assert_eq!(&b[..3], &a[..]);
    }

    #[test]
    fn stored_rows_are_normalized() {
        let mut idx = VectorIndex::new();
        idx.add(vec![3.0, 4.0]);
        let row = idx.get(0).unwrap();
        assert!((row[0] - 0.6).abs() < 1e-6);
        assert!((row[1] - 0.8).abs() < 1e-6);
        assert!(idx.get(1).is_none());
    }

    #[test]
    fn zero_query_scores_zero_everywhere() {
        // Regression: NaN-unsafe `partial_cmp(..).unwrap_or(Equal)` used to
        // corrupt ordering silently for edge-case queries. With pre-normalised
        // storage a zero query yields exact 0.0 scores and id-ordered hits.
        let mut idx = VectorIndex::new();
        for i in 0..5 {
            idx.add(unit(i % 3, 3));
        }
        let hits = idx.top_k(&[0.0, 0.0, 0.0], 3);
        assert_eq!(hits.len(), 3);
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.score, 0.0);
            assert_eq!(h.id, i, "ties on a zero query must break by id");
        }
    }

    #[test]
    fn zero_stored_vector_scores_zero() {
        let mut idx = VectorIndex::new();
        idx.add(vec![0.0, 0.0]);
        idx.add(vec![1.0, 0.0]);
        let hits = idx.top_k(&[1.0, 0.0], 2);
        assert_eq!(hits[0].id, 1);
        assert_eq!(hits[1].id, 0);
        assert_eq!(hits[1].score, 0.0);
    }

    #[test]
    fn heap_item_order_is_total_with_nan() {
        let nan = HeapItem(Hit {
            id: 0,
            score: f32::NAN,
        });
        let one = HeapItem(Hit { id: 1, score: 1.0 });
        // total_cmp puts +NaN above +1.0; reversed ordering puts it below.
        assert_eq!(nan.cmp(&one), Ordering::Less);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
    }

    #[test]
    fn parallel_scan_matches_sequential() {
        let mut idx = VectorIndex::new();
        // Large enough to cross PAR_SCAN_THRESHOLD.
        for i in 0..(PAR_SCAN_THRESHOLD + 1000) {
            let mut v = vec![0.0f32; 8];
            v[i % 8] = 1.0;
            v[(i + 3) % 8] = (i % 17) as f32 * 0.1;
            idx.add(v);
        }
        let q = vec![0.3, 0.1, 0.9, 0.0, 0.2, 0.0, 0.4, 0.6];
        let wide = idx.top_k(&q, 12);
        // The single-threaded f32 scan of the same data for comparison.
        assert_eq!(wide, f32_scan(&idx, &normalized(q), 12));
    }

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let mut idx = VectorIndex::new();
        for i in 0..50 {
            let mut v = vec![0.1f32; 8];
            v[i % 8] = 1.0 + i as f32 * 0.01;
            idx.add(v);
        }
        let (dims, rows) = idx.raw_rows();
        let rebuilt = VectorIndex::from_parts(dims, rows.to_vec()).unwrap();
        assert_eq!(rebuilt.len(), idx.len());
        assert_eq!(rebuilt.dims(), idx.dims());
        // Bit-identical store ⇒ bit-identical retrieval.
        let q = vec![0.3f32; 8];
        assert_eq!(rebuilt.top_k(&q, 7), idx.top_k(&q, 7));
        assert_eq!(rebuilt.raw_rows().1, rows);

        // Empty stores reassemble to an empty index regardless of stride.
        assert_eq!(VectorIndex::from_parts(0, Vec::new()).unwrap().len(), 0);
        // Invalid shapes are structured errors, not panics.
        assert!(VectorIndex::from_parts(0, vec![1.0]).is_err());
        assert!(VectorIndex::from_parts(3, vec![1.0; 8]).is_err());
    }

    #[test]
    #[should_panic(expected = "inconsistent vector dimensionality")]
    fn mismatched_dims_panic() {
        let mut idx = VectorIndex::new();
        idx.add(vec![1.0, 0.0]);
        idx.add(vec![1.0, 0.0, 0.0]);
    }

    /// Regression: with a worker count that doesn't divide the element count
    /// into row-aligned chunks (e.g. 3 workers × stride 12), the parallel
    /// scan used to split rows across chunk boundaries and return garbage
    /// ids/scores. The explicit-threads seam forces multi-threaded chunking
    /// even on 1-CPU hosts (no process-global state touched).
    #[test]
    fn forced_parallel_scan_is_row_aligned() {
        let dims = 12usize;
        let rows = PAR_SCAN_THRESHOLD + 1303; // odd size, crosses threshold
        let mut idx = VectorIndex::with_capacity_dims(rows, dims);
        for i in 0..rows {
            let mut v = vec![0.02f32; dims];
            v[i % dims] = 1.0 + (i % 23) as f32 * 0.01;
            idx.add(v);
        }
        let q: Vec<f32> = (0..dims).map(|i| 0.1 + (i as f32) * 0.05).collect();
        let qn = normalized(q);
        let seq = f32_scan(&idx, &qn, 10);
        for threads in [2, 3, 5, 7] {
            let par = idx.top_k_prenormalized_in(threads, &qn, 10);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn k_zero_is_empty_on_every_path() {
        let mut idx = VectorIndex::new();
        for i in 0..3000 {
            idx.add(unit(i % 3, 3));
        }
        // Sequential and forced-parallel must both return empty hit lists.
        assert!(idx.top_k(&unit(0, 3), 0).is_empty());
        assert!(idx.top_k_prenormalized_in(3, &unit(0, 3), 0).is_empty());
    }

    /// Ids, order and score *bits* (NaN included) of two hit lists.
    fn bits(hits: &[Hit]) -> Vec<(usize, u32)> {
        hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
    }

    /// Deterministic pseudo-random vectors shaped like the hashed embeddings
    /// the scan is built for: each row 10–40 % dense (a phrase to a long
    /// question), and every ninth an exact copy of an earlier row, so any
    /// query meets exact score ties.
    fn scattered_rows(rows: usize, dims: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut s = seed | 1;
        let mut component = |density: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if s % 100 < density {
                (s >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            } else {
                0.0
            }
        };
        let mut out: Vec<Vec<f32>> = Vec::with_capacity(rows);
        for row in 0..rows {
            out.push(if row % 9 == 8 {
                out[row / 2].clone()
            } else {
                let density = 10 + (row as u64 * 7) % 31;
                (0..dims).map(|_| component(density)).collect()
            });
        }
        out
    }

    fn scattered(rows: usize, dims: usize, seed: u64) -> VectorIndex {
        let mut idx = VectorIndex::with_capacity_dims(rows, dims);
        for row in scattered_rows(rows, dims, seed) {
            idx.add_slice(&row);
        }
        idx
    }

    #[test]
    fn prefiltered_scan_equals_the_f32_scan_on_every_kernel() {
        // Strides around every kernel width and row counts around the tile
        // height, so one lane, an odd lane out, a lone slot in a padded tile,
        // a full tile and a tile plus one all carry real codes.
        for dims in [1usize, 3, 15, 16, 17, 31, 33, 63, 64, 65, 100, 256] {
            for rows in [1usize, 63, 64, 65, 127, 700] {
                let idx = scattered(rows, dims, 0xfeed ^ (dims * rows) as u64);
                // Stored rows (which tie exactly with their planted copies)
                // and a sparse query the store has never seen.
                let fresh = scattered_rows(8, dims, 0xbeef ^ dims as u64).swap_remove(3);
                let mut queries = vec![normalized(fresh)];
                for probe in [0, 13, rows - 1] {
                    queries.extend(idx.get(probe).map(<[f32]>::to_vec));
                }
                for q in &queries {
                    for k in [1, 10, rows.max(2) - 1, rows, 5000] {
                        let want = bits(&f32_scan(&idx, q, k));
                        for kernel in [Kernel::BASELINE, Kernel::detect()] {
                            let got = idx.top_k_with(kernel, 1, q, k);
                            assert_eq!(
                                bits(&got),
                                want,
                                "dims={dims} rows={rows} k={k} {kernel:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn chunks_of_whole_tiles_equal_the_sequential_scan() {
        // Three full tiles and a five-row tail, far below the threshold at
        // which `top_k_with` would fan out on its own: two chunks of
        // 128 + 69 rows, then four of one tile each.
        let idx = scattered(3 * TILE_ROWS + 5, 40, 21);
        for probe in [0usize, 100, 196] {
            let q = idx.get(probe).unwrap();
            for k in [1usize, 7, 197] {
                let want = bits(&f32_scan(&idx, q, k));
                for threads in [2usize, 3, 4] {
                    for kernel in [Kernel::BASELINE, Kernel::detect()] {
                        let got = idx.top_k_chunked(kernel, threads, 1, q, k);
                        assert_eq!(bits(&got), want, "threads={threads} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn prefilter_actually_skips_rows() {
        // Not a correctness property — the scan is exact either way — but
        // the reason it exists: the k seed dots set a floor that nearly
        // every other row's bound falls below, so the f32 dot runs little
        // more than k times per query (11–18 here), not once per row.
        let k = 10;
        let idx = scattered(6000, 256, 7);
        let fresh = scattered_rows(4, 256, 0x5eed).swap_remove(1);
        let mut queries = vec![normalized(fresh)];
        for probe in [0usize, 42, 2999, 5998] {
            queries.push(idx.get(probe).unwrap().to_vec());
        }
        for q in &queries {
            let want = bits(&f32_scan(&idx, q, k));
            RESCORED.set(0);
            let got = idx.top_k_with(Kernel::detect(), 1, q, k);
            let rescored = RESCORED.get();
            assert_eq!(bits(&got), want);
            assert!(
                (k..=3 * k).contains(&rescored),
                "{rescored} f32 dots for k = {k}"
            );
        }
    }

    /// Every chunking of `idx` a test can ask for — one chunk, and chunks
    /// of one and two tiles — on both kernels, against the f32 scan.
    fn assert_exact_on_every_path(idx: &VectorIndex, q: &[f32], k: usize) -> Vec<Hit> {
        let want = f32_scan(idx, q, k);
        for kernel in [Kernel::BASELINE, Kernel::detect()] {
            for threads in [1usize, 2, 5] {
                let got = idx.top_k_chunked(kernel, threads, TILE_ROWS, q, k);
                assert_eq!(bits(&got), bits(&want), "threads={threads} k={k}");
            }
        }
        want
    }

    #[test]
    fn rows_clamped_to_minus_one_keep_their_lower_ids() {
        // Restored rows pointing away from the query, longer the lower
        // their id: every raw dot is below -1 and clamps to -1, and the
        // bounds fall with the id. The k highest bounds seed the floor at
        // -1 from the *highest* ids, yet the answer is ids 0..k — which a
        // skip test reading `ub < floor` instead of `max(ub, -1) < floor`
        // drops, since their bounds sit far below -1.
        let dims = 16;
        let rows = 3 * TILE_ROWS + 9;
        let q = normalized((0..dims).map(|i| 1.0 + i as f32 * 0.25).collect());
        let mut raw = Vec::with_capacity(rows * dims);
        for id in 0..rows {
            let length = 2.0 + (rows - id) as f32 * 0.5;
            raw.extend(q.iter().map(|x| -x * length));
        }
        let idx = VectorIndex::from_parts(dims, raw).unwrap();
        for k in [1usize, 10, 64, 100] {
            let hits = assert_exact_on_every_path(&idx, &q, k);
            assert_eq!(
                bits(&hits),
                (0..k).map(|id| (id, (-1f32).to_bits())).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn non_finite_rows_and_queries_are_always_rescored() {
        let dims = 24;
        let mut idx = scattered(300, dims, 99);
        // Rows carrying NaN / ±inf, placed after the heap is warm.
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut row = vec![0.25f32; dims];
            row[5] = poison;
            idx.add(row);
        }
        // `add` normalises, which spreads the poison; `from_parts` keeps a
        // single bad component next to finite ones.
        let (_, raw) = idx.raw_rows();
        let mut raw = raw.to_vec();
        raw[17 * dims + 3] = f32::NAN;
        raw[130 * dims + 9] = f32::INFINITY;
        // A row with no finite component encodes as scale 0 with an
        // infinite residual, so its bound is `0 · ∞` = NaN: never a seed,
        // never below a floor.
        raw[250 * dims..251 * dims].fill(f32::NAN);
        let idx = VectorIndex::from_parts(dims, raw).unwrap();
        assert!(idx.bounds[17].residual.is_infinite());
        assert!(idx.bounds[130].residual.is_infinite());
        assert_eq!(idx.bounds[250].scale, 0.0);

        let clean = idx.get(40).unwrap().to_vec();
        let mut nan_query = clean.clone();
        nan_query[0] = f32::NAN;
        let mut inf_query = clean.clone();
        inf_query[7] = f32::INFINITY;
        for q in [&clean, &nan_query, &inf_query] {
            for k in [1usize, 5, 10, 400] {
                assert_exact_on_every_path(&idx, q, k);
            }
        }
        // The NaN-bound row scores the row's positive NaN, which
        // `total_cmp` ranks above every number: it is in the answer.
        let hits = assert_exact_on_every_path(&idx, &clean, 10);
        assert!(hits.iter().any(|h| h.id == 250 && h.score.is_nan()));
    }

    #[test]
    fn zero_rows_and_zero_queries_score_positive_zero_in_id_order() {
        let dims = 64;
        let mut idx = VectorIndex::new();
        for i in 0..50 {
            idx.add(if i % 2 == 0 {
                vec![0.0; dims]
            } else {
                unit(i % dims, dims)
            });
        }
        let zero_query = idx.top_k_prenormalized(&vec![0.0; dims], 7);
        assert_eq!(
            bits(&zero_query),
            (0..7).map(|id| (id, 0f32.to_bits())).collect::<Vec<_>>()
        );
        // A query orthogonal to everything but one row: the zero rows tie at
        // +0.0 with the orthogonal ones and ids decide.
        let hits = idx.top_k_prenormalized(&unit(1, dims), 4);
        assert_eq!(
            bits(&hits),
            vec![
                (1, 1f32.to_bits()),
                (0, 0f32.to_bits()),
                (2, 0f32.to_bits()),
                (3, 0f32.to_bits())
            ]
        );
        assert_eq!(bits(&hits), bits(&f32_scan(&idx, &unit(1, dims), 4)));
    }

    #[test]
    fn chunked_scan_reads_the_sidecar_by_global_id() {
        // The best rows sit at the very end, so a chunk that read codes from
        // the start of the sidecar instead of its own offset would bound
        // them with the wrong rows' constants and drop them.
        let dims = 20;
        let rows = PAR_SCAN_THRESHOLD + 777;
        let mut idx = scattered(rows - 3, dims, 5);
        let target: Vec<f32> = (0..dims).map(|i| 1.0 + i as f32 * 0.1).collect();
        for bump in [0.0f32, 1e-3, 2e-3] {
            let mut row = target.clone();
            row[0] += bump;
            idx.add(row);
        }
        let q = normalized(target);
        let want = f32_scan(&idx, &q, 5);
        assert_eq!(want[0].id, rows - 3);
        for threads in [1usize, 2, 3, 4] {
            for kernel in [Kernel::BASELINE, Kernel::detect()] {
                let got = idx.top_k_with(kernel, threads, &q, 5);
                assert_eq!(bits(&got), bits(&want), "threads={threads}");
            }
        }
    }

    #[test]
    fn append_equals_inserting_in_order() {
        // Piece sizes that leave the receiver on a tile boundary (the
        // buffer-append path: 0, 64, 128), one past it, one short of it
        // (63 = 1 + 62) and nowhere near it.
        for pieces in [&[64usize, 64, 5][..], &[1, 62, 70, 1], &[25; 4]] {
            let rows = scattered_rows(pieces.iter().sum(), 12, 3);
            let mut whole = VectorIndex::new();
            let mut stitched = VectorIndex::new();
            stitched.append(VectorIndex::new());
            let mut next = rows.iter();
            for &size in pieces {
                let mut piece = VectorIndex::new();
                for row in next.by_ref().take(size) {
                    whole.add_slice(row);
                    piece.add_slice(row);
                }
                stitched.append(piece);
            }
            assert_eq!(stitched.len(), rows.len());
            assert!(stitched.raw_rows() == whole.raw_rows());
            assert!(stitched.codes == whole.codes && stitched.bounds == whole.bounds);
            let q = whole.get(31).unwrap();
            assert_eq!(stitched.top_k(q, 9), whole.top_k(q, 9));
            let (dims, raw) = stitched.raw_rows();
            let restored = VectorIndex::from_parts(dims, raw.to_vec()).unwrap();
            assert!(restored.codes == whole.codes && restored.bounds == whole.bounds);
        }
    }

    #[test]
    fn from_parts_rebuilds_the_same_sidecar() {
        let built = scattered(300, 10, 11);
        let (dims, raw) = built.raw_rows();
        let restored = VectorIndex::from_parts(dims, raw.to_vec()).unwrap();
        assert!(restored.codes == built.codes && restored.bounds == built.bounds);
    }
}
