//! IVF (inverted file) coarse-partitioned index over a flat store.
//!
//! Training runs spherical k-means on a deterministic sample of the
//! pre-normalised rows (cosine == dot once everything is unit length), then
//! one full assignment pass buckets every row into its nearest centroid's
//! cell. A query scores all centroids, visits the `nprobe` closest cells,
//! and scores only the rows inside them — `nprobe / cells` of the corpus
//! instead of all of it.
//!
//! Two storage modes:
//! * **f32** — probed rows are scored with the exact SSE2 fused dot straight
//!   out of the flat store, so every returned score is bit-identical to what
//!   the flat scan would produce for that row. The only approximation is
//!   *which* rows get visited.
//! * **SQ8** — probed rows are scored from 8-bit codes (see [`crate::quant`],
//!   the encoder and integer kernel shared with the flat scan's prefilter)
//!   to build a shortlist, which is then rescored exactly from the flat
//!   store. Scores callers observe are still exact; quantization only
//!   influences shortlist membership.
//!
//! Both modes rank through the same rules as the flat scan: descending score
//! under `total_cmp`, ties toward lower ids. The index never copies the f32
//! rows — searches borrow the [`VectorIndex`] they were trained on, keeping
//! resident overhead to centroids + CSR + codes.

use crate::quant;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use t2v_embed::{best_first, dot_block, fused_dot, DotKernel, Hit, VectorIndex, BLOCK_ROWS};

/// Below this many rows the exact flat scan beats IVF (centroid scan +
/// heap overhead dominate) — [`IvfIndex::train`] declines to build unless
/// the config lowers `min_rows`.
pub const DEFAULT_MIN_ROWS: usize = 4096;

/// Lloyd iterations over the training sample. Past ~8 the centroids barely
/// move on embedding-shaped data; training cost is linear in this.
const KMEANS_ITERS: usize = 8;

/// Sampled training points per cell. `cells * 64` points keeps k-means cost
/// bounded while giving every centroid enough mass to stabilise.
const SAMPLE_PER_CELL: usize = 64;

/// How far ahead of the row it scores the SQ8 cell scan prefetches codes,
/// in bytes: one 4 KiB page, sixteen rows at 256 dims. The scan is bound by
/// memory latency, not by its dots (DESIGN.md §13); a cell's rows are
/// contiguous, but the hardware's stream prefetcher stops at every page
/// boundary, so the scan asks for the next page itself. The distance in
/// rows follows the stride: `PREFETCH_BYTES / dims`, rounded up.
const PREFETCH_BYTES: usize = 4096;

/// Ask for every cache line of `row` ahead of its use. A hint: it changes
/// no result, and it is a no-op off x86-64.
#[inline]
fn prefetch_row<T>(row: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let (start, bytes) = (row.as_ptr() as *const i8, std::mem::size_of_val(row));
        for line in (0..bytes).step_by(64) {
            // SAFETY: `line < bytes`, so the address lies inside `row`; a
            // prefetch reads nothing architecturally and cannot fault.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(start.add(line)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// Training/search configuration. `Default` is tuned for embedding-shaped
/// corpora: auto cell count (~√rows), auto probe width, SQ8 storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IvfConfig {
    /// Number of coarse cells; `0` = auto (≈ √rows, clamped to `[16, 65536]`).
    pub cells: usize,
    /// Default cells probed per query; `0` = auto (`max(4, cells / 32)`).
    pub nprobe: usize,
    /// Store probed rows as 8-bit codes (shortlist + exact rescore) instead
    /// of scoring straight from the f32 store.
    pub quantized: bool,
    /// Seed for the deterministic sampler / centroid init.
    pub seed: u64,
    /// Row count below which [`IvfIndex::train`] returns `None` and callers
    /// should stay on the flat scan. Lower to `1` to force training on tiny
    /// corpora (tests, CI smoke).
    pub min_rows: usize,
}

impl Default for IvfConfig {
    fn default() -> Self {
        IvfConfig {
            cells: 0,
            nprobe: 0,
            quantized: true,
            seed: 0x05ee_da11_ce11 ^ 7,
            min_rows: DEFAULT_MIN_ROWS,
        }
    }
}

/// Auto cell count for a given corpus size: ≈ √rows, clamped.
fn auto_cells(rows: usize) -> usize {
    ((rows as f64).sqrt().round() as usize)
        .clamp(16, 65_536)
        .min(rows.max(1))
}

/// Auto probe width for a given cell count.
fn auto_nprobe(cells: usize) -> usize {
    (cells / 32).max(4).min(cells.max(1))
}

// xorshift64* — deterministic, seedable, no external dependency.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A trained IVF index. Immutable once built — retraining replaces it.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    dims: usize,
    /// Default probe width baked in at training time (query-time override
    /// via the `nprobe` search argument).
    nprobe: usize,
    quantized: bool,
    /// `cells × dims`, L2-normalised (a cell that ended empty keeps its last
    /// seeded direction; harmless — its id range is empty).
    centroids: Vec<f32>,
    /// CSR offsets into `ids` (and `codes`/`scales`), length `cells + 1`.
    cell_offsets: Vec<u32>,
    /// Row ids, cell-major; each cell's span is ascending for determinism.
    ids: Vec<u32>,
    /// SQ8 codes, cell-major `rows × dims`; empty when `quantized` is false.
    codes: Vec<i8>,
    /// Per-row quantization scales aligned with `ids`; empty when f32 mode.
    scales: Vec<f32>,
}

impl IvfIndex {
    /// Train over the flat store's rows. Returns `None` when the corpus is
    /// smaller than `cfg.min_rows` (the flat scan wins there — see
    /// [`DEFAULT_MIN_ROWS`]); deterministic for a fixed `(rows, cfg)` —
    /// including across worker counts, see `train_in`.
    pub fn train(flat: &VectorIndex, cfg: &IvfConfig) -> Option<IvfIndex> {
        Self::train_in(flat, cfg, t2v_parallel::thread_count(), DotKernel::detect())
    }

    /// [`IvfIndex::train`] with an explicit worker count. The trained index
    /// is a pure function of `(rows, cfg)` — **not** of `threads`: every
    /// parallel stage works on fixed row windows (independent of the worker
    /// count) and folds partial results in window order, so the f64
    /// accumulation order — and therefore every centroid bit — is identical
    /// whether training runs on 1 thread or 64. Nor of `kernel`: the block
    /// kernel's scores carry `fused_dot`'s bits, so the wide tile and the
    /// per-pair fallback assign every row alike (the test seam that reaches
    /// the fallback on any host).
    #[doc(hidden)]
    pub fn train_in(
        flat: &VectorIndex,
        cfg: &IvfConfig,
        threads: usize,
        kernel: DotKernel,
    ) -> Option<IvfIndex> {
        let (dims, data) = flat.raw_rows();
        let rows = flat.len();
        if rows < cfg.min_rows.max(2) || dims == 0 {
            return None;
        }
        let cells = if cfg.cells > 0 {
            cfg.cells.min(rows)
        } else {
            auto_cells(rows)
        };
        let nprobe = if cfg.nprobe > 0 {
            cfg.nprobe.min(cells)
        } else {
            auto_nprobe(cells)
        };
        let mut rng = Rng::new(cfg.seed);

        // Deterministic sample of rows for Lloyd iterations (all rows when
        // the corpus is small). Sampled rows are copied contiguously so the
        // hot assignment loop stays cache-friendly.
        let sample_target = (cells * SAMPLE_PER_CELL).min(rows);
        let sample_ids: Vec<usize> = if sample_target == rows {
            (0..rows).collect()
        } else {
            (0..sample_target).map(|_| rng.below(rows)).collect()
        };
        let mut sample = Vec::with_capacity(sample_ids.len() * dims);
        for &r in &sample_ids {
            sample.extend_from_slice(&data[r * dims..(r + 1) * dims]);
        }

        // Init: `cells` distinct rows (distinct *row ids*, not necessarily
        // distinct vectors — duplicate rows just yield coincident centroids
        // that the empty-cell reseeding below pulls apart).
        let mut centroids = Vec::with_capacity(cells * dims);
        let mut picked = std::collections::HashSet::with_capacity(cells);
        while picked.len() < cells {
            let r = if picked.len() < rows {
                let mut r = rng.below(rows);
                while !picked.insert(r) {
                    r = (r + 1) % rows;
                }
                r
            } else {
                break;
            };
            centroids.extend_from_slice(&data[r * dims..(r + 1) * dims]);
        }

        for _ in 0..KMEANS_ITERS {
            let assign = assign_rows(threads, kernel, &sample, dims, &centroids);
            let (sums, counts) = accumulate_cells(threads, &sample, dims, cells, &assign);
            for c in 0..cells {
                if counts[c] == 0 {
                    // Reseed dead centroids from a random sample point so no
                    // cell stays permanently empty during training.
                    let p = rng.below(sample_ids.len());
                    centroids[c * dims..(c + 1) * dims]
                        .copy_from_slice(&sample[p * dims..(p + 1) * dims]);
                    continue;
                }
                let mut norm = 0f64;
                for &s in &sums[c * dims..(c + 1) * dims] {
                    norm += s * s;
                }
                let norm = norm.sqrt();
                let dst = &mut centroids[c * dims..(c + 1) * dims];
                if norm > 0.0 {
                    for (d, s) in dst.iter_mut().zip(&sums[c * dims..(c + 1) * dims]) {
                        *d = (s / norm) as f32;
                    }
                }
            }
        }

        // Full assignment pass over every row, then CSR by cell. Row ids
        // within a cell stay ascending (counting sort over a stable scan).
        let assign = assign_rows(threads, kernel, data, dims, &centroids);
        let mut counts = vec![0u32; cells];
        for &c in &assign {
            counts[c as usize] += 1;
        }
        let mut cell_offsets = vec![0u32; cells + 1];
        for c in 0..cells {
            cell_offsets[c + 1] = cell_offsets[c] + counts[c];
        }
        let mut cursor: Vec<u32> = cell_offsets[..cells].to_vec();
        let mut ids = vec![0u32; rows];
        for (r, &c) in assign.iter().enumerate() {
            let slot = cursor[c as usize];
            ids[slot as usize] = r as u32;
            cursor[c as usize] += 1;
        }

        let (codes, scales) = if cfg.quantized {
            // Per-row encoding is pure, so fanning out over fixed id windows
            // and concatenating in window order is trivially deterministic.
            let windows = row_windows(ids.len());
            let parts = t2v_parallel::par_map_in(threads, &windows, |&(s, e)| {
                let mut codes = Vec::with_capacity((e - s) * dims);
                let mut scales = Vec::with_capacity(e - s);
                for &id in &ids[s..e] {
                    let row = &data[id as usize * dims..(id as usize + 1) * dims];
                    scales.push(quant::encode_row(row, &mut codes));
                }
                (codes, scales)
            });
            let mut codes = Vec::with_capacity(rows * dims);
            let mut scales = Vec::with_capacity(rows);
            for (c, s) in parts {
                codes.extend_from_slice(&c);
                scales.extend_from_slice(&s);
            }
            (codes, scales)
        } else {
            (Vec::new(), Vec::new())
        };

        Some(IvfIndex {
            dims,
            nprobe,
            quantized: cfg.quantized,
            centroids,
            cell_offsets,
            ids,
            codes,
            scales,
        })
    }

    pub fn cells(&self) -> usize {
        self.cell_offsets.len().saturating_sub(1)
    }

    pub fn rows(&self) -> usize {
        self.ids.len()
    }

    pub fn default_nprobe(&self) -> usize {
        self.nprobe
    }

    pub fn quantized(&self) -> bool {
        self.quantized
    }

    /// Resident bytes of the index structures themselves (the f32 rows are
    /// borrowed from the flat store and not counted).
    pub fn memory_bytes(&self) -> usize {
        self.centroids.len() * 4
            + self.cell_offsets.len() * 4
            + self.ids.len() * 4
            + self.codes.len()
            + self.scales.len() * 4
    }

    /// The `nprobe` cells closest to the (pre-normalised) query, ties toward
    /// lower cell ids.
    fn probe_cells(&self, query: &[f32], nprobe: usize) -> Vec<u32> {
        let mut scores = vec![0f32; self.cells()];
        dot_block(
            DotKernel::detect(),
            self.dims,
            query,
            &self.centroids,
            &mut scores,
        );
        best_cells(&scores, nprobe)
    }

    fn effective_nprobe(&self, nprobe: usize) -> usize {
        let n = if nprobe == 0 { self.nprobe } else { nprobe };
        n.clamp(1, self.cells().max(1))
    }

    /// Shortlist width for the SQ8 rescore pass: enough slack over `k` that
    /// quantization misranking at the boundary doesn't cost recall.
    fn shortlist_len(k: usize) -> usize {
        (k * 4).max(32)
    }

    /// Top-k over the probed cells for one **pre-normalised** query.
    /// `nprobe == 0` uses the trained default. `flat` must be the store the
    /// index was trained on (same rows, same order).
    pub fn search(&self, flat: &VectorIndex, query: &[f32], k: usize, nprobe: usize) -> Vec<Hit> {
        self.search_in(quant::Kernel::detect(), flat, query, k, nprobe)
    }

    /// [`IvfIndex::search`] with an explicit code-dot kernel, read once per
    /// search. The hits are a pure function of the inputs, **not** of
    /// `kernel`: every kernel returns the same exact integer dot (the test
    /// seam that reaches each kernel the host has).
    fn search_in(
        &self,
        kernel: quant::Kernel,
        flat: &VectorIndex,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Vec<Hit> {
        let (fdims, fdata) = flat.raw_rows();
        assert_eq!(fdims, self.dims, "ann/flat stride mismatch");
        assert_eq!(flat.len(), self.rows(), "ann/flat row count mismatch");
        if k == 0 || self.rows() == 0 {
            return Vec::new();
        }
        assert_eq!(query.len(), self.dims, "query dimensionality mismatch");
        let probes = self.probe_cells(query, self.effective_nprobe(nprobe));
        if self.quantized {
            let mut qcodes = Vec::with_capacity(self.dims);
            let qscale = quant::encode_row(query, &mut qcodes);
            let qcodes = quant::QueryCodes::new(&qcodes);
            let mut short = TopK::new(Self::shortlist_len(k));
            let spans: Vec<(usize, usize)> = probes.iter().map(|&c| self.cell_span(c)).collect();
            for (i, &span) in spans.iter().enumerate() {
                let next = spans.get(i + 1).copied().unwrap_or((0, 0));
                self.scan_cell_sq8(kernel, span, next, &qcodes, qscale, &mut short);
            }
            rescore(fdata, self.dims, query, short, k)
        } else {
            let mut top = TopK::new(k);
            for &c in &probes {
                self.scan_cell_f32(self.cell_span(c), fdata, query, &mut top);
            }
            top.into_sorted()
        }
    }

    /// The slots `s..e` of one cell in `ids`, `scales` and (× dims) `codes`.
    fn cell_span(&self, cell: u32) -> (usize, usize) {
        let c = cell as usize;
        (
            self.cell_offsets[c] as usize,
            self.cell_offsets[c + 1] as usize,
        )
    }

    fn scan_cell_f32(&self, (s, e): (usize, usize), fdata: &[f32], query: &[f32], top: &mut TopK) {
        for &id in &self.ids[s..e] {
            let row = &fdata[id as usize * self.dims..(id as usize + 1) * self.dims];
            top.push(id as usize, fused_dot(query, row).clamp(-1.0, 1.0));
        }
    }

    /// Score the cell at slots `s..e` from its codes into the shortlist.
    /// The scan streams: while it scores a row it prefetches the row
    /// [`PREFETCH_BYTES`] on, which near the cell's end is one of the first
    /// rows of `next`, the cell probed after this one (`(0, 0)` when there
    /// is none).
    fn scan_cell_sq8(
        &self,
        kernel: quant::Kernel,
        (s, e): (usize, usize),
        next: (usize, usize),
        qcodes: &quant::QueryCodes,
        qscale: f32,
        short: &mut TopK,
    ) {
        let dims = self.dims;
        let ahead = PREFETCH_BYTES.div_ceil(dims.max(1));
        for slot in s..e {
            let fetch = match slot + ahead {
                f if f < e => Some(f),
                f => Some(next.0 + (f - e)).filter(|&f| f < next.1),
            };
            if let Some(f) = fetch {
                prefetch_row(&self.codes[f * dims..(f + 1) * dims]);
            }
            let codes = &self.codes[slot * dims..(slot + 1) * dims];
            let code_dot = qcodes.dot_in(kernel, codes);
            short.push(
                self.ids[slot] as usize,
                code_dot as f32 * (qscale * self.scales[slot]),
            );
        }
    }
}

/// The `n` best cells by score, best first: descending `total_cmp`, ties
/// toward lower cell ids. Selects the head, then sorts only it — the same
/// cells in the same order as sorting every cell, because the comparator
/// is a total order.
fn best_cells(scores: &[f32], n: usize) -> Vec<u32> {
    let best = |a: &(f32, u32), b: &(f32, u32)| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1));
    let mut scored: Vec<(f32, u32)> = (scores.iter().enumerate())
        .map(|(c, &s)| (s, c as u32))
        .collect();
    let n = n.min(scored.len());
    if n == 0 {
        return Vec::new();
    }
    if n < scored.len() {
        scored.select_nth_unstable_by(n - 1, best);
        scored.truncate(n);
    }
    scored.sort_unstable_by(best);
    scored.into_iter().map(|(_, c)| c).collect()
}

/// Exact f32 rescore of an SQ8 shortlist: scores come from the same fused
/// dot as the flat scan, so every hit callers see is exactly what the flat
/// scan would report for that row. The shortlist's rows lie anywhere in
/// the store, each a cold miss, so all of them are prefetched first and
/// their misses overlap instead of queueing one by one.
fn rescore(fdata: &[f32], dims: usize, query: &[f32], short: TopK, k: usize) -> Vec<Hit> {
    let row = |id: usize| &fdata[id * dims..(id + 1) * dims];
    let short = short.into_sorted();
    for h in &short {
        prefetch_row(row(h.id));
    }
    let mut hits: Vec<Hit> = short
        .iter()
        .map(|h| Hit {
            id: h.id,
            score: fused_dot(query, row(h.id)).clamp(-1.0, 1.0),
        })
        .collect();
    hits.sort_unstable_by(best_first);
    hits.truncate(k);
    hits
}

// Bounded top-k accumulator with the flat scan's exact ordering contract:
// keeps the best `k` by (score desc, id asc), insertion-order independent.
struct TopK {
    k: usize,
    heap: BinaryHeap<WorstFirst>,
    /// The worst held score once the heap is full (`−∞` before): a new row
    /// scoring strictly below it cannot displace anything, which settles
    /// most pushes with one compare. A tie is settled by id, and ids need
    /// not grow: each cell's ids ascend, but the next probed cell's may
    /// start lower.
    floor: f32,
}

#[derive(Debug)]
struct WorstFirst(Hit);

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for WorstFirst {}

impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap keeps the *worst* on top: lowest score first, largest id
        // among ties (so lower ids survive eviction) — mirrors the flat
        // scan's heap exactly.
        other
            .0
            .score
            .total_cmp(&self.0.score)
            .then_with(|| self.0.id.cmp(&other.0.id))
    }
}

impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl TopK {
    fn new(k: usize) -> TopK {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
            floor: f32::NEG_INFINITY,
        }
    }

    #[inline]
    fn push(&mut self, id: usize, score: f32) {
        if self.heap.len() >= self.k {
            if score < self.floor {
                return;
            }
            // Otherwise the row must rank before the worst held hit in the
            // flat scan's order — `total_cmp`, which puts `+0.0` above
            // `−0.0` where `==` calls them a tie, then the lower id.
            let worst = &self.heap.peek().expect("full heap is non-empty").0;
            if best_first(&Hit { id, score }, worst) != Ordering::Less {
                return;
            }
        }
        self.heap.push(WorstFirst(Hit { id, score }));
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
}

/// Fixed row windows for the parallel training stages. The window size is a
/// constant — deliberately *not* derived from the worker count — so every
/// per-window partial result, and any order-sensitive fold over them, is
/// identical at any parallelism.
fn row_windows(rows: usize) -> Vec<(usize, usize)> {
    const WINDOW: usize = 2048;
    (0..rows)
        .step_by(WINDOW)
        .map(|s| (s, (s + WINDOW).min(rows)))
        .collect()
}

/// Nearest centroid (max dot, ties toward lower cell id) for every row in
/// `data`, fanned across `threads` workers in deterministic window order.
/// Rows go to the block kernel [`BLOCK_ROWS`] at a time, so each centroid
/// is loaded once per block rather than once per row.
fn assign_rows(
    threads: usize,
    kernel: DotKernel,
    data: &[f32],
    dims: usize,
    centroids: &[f32],
) -> Vec<u32> {
    let rows = data.len() / dims;
    let cells = centroids.len() / dims;
    let windows = row_windows(rows);
    let parts = t2v_parallel::par_map_in(threads, &windows, |&(s, e)| {
        let mut out = Vec::with_capacity(e - s);
        let mut scores = vec![0f32; BLOCK_ROWS * cells];
        for block in data[s * dims..e * dims].chunks(BLOCK_ROWS * dims) {
            let scores = &mut scores[..block.len() / dims * cells];
            dot_block(kernel, dims, block, centroids, scores);
            for row_scores in scores.chunks_exact(cells) {
                let mut best = 0u32;
                let mut best_score = f32::NEG_INFINITY;
                for (c, &score) in row_scores.iter().enumerate() {
                    if score > best_score {
                        best_score = score;
                        best = c as u32;
                    }
                }
                out.push(best);
            }
        }
        out
    });
    parts.concat()
}

/// The k-means accumulation stage: per-cell f64 sums and member counts of
/// `data` rows grouped by `assign`, fanned across `threads` workers.
/// Bit-identical at any worker count: partials cover the fixed windows of
/// [`row_windows`] and fold strictly left-to-right in window order, so the
/// f64 addition tree never depends on `threads`.
fn accumulate_cells(
    threads: usize,
    data: &[f32],
    dims: usize,
    cells: usize,
    assign: &[u32],
) -> (Vec<f64>, Vec<u32>) {
    let windows = row_windows(assign.len());
    let parts = t2v_parallel::par_map_in(threads, &windows, |&(s, e)| {
        let mut sums = vec![0f64; cells * dims];
        let mut counts = vec![0u32; cells];
        for r in s..e {
            let c = assign[r] as usize;
            counts[c] += 1;
            let row = &data[r * dims..(r + 1) * dims];
            let acc = &mut sums[c * dims..(c + 1) * dims];
            for (a, &x) in acc.iter_mut().zip(row) {
                *a += x as f64;
            }
        }
        (sums, counts)
    });
    let mut sums = vec![0f64; cells * dims];
    let mut counts = vec![0u32; cells];
    for (ps, pc) in parts {
        for (a, b) in sums.iter_mut().zip(&ps) {
            *a += b;
        }
        for (a, b) in counts.iter_mut().zip(&pc) {
            *a += b;
        }
    }
    (sums, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random corpus: `clusters` unit-ish centers with
    /// small per-row noise — the shape IVF is built for.
    pub(crate) fn clustered_index(
        rows: usize,
        dims: usize,
        clusters: usize,
        seed: u64,
    ) -> VectorIndex {
        let mut rng = Rng::new(seed);
        let centers: Vec<Vec<f32>> = (0..clusters)
            .map(|_| {
                (0..dims)
                    .map(|_| (rng.next() % 2000) as f32 / 1000.0 - 1.0)
                    .collect()
            })
            .collect();
        let mut idx = VectorIndex::with_capacity_dims(rows, dims);
        for r in 0..rows {
            let c = &centers[r % clusters];
            let v: Vec<f32> = c
                .iter()
                .map(|&x| x + ((rng.next() % 2000) as f32 / 1000.0 - 1.0) * 0.15)
                .collect();
            idx.add(v);
        }
        idx
    }

    fn recall_at_k(got: &[Hit], oracle: &[Hit]) -> f64 {
        if oracle.is_empty() {
            return 1.0;
        }
        let want: std::collections::HashSet<usize> = oracle.iter().map(|h| h.id).collect();
        got.iter().filter(|h| want.contains(&h.id)).count() as f64 / oracle.len() as f64
    }

    /// Two identical centroids score every row identically, bit for bit:
    /// the row goes to the lower cell id, under either kernel. Cells 1 and 2
    /// tie (cell 0 points away), so "first seen" and "lower id" disagree
    /// with "last seen"; nine rows cover two full 4-row blocks and a tail.
    #[test]
    fn assignment_ties_go_to_the_lower_cell_id() {
        for dims in [16, 100, 256] {
            let v: Vec<f32> = (0..dims)
                .map(|i| ((i * 7 % 11) as f32 - 5.0) / 5.0)
                .collect();
            let away: Vec<f32> = v.iter().map(|x| -x).collect();
            let centroids = [away.clone(), v.clone(), v.clone(), away].concat();
            let data: Vec<f32> = (0..9)
                .flat_map(|r| v.iter().map(move |x| x * (1.0 + r as f32 / 8.0)))
                .collect();
            for kernel in [DotKernel::PER_PAIR, DotKernel::detect()] {
                let assign = assign_rows(1, kernel, &data, dims, &centroids);
                assert_eq!(assign, [1; 9], "dims {dims}, {kernel:?}");
            }
        }
    }

    #[test]
    fn tiny_corpus_declines_to_train() {
        let idx = clustered_index(100, 16, 4, 1);
        assert!(IvfIndex::train(&idx, &IvfConfig::default()).is_none());
        assert!(IvfIndex::train(&VectorIndex::new(), &IvfConfig::default()).is_none());
        // min_rows = 1 forces training even on tiny corpora.
        let forced = IvfIndex::train(
            &idx,
            &IvfConfig {
                min_rows: 1,
                ..IvfConfig::default()
            },
        )
        .expect("forced training");
        assert!(forced.cells() <= 100);
        assert_eq!(forced.rows(), 100);
    }

    #[test]
    fn single_row_never_trains() {
        let mut idx = VectorIndex::new();
        idx.add(vec![1.0, 0.0]);
        let cfg = IvfConfig {
            min_rows: 1,
            ..IvfConfig::default()
        };
        assert!(IvfIndex::train(&idx, &cfg).is_none());
    }

    #[test]
    fn full_probe_f32_matches_flat_exactly() {
        let idx = clustered_index(3000, 24, 12, 42);
        let cfg = IvfConfig {
            min_rows: 1,
            quantized: false,
            cells: 20,
            nprobe: 20,
            ..IvfConfig::default()
        };
        let ivf = IvfIndex::train(&idx, &cfg).unwrap();
        for qseed in 0..5u64 {
            let q = {
                let mut rng = Rng::new(qseed + 9);
                let mut v: Vec<f32> = (0..24)
                    .map(|_| (rng.next() % 2000) as f32 / 1000.0 - 1.0)
                    .collect();
                t2v_embed::l2_normalize(&mut v);
                v
            };
            let flat_hits = idx.top_k_prenormalized(&q, 10);
            let ivf_hits = ivf.search(&idx, &q, 10, 0);
            assert_eq!(ivf_hits, flat_hits, "qseed={qseed}");
        }
    }

    #[test]
    fn recall_grid_meets_bar() {
        // The satellite contract: recall@10 ≥ 0.95 vs the flat oracle across
        // dims / sizes / seeds, with *partial* probing and quantization on.
        for &(rows, dims, clusters, seed) in &[
            (6000usize, 32usize, 40usize, 7u64),
            (9000, 64, 64, 11),
            (12000, 16, 80, 23),
        ] {
            let idx = clustered_index(rows, dims, clusters, seed);
            let cfg = IvfConfig {
                min_rows: 1,
                ..IvfConfig::default()
            };
            let ivf = IvfIndex::train(&idx, &cfg).unwrap();
            assert!(ivf.quantized());
            let mut total = 0.0;
            let queries = 20;
            for qi in 0..queries {
                // Queries near real rows — the serving shape.
                let base = idx.get((qi * 97) % rows).unwrap().to_vec();
                let flat_hits = idx.top_k_prenormalized(&base, 10);
                let ivf_hits = ivf.search(&idx, &base, 10, 0);
                total += recall_at_k(&ivf_hits, &flat_hits);
            }
            let recall = total / queries as f64;
            assert!(
                recall >= 0.95,
                "recall@10 {recall:.3} below bar for rows={rows} dims={dims} seed={seed}"
            );
        }
    }

    #[test]
    fn sq8_scores_are_exact_after_rescore() {
        let idx = clustered_index(2000, 32, 10, 3);
        let cfg = IvfConfig {
            min_rows: 1,
            cells: 16,
            nprobe: 16,
            ..IvfConfig::default()
        };
        let ivf = IvfIndex::train(&idx, &cfg).unwrap();
        let q = idx.get(17).unwrap().to_vec();
        let hits = ivf.search(&idx, &q, 5, 0);
        for h in &hits {
            let row = idx.get(h.id).unwrap();
            let exact = fused_dot(&q, row).clamp(-1.0, 1.0);
            assert_eq!(h.score, exact, "sq8 hit must carry the exact f32 score");
        }
    }

    #[test]
    fn k_zero_and_empty_batch_are_empty() {
        let idx = clustered_index(4000, 16, 25, 5);
        let ivf = IvfIndex::train(
            &idx,
            &IvfConfig {
                min_rows: 1,
                ..IvfConfig::default()
            },
        )
        .unwrap();
        assert!(ivf.search(&idx, idx.get(0).unwrap(), 0, 0).is_empty());
    }

    #[test]
    fn training_is_deterministic() {
        let idx = clustered_index(5000, 16, 30, 13);
        let cfg = IvfConfig {
            min_rows: 1,
            ..IvfConfig::default()
        };
        let a = IvfIndex::train(&idx, &cfg).unwrap();
        let b = IvfIndex::train(&idx, &cfg).unwrap();
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.ids, b.ids);
        let q = idx.get(7).unwrap().to_vec();
        assert_eq!(a.search(&idx, &q, 10, 0), b.search(&idx, &q, 10, 0));
    }

    /// Every field, f32s by their bits.
    fn assert_same_index(a: &IvfIndex, b: &IvfIndex, what: &str) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            (a.dims, a.nprobe, a.quantized),
            (b.dims, b.nprobe, b.quantized),
            "{what}"
        );
        assert_eq!(bits(&a.centroids), bits(&b.centroids), "{what}");
        assert_eq!(a.cell_offsets, b.cell_offsets, "{what}");
        assert_eq!(a.ids, b.ids, "{what}");
        assert_eq!(a.codes, b.codes, "{what}");
        assert_eq!(bits(&a.scales), bits(&b.scales), "{what}");
    }

    #[test]
    fn training_is_bit_identical_across_thread_counts() {
        // 5000 rows spans multiple 2048-row windows, so the window fold and
        // concatenation paths are genuinely exercised at every worker count.
        // 256 lanes is `retrieve_large`'s width (whole 32-lane blocks only);
        // 100 leaves a 4-lane chunk after three blocks. 2 101 rows leave one
        // row after the block kernel's last full 4-row block.
        for (rows, dims, clusters, cells) in [
            (5000usize, 16usize, 30usize, 0usize),
            (2101, 256, 12, 8),
            (2101, 100, 12, 8),
        ] {
            let idx = clustered_index(rows, dims, clusters, 13);
            let cfg = IvfConfig {
                min_rows: 1,
                cells,
                ..IvfConfig::default()
            };
            let base = IvfIndex::train_in(&idx, &cfg, 1, DotKernel::PER_PAIR).unwrap();
            for kernel in [DotKernel::PER_PAIR, DotKernel::detect()] {
                for threads in [1, 2, 3, 8] {
                    if (threads, kernel) == (1, DotKernel::PER_PAIR) {
                        continue;
                    }
                    let other = IvfIndex::train_in(&idx, &cfg, threads, kernel).unwrap();
                    let what = format!("{rows}x{dims} threads={threads} {kernel:?}");
                    assert_same_index(&base, &other, &what);
                }
            }
        }
    }

    /// Selecting the head equals sorting every cell: same cells, same
    /// order, ties to the lower cell id, a NaN where `total_cmp` puts it
    /// (above every number), for every probe width.
    #[test]
    fn best_cells_equal_the_full_sort() {
        let scores = [
            0.5,
            0.25,
            0.5,
            -1.0,
            f32::NAN,
            0.25,
            0.5,
            0.0,
            -0.0,
            0.25,
            0.75,
            -1.0,
            0.5,
        ];
        let mut sorted: Vec<(f32, u32)> = (scores.iter().enumerate())
            .map(|(c, &s)| (s, c as u32))
            .collect();
        sorted.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let want: Vec<u32> = sorted.iter().map(|&(_, c)| c).collect();
        assert_eq!(&want[..6], &[4, 10, 0, 2, 6, 12]);
        for n in 0..=scores.len() + 2 {
            assert_eq!(best_cells(&scores, n), want[..n.min(scores.len())], "n={n}");
        }
        assert!(best_cells(&[], 3).is_empty());
    }

    /// A trained SQ8 index returns the same hits — ids, order and score
    /// bits — under every code-dot kernel this host has: the baseline,
    /// AVX2 and AVX-512 VNNI. 256 lanes is `retrieve_large`'s width (whole
    /// 64-code blocks); 100 leaves a 36-code tail for the masked load.
    #[test]
    fn search_hits_are_identical_under_every_kernel() {
        for (rows, dims) in [(6000usize, 256usize), (3000, 100)] {
            let idx = clustered_index(rows, dims, 40, 29);
            let cfg = IvfConfig {
                min_rows: 1,
                ..IvfConfig::default()
            };
            let ivf = IvfIndex::train(&idx, &cfg).unwrap();
            for qi in 0..12 {
                let q = idx.get((qi * 389) % rows).unwrap().to_vec();
                let bits = |hits: Vec<Hit>| -> Vec<(usize, u32)> {
                    hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
                };
                for nprobe in [0, 1, ivf.cells()] {
                    let base = bits(ivf.search_in(quant::Kernel::BASELINE, &idx, &q, 10, nprobe));
                    assert_eq!(base.len(), 10);
                    for kernel in quant::Kernel::supported() {
                        let got = bits(ivf.search_in(kernel, &idx, &q, 10, nprobe));
                        assert_eq!(got, base, "{rows}x{dims} q={qi} nprobe={nprobe} {kernel:?}");
                    }
                }
            }
        }
    }

    proptest::proptest! {
        /// The SQ8 shortlist keeps exactly the `k` best of everything pushed
        /// — the head of a full sort under `best_first` — when scores tie
        /// across cells and ids do not grow from one cell to the next: each
        /// cell holds ascending ids drawn from a shuffled range, as the CSR
        /// does, and the scores come from a small set that plants ties,
        /// `±0`, `±∞` and NaN.
        #[test]
        fn shortlist_equals_a_sort_based_oracle(
            cells in proptest::collection::vec(proptest::collection::vec(0usize..9, 0..12), 1..8),
            keys in proptest::collection::vec(proptest::any::<u32>(), 96),
            k in 1usize..20,
        ) {
            const SCORES: [f32; 9] =
                [0.5, 0.5, 0.25, -0.0, 0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.25];
            let n: usize = cells.iter().map(Vec::len).sum();
            let mut ids: Vec<usize> = (0..n).collect();
            ids.sort_by_key(|&id| (keys[id], id));
            let mut top = TopK::new(k);
            let mut all = Vec::new();
            let mut taken = 0;
            for cell in &cells {
                let mut cell_ids = ids[taken..taken + cell.len()].to_vec();
                cell_ids.sort_unstable();
                taken += cell.len();
                for (&id, &s) in cell_ids.iter().zip(cell) {
                    top.push(id, SCORES[s]);
                    all.push(Hit { id, score: SCORES[s] });
                }
            }
            all.sort_by(best_first);
            all.truncate(k);
            let bits = |hits: &[Hit]| -> Vec<(usize, u32)> {
                hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
            };
            proptest::prop_assert_eq!(bits(&top.into_sorted()), bits(&all));
        }
    }
}
