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
use t2v_embed::{best_first, fused_dot, Hit, VectorIndex};

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
        Self::train_in(flat, cfg, t2v_parallel::thread_count())
    }

    /// [`IvfIndex::train`] with an explicit worker count. The trained index
    /// is a pure function of `(rows, cfg)` — **not** of `threads`: every
    /// parallel stage works on fixed row windows (independent of the worker
    /// count) and folds partial results in window order, so the f64
    /// accumulation order — and therefore every centroid bit — is identical
    /// whether training runs on 1 thread or 64.
    fn train_in(flat: &VectorIndex, cfg: &IvfConfig, threads: usize) -> Option<IvfIndex> {
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
            let assign = assign_rows(threads, &sample, dims, &centroids);
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
        let assign = assign_rows(threads, data, dims, &centroids);
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
        let cells = self.cells();
        let mut scored: Vec<(f32, u32)> = (0..cells)
            .map(|c| {
                (
                    fused_dot(query, &self.centroids[c * self.dims..(c + 1) * self.dims]),
                    c as u32,
                )
            })
            .collect();
        scored.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        scored.truncate(nprobe.min(cells));
        scored.into_iter().map(|(_, c)| c).collect()
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
            let mut short = TopK::new(Self::shortlist_len(k));
            for &c in &probes {
                self.scan_cell_sq8(c as usize, &qcodes, qscale, &mut short);
            }
            rescore(fdata, self.dims, query, short, k)
        } else {
            let mut top = TopK::new(k);
            for &c in &probes {
                self.scan_cell_f32(c as usize, fdata, query, &mut top);
            }
            top.into_sorted()
        }
    }

    fn scan_cell_f32(&self, cell: usize, fdata: &[f32], query: &[f32], top: &mut TopK) {
        let (s, e) = (
            self.cell_offsets[cell] as usize,
            self.cell_offsets[cell + 1] as usize,
        );
        for &id in &self.ids[s..e] {
            let row = &fdata[id as usize * self.dims..(id as usize + 1) * self.dims];
            top.push(id as usize, fused_dot(query, row).clamp(-1.0, 1.0));
        }
    }

    fn scan_cell_sq8(&self, cell: usize, qcodes: &[i8], qscale: f32, short: &mut TopK) {
        let (s, e) = (
            self.cell_offsets[cell] as usize,
            self.cell_offsets[cell + 1] as usize,
        );
        for slot in s..e {
            let id = self.ids[slot] as usize;
            let codes = &self.codes[slot * self.dims..(slot + 1) * self.dims];
            let approx = quant::dot_i8(qcodes, codes) as f32 * (qscale * self.scales[slot]);
            short.push(id, approx);
        }
    }
}

/// Exact f32 rescore of an SQ8 shortlist: scores come from the same fused
/// dot as the flat scan, so every hit callers see is exactly what the flat
/// scan would report for that row.
fn rescore(fdata: &[f32], dims: usize, query: &[f32], short: TopK, k: usize) -> Vec<Hit> {
    let mut hits: Vec<Hit> = short
        .into_sorted()
        .into_iter()
        .map(|h| Hit {
            id: h.id,
            score: fused_dot(query, &fdata[h.id * dims..(h.id + 1) * dims]).clamp(-1.0, 1.0),
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
    /// Score at or below which a new row cannot displace anything once the
    /// heap is full (ids only grow within a cell scan, so ties lose).
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
            let worst = self.heap.peek().expect("full heap is non-empty").0;
            // A tie can still win eviction when the incoming id is lower, so
            // only scores strictly below the floor — or ties against a
            // lower-id incumbent — are skipped without heap traffic.
            if score < self.floor || (score == worst.score && id > worst.id) {
                return;
            }
            if worst.score.total_cmp(&score) == Ordering::Greater {
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
fn assign_rows(threads: usize, data: &[f32], dims: usize, centroids: &[f32]) -> Vec<u32> {
    let rows = data.len() / dims;
    let cells = centroids.len() / dims;
    let windows = row_windows(rows);
    let parts = t2v_parallel::par_map_in(threads, &windows, |&(s, e)| {
        let mut out = Vec::with_capacity(e - s);
        for r in s..e {
            let row = &data[r * dims..(r + 1) * dims];
            let mut best = 0u32;
            let mut best_score = f32::NEG_INFINITY;
            for c in 0..cells {
                let score = fused_dot(row, &centroids[c * dims..(c + 1) * dims]);
                if score > best_score {
                    best_score = score;
                    best = c as u32;
                }
            }
            out.push(best);
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

    #[test]
    fn training_is_bit_identical_across_thread_counts() {
        // 5000 rows spans multiple 2048-row windows, so the window fold and
        // concatenation paths are genuinely exercised at every worker count.
        let idx = clustered_index(5000, 16, 30, 13);
        let cfg = IvfConfig {
            min_rows: 1,
            ..IvfConfig::default()
        };
        let base = IvfIndex::train_in(&idx, &cfg, 1).unwrap();
        for threads in [2, 3, 8] {
            let other = IvfIndex::train_in(&idx, &cfg, threads).unwrap();
            assert_eq!(base.centroids, other.centroids, "threads={threads}");
            assert_eq!(base.cell_offsets, other.cell_offsets, "threads={threads}");
            assert_eq!(base.ids, other.ids, "threads={threads}");
            assert_eq!(base.codes, other.codes, "threads={threads}");
            assert_eq!(base.scales, other.scales, "threads={threads}");
        }
    }
}
