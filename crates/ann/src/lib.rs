//! # t2v-ann — sub-linear approximate retrieval
//!
//! An IVF (inverted file) index over `t2v-embed`'s flat store: spherical
//! k-means partitions the pre-normalised rows into cells at build time, and
//! a query scans only the `nprobe` cells whose centroids score highest —
//! `nprobe / cells` of the corpus instead of all of it. Rows inside probed
//! cells are scored either straight from the borrowed f32 store (bit-exact
//! scores) or from 8-bit codes with an exact f32 rescore of the shortlist,
//! so callers always observe flat-scan scores and flat-scan ordering rules
//! (NaN-safe `total_cmp`, ties toward lower ids).
//!
//! The flat scan remains the recall oracle and the fallback: training
//! declines below [`DEFAULT_MIN_ROWS`] rows, where the exact scan is both
//! faster and free of recall risk. No serving path routes through this
//! crate: `t2v-serve` answers with the exact scan, and the benchmark's
//! `retrieve_large` workload is the crate's one caller, measuring the index
//! directly. See DESIGN.md §13 for layout, training cost, and the
//! flat-vs-IVF crossover that keeps serving on the exact scan.

pub mod ivf;
/// The SQ8 encoder and integer dot kernel, shared with the flat scan's
/// prefilter — they live in `t2v-embed`, next to the f32 dot.
pub use t2v_embed::quant;

pub use ivf::{IvfConfig, IvfIndex, DEFAULT_MIN_ROWS};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use t2v_embed::{l2_normalize, VectorIndex};

    fn build_index(vectors: &[Vec<f32>]) -> VectorIndex {
        let mut idx = VectorIndex::new();
        for v in vectors {
            idx.add(v.clone());
        }
        idx
    }

    proptest! {
        /// With every cell probed and f32 storage, IVF visits every row and
        /// must return *bit-identical* hits to the flat scan — ids, order,
        /// and scores — for arbitrary corpora, duplicate rows included.
        #[test]
        fn full_probe_f32_equals_flat(
            vectors in prop::collection::vec(prop::collection::vec(-1f32..1.0, 12), 8..60),
            query in prop::collection::vec(-1f32..1.0, 12),
            k in 1usize..14,
            seed in 0u64..1000,
            dup_from in prop::collection::vec(0usize..1000, 0..4),
        ) {
            let mut vectors = vectors;
            for d in dup_from {
                let src = vectors[d % vectors.len()].clone();
                vectors.push(src);
            }
            let idx = build_index(&vectors);
            let cells = (vectors.len() / 4).max(2);
            let cfg = IvfConfig {
                min_rows: 1,
                quantized: false,
                cells,
                nprobe: cells,
                seed,
            };
            let ivf = IvfIndex::train(&idx, &cfg).expect("forced training");
            let mut q = query;
            l2_normalize(&mut q);
            let flat = idx.top_k_prenormalized(&q, k);
            let approx = ivf.search(&idx, &q, k, 0);
            prop_assert_eq!(approx.len(), flat.len());
            for (a, f) in approx.iter().zip(&flat) {
                prop_assert_eq!(a.id, f.id);
                prop_assert!(a.score == f.score, "score mismatch {:?} vs {:?}", a, f);
            }
        }

        /// Full-probe SQ8 recall@10 vs the flat oracle stays ≥ 0.95 across
        /// dims / sizes / seeds, and every returned score is the exact f32
        /// score (rescore contract). Partial-probe recall on clustered
        /// corpora is covered by the deterministic grid test in `ivf`.
        #[test]
        fn sq8_recall_meets_bar(
            rows in 64usize..400,
            dims_sel in 0usize..3,
            seed in 0u64..10_000,
        ) {
            let dims = [8usize, 16, 32][dims_sel];
            // Deterministic corpus from the seed (proptest drives variety).
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = move || {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                state.wrapping_mul(0x2545_f491_4f6c_dd1d)
            };
            let vectors: Vec<Vec<f32>> = (0..rows)
                .map(|_| (0..dims).map(|_| (next() % 2000) as f32 / 1000.0 - 1.0).collect())
                .collect();
            let idx = build_index(&vectors);
            let cells = (rows / 8).max(2);
            let cfg = IvfConfig {
                min_rows: 1,
                quantized: true,
                cells,
                nprobe: cells,
                seed,
            };
            let ivf = IvfIndex::train(&idx, &cfg).expect("forced training");
            let mut q: Vec<f32> = (0..dims).map(|_| (next() % 2000) as f32 / 1000.0 - 1.0).collect();
            l2_normalize(&mut q);
            let k = 10usize.min(rows);
            let flat = idx.top_k_prenormalized(&q, k);
            let approx = ivf.search(&idx, &q, k, 0);
            let want: std::collections::HashSet<usize> = flat.iter().map(|h| h.id).collect();
            let recall = approx.iter().filter(|h| want.contains(&h.id)).count() as f64
                / flat.len().max(1) as f64;
            prop_assert!(recall >= 0.95, "recall@10 {recall:.3} (rows={rows} dims={dims})");
            let (_, fdata) = idx.raw_rows();
            for h in &approx {
                let exact = t2v_embed::fused_dot(&q, &fdata[h.id * dims..(h.id + 1) * dims])
                    .clamp(-1.0, 1.0);
                prop_assert!(h.score == exact, "sq8 hit must carry the exact score");
            }
        }

        /// Quantization roundtrip error is bounded by half a scale step per
        /// component, and the scale is exactly `max|v| / 127`.
        #[test]
        fn quant_roundtrip_error_bounded(
            v in prop::collection::vec(-2f32..2.0, 1..64),
        ) {
            let mut codes = Vec::new();
            let scale = quant::encode_row(&v, &mut codes);
            prop_assert_eq!(codes.len(), v.len());
            let max_abs = v.iter().fold(0f32, |m, x| m.max(x.abs()));
            if max_abs == 0.0 {
                prop_assert_eq!(scale, 0.0);
            } else {
                prop_assert!((scale - max_abs / 127.0).abs() <= f32::EPSILON * max_abs);
                for (&x, &c) in v.iter().zip(&codes) {
                    let decoded = c as f32 * scale;
                    prop_assert!(
                        (decoded - x).abs() <= scale * 0.5 + 1e-6,
                        "component {} decoded {} scale {}", x, decoded, scale
                    );
                }
            }
        }

        /// Tiny and empty corpora decline to train (the flat fallback), for
        /// any size below the threshold.
        #[test]
        fn below_threshold_declines(rows in 0usize..64) {
            let mut idx = VectorIndex::new();
            for i in 0..rows {
                let mut v = vec![0.1f32; 8];
                v[i % 8] = 1.0;
                idx.add(v);
            }
            prop_assert!(IvfIndex::train(&idx, &IvfConfig::default()).is_none());
        }
    }
}
