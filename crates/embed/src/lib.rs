//! # t2v-embed — embedding substrate
//!
//! Substitutes for the pre-trained text embedding model GRED uses in its
//! preparatory phase (paper §4.1, OpenAI `text-embedding-3-large`): a
//! deterministic concept-aware hashed embedder plus an exact top-K cosine
//! index. See [`embedder::TextEmbedder`] for the semantics-fidelity knob
//! (`lexicon_coverage`) used in ablations.

pub mod block;
pub mod embedder;
pub mod index;
pub mod quant;

pub use block::{dot_block, DotKernel, BLOCK_ROWS};
pub use embedder::{cosine, l2_normalize, EmbedConfig, EmbedderParts, PhraseRow, TextEmbedder};
pub use index::{best_first, dot as fused_dot, Hit, VectorIndex};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::quant::{self, Kernel};
    use proptest::prelude::*;

    /// Widest generated stride; cases cut their vectors down to a stride
    /// drawn from [`STRIDES`], which straddle every kernel width.
    const MAX_DIMS: usize = 100;
    const STRIDES: [usize; 10] = [1, 7, 12, 15, 16, 17, 33, 64, 65, MAX_DIMS];

    /// Reshape raw uniform components into one of the shapes the prefilter
    /// has to survive: dense, 25 %-sparse (what hashed embeddings look
    /// like), or saturated to {-1, 0, 1} so the codes sit at ±127.
    fn shaped(mut v: Vec<f32>, dims: usize, shape: usize) -> Vec<f32> {
        v.truncate(dims);
        for (i, x) in v.iter_mut().enumerate() {
            match shape {
                1 if x.to_bits().wrapping_add(i as u32) % 4 != 0 => *x = 0.0,
                2 => *x = if x.abs() < 0.4 { 0.0 } else { x.signum() },
                _ => {}
            }
        }
        v
    }

    /// Append copies of existing rows: exact duplicates (`nudge` 0) and
    /// near-ties one ulp up or down in a single component.
    fn plant_ties(vectors: &mut Vec<Vec<f32>>, ties: &[(usize, usize, u8)]) {
        for &(from, at, nudge) in ties {
            let mut row = vectors[from % vectors.len()].clone();
            let at = at % row.len();
            let x = &mut row[at];
            *x = match nudge {
                1 => f32::from_bits(x.to_bits() + 1),
                2 if *x != 0.0 => f32::from_bits(x.to_bits() - 1),
                _ => *x,
            };
            vectors.push(row);
        }
    }

    /// Reference top-k: score every row with the same fused dot the index
    /// uses (bit-identical scores), then fully sort with the documented
    /// tie-break. Any difference from `VectorIndex` output is a bug in the
    /// flat store's heap / chunking / merge logic.
    fn reference_topk(vectors: &[Vec<f32>], query: &[f32], k: usize) -> Vec<Hit> {
        let mut q = query.to_vec();
        l2_normalize(&mut q);
        let mut scored: Vec<Hit> = vectors
            .iter()
            .enumerate()
            .map(|(id, v)| {
                let mut row = v.clone();
                l2_normalize(&mut row);
                Hit {
                    id,
                    score: crate::index::dot(&q, &row).clamp(-1.0, 1.0),
                }
            })
            .collect();
        scored.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id)));
        scored.truncate(k);
        scored
    }

    proptest! {
        /// Cosine stays within [-1, 1] for arbitrary inputs.
        #[test]
        fn cosine_bounds(a in prop::collection::vec(-10f32..10.0, 16),
                         b in prop::collection::vec(-10f32..10.0, 16)) {
            let c = cosine(&a, &b);
            prop_assert!((-1.0..=1.0).contains(&c));
        }

        /// Embeddings are unit-norm (or zero) and deterministic.
        #[test]
        fn embed_norm_and_determinism(words in prop::collection::vec("[a-z]{1,8}", 1..6)) {
            let m = TextEmbedder::default_model();
            let text = words.join(" ");
            let v1 = m.embed(&text);
            let v2 = m.embed(&text);
            prop_assert_eq!(&v1, &v2);
            let norm: f32 = v1.iter().map(|x| x * x).sum::<f32>().sqrt();
            prop_assert!(norm == 0.0 || (norm - 1.0).abs() < 1e-3);
        }

        /// top_k results are sorted by descending score.
        #[test]
        fn topk_sorted(vectors in prop::collection::vec(prop::collection::vec(-1f32..1.0, 8), 1..30),
                       k in 1usize..10) {
            let mut idx = VectorIndex::new();
            for v in vectors { idx.add(v); }
            let q = vec![0.5f32; 8];
            let hits = idx.top_k(&q, k);
            for w in hits.windows(2) {
                prop_assert!(w[0].score >= w[1].score);
            }
            prop_assert!(hits.len() <= k);
        }

        /// The flat store returns identical ids, order, and scores to the
        /// reference brute-force scan — including k > len and duplicate
        /// vectors (exact ties must break toward lower ids).
        #[test]
        fn flat_store_matches_reference(
            vectors in prop::collection::vec(prop::collection::vec(-1f32..1.0, 12), 1..40),
            query in prop::collection::vec(-1f32..1.0, 12),
            k in 1usize..50,
            dup_from in prop::collection::vec(0usize..1000, 0..6),
        ) {
            // Plant exact duplicates to force score ties.
            let mut vectors = vectors;
            for d in dup_from {
                let src = vectors[d % vectors.len()].clone();
                vectors.push(src);
            }
            let mut idx = VectorIndex::new();
            for v in &vectors { idx.add(v.clone()); }
            let got = idx.top_k(&query, k);
            let want = reference_topk(&vectors, &query, k);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.id, w.id);
                prop_assert!(g.score == w.score, "score mismatch: {:?} vs {:?}", g, w);
            }
        }

        /// The two-level scan — integer prefilter, f32 rescore of survivors
        /// — returns the brute-force answer bit for bit on every kernel and
        /// chunking: ids, order and score bits, for dense, sparse and
        /// saturated rows, exact duplicates, one-ulp near-ties, strides that
        /// exercise every kernel tail, and k on both sides of the row count.
        /// Up to five tiles of rows, so the floor's seeds come from anywhere
        /// in a chunk, and chunks of one and two tiles that each seed their
        /// own.
        #[test]
        fn prefiltered_scan_matches_reference(
            vectors in prop::collection::vec(prop::collection::vec(-1f32..1.0, MAX_DIMS), 1..300),
            query in prop::collection::vec(-1f32..1.0, MAX_DIMS),
            stride in prop::sample::select(STRIDES.to_vec()),
            shape in 0usize..3,
            k in 1usize..60,
            ties in prop::collection::vec((0usize..1000, 0usize..1000, 0u8..3), 0..8),
        ) {
            let mut vectors: Vec<Vec<f32>> = vectors
                .into_iter()
                .map(|v| shaped(v, stride, shape))
                .collect();
            plant_ties(&mut vectors, &ties);
            let raw_query = shaped(query, stride, shape);
            let mut query = raw_query.clone();
            l2_normalize(&mut query);
            let mut idx = VectorIndex::new();
            for v in &vectors { idx.add_slice(v); }
            let want = reference_topk(&vectors, &raw_query, k);
            for kernel in [Kernel::BASELINE, Kernel::detect()] {
                for threads in [1usize, 3, 5] {
                    let got = idx.top_k_chunked(kernel, threads, quant::TILE_ROWS, &query, k);
                    prop_assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(&want) {
                        prop_assert_eq!(g.id, w.id);
                        prop_assert_eq!(g.score.to_bits(), w.score.to_bits());
                    }
                }
            }
        }

        /// The inequality the prefilter rests on, checked directly: the
        /// bound is never below the score the f32 kernel computes — for
        /// unit rows as stored, and for arbitrary magnitudes (a restored
        /// store is not re-normalised), tiny enough to underflow included.
        /// Loosening the slack or the margin fails here, on the pair that
        /// breaks it, rather than on a rare top-k miss.
        #[test]
        fn upper_bound_dominates_the_f32_dot(
            rows in prop::collection::vec(prop::collection::vec(-1f32..1.0, MAX_DIMS), 1..12),
            query in prop::collection::vec(-1f32..1.0, MAX_DIMS),
            stride in prop::sample::select(STRIDES.to_vec()),
            shape in 0usize..3,
            row_scale in prop::sample::select(vec![1.0f32, 1e-3, 37.5, 1e-19, 1e-30]),
            query_scale in prop::sample::select(vec![1.0f32, 1e-3, 37.5, 1e-19]),
            ties in prop::collection::vec((0usize..1000, 0usize..1000, 0u8..3), 0..4),
        ) {
            let mut rows: Vec<Vec<f32>> = rows
                .into_iter()
                .map(|v| shaped(v, stride, shape))
                .collect();
            plant_ties(&mut rows, &ties);
            let query = shaped(query, stride, shape);
            rows.push(query.clone()); // the row that scores highest of all
            let scaled = |v: &[f32], by: f32| -> Vec<f32> { v.iter().map(|x| x * by).collect() };
            let mut unit_query = query.clone();
            l2_normalize(&mut unit_query);
            for row in &rows {
                let mut unit_row = row.clone();
                l2_normalize(&mut unit_row);
                for (q, v) in [
                    (unit_query.clone(), unit_row),
                    (scaled(&query, query_scale), scaled(row, row_scale)),
                ] {
                    let score = fused_dot(&q, &v);
                    let ub = crate::index::upper_bound(&q, &v);
                    // A row is skipped only when its bound is below (or, in
                    // the heap's id-ordered test, at) a score some row has
                    // reached, so what must never hold is `ub < score` (a
                    // NaN bound — denormal or non-finite input — skips
                    // nothing).
                    let skippable = ub < score;
                    prop_assert!(!skippable, "bound {} < score {} for {:?} · {:?}", ub, score, q, v);
                }
            }
        }

        /// `embed_into` is byte-for-byte identical to `embed`, regardless of
        /// what the reused buffer previously held.
        #[test]
        fn embed_into_matches_embed(
            words in prop::collection::vec("[a-zA-Z0-9_]{1,10}", 0..12),
            stale in -2f32..2.0,
        ) {
            let m = TextEmbedder::default_model();
            let text = words.join(" ");
            let mut buf = vec![stale; m.dims()];
            m.embed_into(&text, &mut buf);
            prop_assert_eq!(&buf, &m.embed(&text));
        }

        /// A parts-roundtripped embedder is byte-identical to the original
        /// on arbitrary text (the snapshot store's correctness contract).
        #[test]
        fn parts_roundtrip_embeds_identically(
            words in prop::collection::vec("[a-zA-Z]{1,10}", 0..10),
        ) {
            let m = TextEmbedder::default_model();
            let rebuilt = TextEmbedder::from_parts(m.to_parts()).expect("valid parts");
            let text = words.join(" ");
            prop_assert_eq!(rebuilt.embed(&text), m.embed(&text));
        }

        /// The precomputed phrase table agrees with the lexicon's stemmed
        /// lookup for arbitrary word n-grams.
        #[test]
        fn phrase_table_matches_lexicon(words in prop::collection::vec("[a-z]{1,9}", 1..4)) {
            let m = TextEmbedder::default_model();
            let phrase = words.join(" ");
            let via_table = m.resolve_phrase(&phrase).map(|(ci, _)| ci);
            let via_lexicon = m.lexicon().concept_of_phrase_stemmed(&phrase);
            prop_assert_eq!(via_table, via_lexicon, "phrase {:?}", phrase);
        }
    }
}
